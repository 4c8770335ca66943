"""Independent re-check of what ``contrasim check`` prints.

Relations are mapped back from printed state names to state indices and
checked with the coinductive checkers of ``contrasim.relations``; formulas
are parsed back from their printed text (without recursion, so that deep
formulas parse) and evaluated with ``contrasim.hml.hml_satisfies``.  Notions
that print no certificate are compared against their pinned verdict only.
"""

from pathlib import Path
from typing import Optional

from contrasim import relations
from contrasim.aut import parse_aut
from contrasim.ccs import expand_ccs_roots, parse_ccs
from contrasim.hml import TRUTH, DelayNor, DelayObs, HmlFormula, hml_satisfies
from contrasim.lts import Action, Lts

from workloads import Query


class CertificateRejected(Exception):
    """The printed output contradicts the model."""


def load_model(path: Path, query: Query) -> tuple[Lts, int, int]:
    """The model as the checker sees it: the LTS and the two designated states."""
    text = path.read_text()
    if path.suffix == ".aut":
        lts, _ = parse_aut(text)
        return lts, int(query.lhs), int(query.rhs)
    lts, (lhs, rhs) = expand_ccs_roots(parse_ccs(text), [query.lhs, query.rhs])
    return lts, lhs, rhs


def parse_formula(text: str) -> HmlFormula:
    """Parse ``T``, ``<e><a>phi`` and ``<e>~(phi|...)`` with an explicit stack.

    Equal subformulas are built once, so the result is a DAG like the one
    the extractor printed and ``hml_satisfies`` memoizes across its shares.
    """
    interned: dict[tuple, HmlFormula] = {}

    def intern(key: tuple, make) -> HmlFormula:
        node = interned.get(key)
        if node is None:
            node = interned[key] = make()
        return node

    pos = 0
    stack: list[list] = []  # ["obs", Action] or ["nor", branches]
    while True:
        if text.startswith("T", pos):
            node, pos = TRUTH, pos + 1
        elif text.startswith("<e>~()", pos):
            node, pos = intern(("nor",), lambda: DelayNor(())), pos + 6
        elif text.startswith("<e>~(", pos):
            stack.append(["nor", []])
            pos += 5
            continue
        elif text.startswith("<e><", pos):
            end = text.find(">", pos + 4)
            if end < 0:
                raise CertificateRejected(f"unterminated action at {pos}")
            stack.append(["obs", Action(text[pos + 4:end])])
            pos = end + 1
            continue
        else:
            raise CertificateRejected(f"unexpected formula text at {pos}")
        while True:
            if not stack:
                if pos != len(text):
                    raise CertificateRejected(f"trailing formula text at {pos}")
                return node
            frame = stack[-1]
            if frame[0] == "obs":
                stack.pop()
                body = node
                node = intern(("obs", frame[1], id(body)), lambda: DelayObs(frame[1], body))
                continue
            frame[1].append(node)
            if text.startswith("|", pos):
                pos += 1
                break
            if not text.startswith(")", pos):
                raise CertificateRejected(f"expected '|' or ')' at {pos}")
            pos += 1
            stack.pop()
            branches = tuple(frame[1])
            node = intern(("nor",) + tuple(map(id, branches)), lambda: DelayNor(branches))


def parse_relation(text: str, lts: Lts) -> set[tuple[int, int]]:
    """Map ``[(p, q), ...]`` back to state indices.

    State names may themselves contain ``", "`` and parentheses (CCS terms),
    so each pair is matched against the model's known names; a pair that
    matches no names, or more than one way, is rejected.
    """
    index: dict[str, int] = {}
    for state in range(lts.state_count):
        name = lts.name_of(state)
        if name in index:
            raise CertificateRejected(f"two states are named {name!r}")
        index[name] = state
    if not (text.startswith("[") and text.endswith("]")):
        raise CertificateRejected("relation is not bracketed")
    body, pos, pairs = text[1:-1], 0, set()
    while pos < len(body):
        if pairs:
            if not body.startswith(", ", pos):
                raise CertificateRejected(f"expected ', ' at {pos}")
            pos += 2
        if not body.startswith("(", pos):
            raise CertificateRejected(f"expected '(' at {pos}")
        pos += 1
        found = []
        for left, p in index.items():
            if body.startswith(left + ", ", pos):
                mid = pos + len(left) + 2
                for right, q in index.items():
                    end = mid + len(right)
                    if body.startswith(right + ")", mid) and (
                        end + 1 == len(body) or body.startswith(", (", end + 1)
                    ):
                        found.append((p, q, end + 1))
        if len(found) != 1:
            raise CertificateRejected(f"pair at {pos} matches {len(found)} ways")
        p, q, pos = found[0]
        pairs.add((p, q))
    return pairs


def _is_strong_bisimulation(lts: Lts, rel: set[tuple[int, int]]) -> bool:
    alphabet = {action for _, action, _ in lts.transitions}
    return all(
        (q, p) in rel
        and all(
            any((p2, q2) in rel for q2 in lts.strong_successors(q, a))
            for a in alphabet
            for p2 in lts.strong_successors(p, a)
        )
        for p, q in rel
    )


def certificate_line(stdout: str) -> Optional[str]:
    for line in stdout.splitlines():
        if line.startswith(("formula: ", "relation: ")):
            return line
    return None


def checking_layer(query: Query, verdict: bool) -> str:
    """The layer whose checker re-checks the certificate, or "" for none."""
    if query.notion in ("naive-contrasim-1step", "bounded-word-game"):
        return ""
    if not verdict:
        return "hml" if query.notion == "contrasim" else ""
    return "relations"


def check_certificate(
    query: Query, lts: Lts, lhs: int, rhs: int, verdict: bool, forward: bool, line: Optional[str]
) -> None:
    """Re-check one printed certificate; raises CertificateRejected."""
    layer = checking_layer(query, verdict)
    if not layer:
        return
    if line is None:
        raise CertificateRejected("no certificate printed")
    kind, _, text = line.partition(": ")
    if layer == "hml":
        if kind != "formula":
            raise CertificateRejected("a failing check must print a formula")
        formula = parse_formula(text)
        p, q = (lhs, rhs) if not forward else (rhs, lhs)
        if not hml_satisfies(lts, p, formula):
            raise CertificateRejected("formula refuted by the left process")
        if hml_satisfies(lts, q, formula):
            raise CertificateRejected("formula satisfied by the right process")
        return
    if kind != "relation":
        raise CertificateRejected("a holding check must print a relation")
    rel = parse_relation(text, lts)
    needed = {(lhs, rhs)} if query.direction == "preorder" else {(lhs, rhs), (rhs, lhs)}
    if not needed <= rel:
        raise CertificateRejected("relation misses the queried pair")
    notion = query.notion
    if notion == "contrasim":
        ok = relations.is_contrasimulation(lts, rel)
    elif notion == "weak-sim":
        ok = relations.is_weak_simulation(lts, rel)
    elif notion == "weak-bisim":
        ok = all((q, p) in rel for p, q in rel) and relations.is_weak_simulation(lts, rel)
    else:
        ok = _is_strong_bisimulation(lts, rel)
    if not ok:
        raise CertificateRejected(f"relation is no {notion} relation")
