"""Command-line front end: load a model, run a check, emit verdicts and
certificates.

Every query partitions the model's states, decides between the classes of
lhs and rhs on the partition's system, and lifts a holding check's relation
to every member of the classes it relates.  ``strong-bisim`` and
``weak-bisim`` take their own classes (:mod:`contrasim.relations`) and
hold iff lhs and rhs share a class.  ``weak-sim``, ``naive-contrasim-1step``
and ``bounded-word-game`` transfer weak steps, so they have the same answer
on the weak-bisimulation quotient (:meth:`contrasim.lts.Lts.quotient`),
and take the weak classes.  ``contrasim`` takes the identity partition,
whose system is the model itself: the benchmark's traced pass
(``perfbench/spans.py``) compares its relation with the one the model's
game gives, and lifted from the quotient it would relate more pairs.
Dropping it from ``PARTITIONS`` moves it onto the weak classes.

Each query but the bisimilarities decides on one game, rooted at the
queried pairs of classes: that of lhs and rhs and, under ``--direction
equivalence``, also the reverse one.  The game notions run one driver,
:func:`contrasim.csgame.solve_cs_game_locally`, for ``contrasim`` on the
set game, for ``bounded-word-game`` on its word mode and for
``naive-contrasim-1step`` on its word mode at bound 1, whose words are
single steps.  It explores the game locally and stops once the attacker
wins every queried root, so ``game_positions`` and ``game_moves`` count
the explored part, which ``--emit-game-dot`` draws, each frontier
position as a defender position that moves to itself.  In the set game
an attacker position may keep only the challenges the search took, up
to the first one the attacker won, and ``game_moves`` counts the moves
generated.  ``weak-sim`` builds a pair game on the quotient from the
queried pairs (:func:`contrasim.relations.solve_pair_game`) and reports
no counts.  A holding ``weak-sim`` check prints the greatest weak
simulation of the quotient, computed whole by a counter refinement
outside the game (:func:`contrasim.relations.weak_sim_preorder`).
``--max-positions`` bounds every game, and the pairs a relation
certificate names, counted before any is named.  ``solve_ms`` times the
game, for a bisimilarity the classes.

Exit codes: 0 when the checked relation holds, 1 when it fails, 2 on usage,
parse, file, or budget errors (states, game positions or certificate
pairs), and 3 on an internal error (a defect), which prints ``internal
error: <type>: <message>`` after its traceback on stderr.  A failing
contrasimulation check is certified by a formula that the first failing
direction's left side satisfies and its right side refutes, a holding one
by a relation; both are re-checkable.

:func:`main` runs the check with the cyclic garbage collector paused and
restores the caller's setting on every exit.  Once the parser exists, a
check leaves no reference cycle behind, ``--emit-json`` included, so
automatic collections would only walk the game.  :func:`run_check` leaves
the collector to its caller.
"""

import argparse
import functools
import gc
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from . import csgame, relations
from .aut import parse_aut
from .ccs import DEFAULT_MAX_STATES, expand_ccs_roots, parse_ccs
from .errors import ParseError, PositionBudgetError, StateBudgetError
from .game import DEFAULT_MAX_POSITIONS, GameGraph, Player
from .hml import format_formula
from .lts import Lts
from .record import Record

NOTIONS = (
    "contrasim",
    "weak-sim",
    "weak-bisim",
    "strong-bisim",
    "naive-contrasim-1step",
    "bounded-word-game",
)

GAME_NOTIONS = ("contrasim", "bounded-word-game", "naive-contrasim-1step")

# Notions whose holding checks print their relation.
RELATION_NOTIONS = ("contrasim", "weak-sim", "weak-bisim", "strong-bisim")

# Each bisimilarity relates the states of one of its classes.
BISIMILARITIES = ("weak-bisim", "strong-bisim")

# The partition each notion decides on; every other notion takes the weak
# classes.  A range is the identity partition, whose system is the model.
PARTITIONS = {
    "contrasim": lambda model: range(model.state_count),
    "weak-bisim": relations.weak_classes,
    "strong-bisim": relations.strong_classes,
}


class Certificate(Record):
    _fields = ("kind", "formula", "pairs")

    def __init__(
        self,
        kind: str,  # "relation" | "formula"
        formula: Optional[str] = None,
        pairs: Optional[tuple[tuple[str, str], ...]] = None,
    ):
        self._set(kind, formula, pairs)


class CheckReport(Record):
    """The outcome of one check."""

    _fields = (
        "verdict", "notion", "direction", "lhs", "rhs", "forward", "backward", "certificate",
        "game_positions", "game_moves", "solve_ms", "total_ms",
    )

    def __init__(
        self, verdict: bool, notion: str, direction: str, lhs: str, rhs: str, forward: bool,
        backward: Optional[bool], certificate: Optional[Certificate],
        game_positions: Optional[int], game_moves: Optional[int], solve_ms: Optional[float],
        total_ms: float,
    ):
        self._set(
            verdict, notion, direction, lhs, rhs, forward, backward, certificate,
            game_positions, game_moves, solve_ms, total_ms,
        )


class UsageError(ValueError):
    """Argument errors that map to exit code 2."""


def _load_model(args: argparse.Namespace) -> tuple[Lts, int, int]:
    fmt = args.format or Path(args.input).suffix.lower()[1:]
    if fmt not in ("aut", "ccs"):
        raise UsageError(f"cannot infer format of {args.input!r}; pass --format")
    try:
        # utf-8-sig: a leading byte-order mark is not part of the model
        text = Path(args.input).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text: {exc}") from None
    if fmt == "aut":
        lts, _initial = parse_aut(text, args.max_states)
        # ASCII digits only: int() also takes "1_0", "+1", " 1" and "١"
        if not all(d.isascii() and d.isdigit() for d in (args.lhs, args.rhs)):
            raise UsageError("for .aut input the designators are state indices")
        try:
            lhs, rhs = int(args.lhs), int(args.rhs)
        except ValueError:  # past the digit limit of int(), so past any state count
            raise UsageError("state index too long") from None
        for s in (lhs, rhs):
            if not (0 <= s < lts.state_count):
                raise UsageError(f"state {s} outside 0..{lts.state_count - 1}")
        return lts, lhs, rhs
    program = parse_ccs(text)
    try:
        lts, initials = expand_ccs_roots(program, [args.lhs, args.rhs], args.max_states)
    except KeyError as exc:
        raise UsageError(str(exc.args[0])) from None
    return lts, initials[0], initials[1]


def _lifted_certificate(lts: Lts, classes: Sequence[int], pairs, max_pairs: int) -> Certificate:
    """Name each pair of states of ``lts`` whose classes ``pairs`` relates,
    in the order of the state indices.  More than ``max_pairs`` pairs raise
    :class:`PositionBudgetError` before any is named."""
    if classes[-1] == len(classes) - 1:
        # Classes are numbered by their smallest members, so the last state
        # has the last of n ids only when each class is its one member.
        if len(pairs) > max_pairs:
            raise PositionBudgetError(max_pairs, len(pairs))
        ordered = sorted(pairs)
        names = {s: lts.name_of(s) for s in set().union(*ordered)}
        named = tuple([(names[p], names[q]) for p, q in ordered])
    else:
        members: list[list[int]] = [[] for _ in range(max(classes) + 1)]
        for s, c in enumerate(classes):
            members[c].append(s)
        size = sum([len(members[x]) * len(members[y]) for x, y in pairs])
        if size > max_pairs:
            raise PositionBudgetError(max_pairs, size)
        related: list[list[int]] = [[] for _ in members]
        for x, y in pairs:
            related[x] += members[y]
        # Only the members of related classes are named: naming a CCS state
        # can print every state's term.
        shown = {s for row in related for s in row}
        shown.update(p for p, c in enumerate(classes) if related[c])
        names = {s: lts.name_of(s) for s in shown}
        rows = [[names[q] for q in sorted(row)] for row in related]
        named = tuple([(names[p], name) for p, c in enumerate(classes) for name in rows[c]])
    return Certificate(kind="relation", pairs=named)


def run_check(args: argparse.Namespace) -> CheckReport:
    """Run the check that the parsed ``args`` (:func:`_build_parser`) ask
    for; raises UsageError and parse errors for exit 2."""
    started = time.perf_counter()
    notion = args.notion
    if args.max_states < 1:
        raise UsageError("--max-states must be at least 1")
    if args.max_positions < 1:
        raise UsageError("--max-positions must be at least 1")
    if notion == "bounded-word-game":
        if args.word_bound is None:
            raise UsageError("--word-bound is required for the bounded word game")
        if args.word_bound < 1:
            raise UsageError("--word-bound must be at least 1")
    if args.emit_game_dot is not None and notion not in GAME_NOTIONS:
        raise UsageError(f"notion {notion!r} builds no game graph to export")

    model, lhs, rhs = _load_model(args)
    word_bound = {"bounded-word-game": args.word_bound, "naive-contrasim-1step": 1}.get(notion)
    positions = moves = None
    t0 = time.perf_counter()
    classes = PARTITIONS.get(notion, relations.weak_classes)(model)
    p, q = classes[lhs], classes[rhs]
    directions = [(p, q), (q, p)] if args.direction == "equivalence" else [(p, q)]
    if notion in BISIMILARITIES:
        # Bisimilar means in one class, so solve_ms times the classes.
        related = {(c, c) for c in range(max(classes) + 1)}
    else:
        lts = model if isinstance(classes, range) else model.quotient(classes)
        t0 = time.perf_counter()
        if notion in GAME_NOTIONS:
            # Expansion and solving interleave, so solve_ms times both.
            game, solution, roots = csgame.solve_cs_game_locally(
                lts, directions, args.max_positions, word_bound
            )
        else:  # weak-sim: a pair game from the queried pairs
            related = relations.solve_pair_game(lts, directions, args.max_positions)
    solve_ms = (time.perf_counter() - t0) * 1000.0
    if notion in GAME_NOTIONS:
        results = [solution.winner[root] is Player.DEFENDER for root in roots]
        positions, moves = game.graph.position_count, game.move_count
    else:
        results = [pair in related for pair in directions]

    certificate = None
    if args.emit_certificate and notion in RELATION_NOTIONS and all(results):
        if notion in GAME_NOTIONS:
            related = csgame.extract_contrasimulation(game, solution, roots)
        elif notion == "weak-sim":
            # The greatest weak simulation, counted before it is built.
            related = relations.weak_sim_preorder(lts, args.max_positions)
        certificate = _lifted_certificate(model, classes, related, args.max_positions)
    elif args.emit_certificate and notion == "contrasim":
        first_lost = roots[results.index(False)]
        formula = csgame.extract_distinguishing_formula(game, solution, first_lost)
        certificate = Certificate(kind="formula", formula=format_formula(formula))

    if args.emit_game_dot is not None:
        labels = [csgame.format_position(lts, pos) for pos in game.positions]
        Path(args.emit_game_dot).write_text(export_game_dot(game.graph, labels))

    return CheckReport(
        verdict=all(results),
        notion=notion,
        direction=args.direction,
        lhs=model.name_of(lhs),
        rhs=model.name_of(rhs),
        forward=results[0],
        backward=results[1] if len(results) > 1 else None,
        certificate=certificate,
        game_positions=positions,
        game_moves=moves,
        solve_ms=round(solve_ms, 3),
        total_ms=round((time.perf_counter() - started) * 1000.0, 3),
    )


# -- output -------------------------------------------------------------------


def export_game_dot(graph: GameGraph, labels: Sequence[str]) -> str:
    """Render a game graph in DOT: attacker positions as boxes, defender
    positions as circles, the initial position with a doubled border."""
    if len(labels) != graph.position_count:
        raise ValueError("one label per position required")

    def escape(text: str) -> str:
        return text.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph game {"]
    for idx in range(graph.position_count):
        shape = "box" if graph.owner[idx] is Player.ATTACKER else "circle"
        extra = ", peripheries=2" if idx == graph.initial else ""
        lines.append(f'  n{idx} [shape={shape}, label="{escape(labels[idx])}"{extra}];')
    for src, row in enumerate(graph.moves):
        for dst in row:
            lines.append(f"  n{src} -> n{dst};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _certificate_json(certificate: Optional[Certificate]):
    if certificate is None:
        return None
    if certificate.kind == "formula":
        return {"kind": "formula", "formula": certificate.formula}
    return {"kind": "relation", "pairs": [list(pair) for pair in certificate.pairs]}


def _indented(value, dumps, indent: str = "") -> str:
    """``value`` in the layout of ``json.dumps(value, indent=2)``, each key
    and scalar encoded by ``dumps`` alone: the indenting encoder is pure
    Python and leaves a reference cycle per call, the plain one does not."""
    inner = indent + "  "
    if isinstance(value, dict):
        brackets = "{}"
        items = [f"{inner}{dumps(k)}: {_indented(v, dumps, inner)}" for k, v in value.items()]
    elif isinstance(value, list):
        brackets = "[]"
        items = [inner + _indented(v, dumps, inner) for v in value]
    else:
        return dumps(value)
    if not items:
        return brackets
    return brackets[0] + "\n" + ",\n".join(items) + "\n" + indent + brackets[1]


def report_json(report: CheckReport) -> str:
    """Serialize a report with a stable field set and key order."""
    import json  # only --emit-json needs it; every other query skips its import

    payload = {
        "verdict": report.verdict,
        "notion": report.notion,
        "direction": report.direction,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "certificate": _certificate_json(report.certificate),
        "game_positions": report.game_positions,
        "game_moves": report.game_moves,
        "solve_ms": report.solve_ms,
    }
    return _indented(payload, json.dumps) + "\n"


def _print_report(report: CheckReport, out) -> None:
    held = "holds" if report.verdict else "fails"
    print(f"notion:    {report.notion}", file=out)
    print(f"direction: {report.direction}", file=out)
    print(f"lhs:       {report.lhs}", file=out)
    print(f"rhs:       {report.rhs}", file=out)
    print(f"forward:   {'holds' if report.forward else 'fails'} (lhs vs rhs)", file=out)
    if report.backward is not None:
        print(
            f"backward:  {'holds' if report.backward else 'fails'} (rhs vs lhs)",
            file=out,
        )
    print(f"verdict:   {held}", file=out)
    if report.game_positions is not None:
        print(
            f"game:      {report.game_positions} positions, "
            f"{report.game_moves} moves, solved in {report.solve_ms} ms",
            file=out,
        )
    if report.certificate is not None:
        if report.certificate.kind == "formula":
            print(f"formula: {report.certificate.formula}", file=out)
        else:
            rendered = ", ".join(f"({p}, {q})" for p, q in report.certificate.pairs)
            print(f"relation: [{rendered}]", file=out)
    print(f"total:     {report.total_ms} ms", file=out)


@functools.cache  # built once per process; parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contrasim",
        description="Decide contrasimulation and related preorders on finite LTSs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="compare two processes of one model")
    check.add_argument("input", help="path to a .ccs or .aut model")
    check.add_argument(
        "--format",
        choices=("ccs", "aut"),
        default=None,
        help="input format (default: by file extension)",
    )
    check.add_argument("--lhs", required=True, help="left process (name or state index)")
    check.add_argument("--rhs", required=True, help="right process (name or state index)")
    check.add_argument("--notion", choices=NOTIONS, default="contrasim")
    check.add_argument(
        "--direction", choices=("preorder", "equivalence"), default="preorder"
    )
    check.add_argument(
        "--max-states",
        type=int,
        default=DEFAULT_MAX_STATES,
        help="state budget for CCS expansion and for the states an .aut header declares",
    )
    check.add_argument(
        "--max-positions",
        type=int,
        default=DEFAULT_MAX_POSITIONS,
        help="position budget for the game a query builds",
    )
    check.add_argument(
        "--word-bound",
        type=int,
        default=None,
        help="attacker word length bound (bounded-word-game only)",
    )
    check.add_argument("--emit-certificate", action="store_true")
    check.add_argument("--emit-game-dot", metavar="PATH", default=None)
    check.add_argument("--emit-json", metavar="PATH", default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Paused: a check leaves no cycles to collect (see the module docstring).
    collecting = gc.isenabled()
    gc.disable()
    try:
        report = run_check(args)
        # Written first, so that a run that exits 2 prints no verdict.
        if args.emit_json is not None:
            Path(args.emit_json).write_text(report_json(report))
        _print_report(report, sys.stdout)
    except (UsageError, ParseError, StateBudgetError, PositionBudgetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A defect, never a verdict: exit 1 would read as "relation fails",
        # so the exit code stays 3 even when reporting the defect fails too,
        # as it may after a MemoryError.  traceback is imported here because
        # only this path needs it, and importing it up front would add
        # milliseconds to every start.
        try:
            import traceback

            traceback.print_exc(file=sys.stderr)
        except Exception:
            pass
        try:
            print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        except Exception:
            pass
        return 3
    finally:
        if collecting:
            gc.enable()
    return 0 if report.verdict else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
