"""Command-line front end: load a model, run a check, emit verdicts and
certificates.

A ``contrasim`` query is decided on the model itself.  ``strong-bisim``
and ``weak-bisim`` are decided by classing the states
(:func:`contrasim.relations.strong_classes`,
:func:`contrasim.relations.weak_classes`): lhs and rhs are related iff
they share a class.  ``weak-sim``, ``naive-contrasim-1step`` and
``bounded-word-game`` are defined by transferring weak steps, so they
give the same answer on the weak-bisimulation quotient of the model
(:meth:`contrasim.lts.Lts.quotient`), and are decided there, between the
classes of lhs and rhs; when no two states merge, that is the model
itself.  A relation certificate of a gameless notion is its greatest
relation on the classes, lifted back to every member of the classes it
relates: the same relation the model gives.  A ``contrasim`` relation is
read off the defender's strategy instead, and lifting that one would
relate more pairs than the model's game commits to, so ``contrasim``
prints the relation of its game on the model.

Each query decides on one game or computes one relation: under
``--direction equivalence`` the backward verdict is read off the
lhs-vs-rhs game at its reverse root, and ``game_positions``,
``game_moves`` and ``solve_ms`` describe that one game, for
``bounded-word-game`` the quotient's.  A ``contrasim`` query explores its
game locally and stops once the attacker wins every queried root, so the
counts are those of the explored part.  ``--emit-game-dot`` only draws:
for ``contrasim`` it builds the whole reachable game, writes it and
leaves the verdict, the certificate and the counts as they are.  For a
gameless notion ``solve_ms`` times computing the relation, or the
classes.

Exit codes: 0 when the checked relation holds, 1 when it fails, 2 on usage,
parse, file, or budget errors (states or game positions), and 3 on an
internal error (a defect), which prints ``internal error: <type>:
<message>`` after its traceback on stderr.  A failing contrasimulation
check is certified by a formula that the first failing direction's left
side satisfies and its right side refutes, a holding one by a relation;
both are re-checkable.
"""

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from . import csgame, relations
from .aut import parse_aut
from .ccs import DEFAULT_MAX_STATES, expand_ccs_roots, parse_ccs
from .errors import ParseError, PositionBudgetError, StateBudgetError
from .game import GameGraph, Player, solve
from .hml import format_formula
from .lts import Lts

NOTIONS = (
    "contrasim",
    "weak-sim",
    "weak-bisim",
    "strong-bisim",
    "naive-contrasim-1step",
    "bounded-word-game",
)

GAME_NOTIONS = ("contrasim", "bounded-word-game")

# Gameless notions whose holding checks print their relation.
RELATION_NOTIONS = ("weak-sim", "weak-bisim", "strong-bisim")


# Each bisimilarity relates the states of one of its classes.
BISIMILARITIES = {
    "weak-bisim": relations.weak_classes,
    "strong-bisim": relations.strong_classes,
}


@dataclass(frozen=True)
class CheckRequest:
    input_path: str
    input_format: str  # "ccs" | "aut"
    lhs: str
    rhs: str
    notion: str = "contrasim"
    direction: str = "preorder"  # "preorder" | "equivalence"
    max_states: int = DEFAULT_MAX_STATES
    max_positions: int = csgame.DEFAULT_MAX_POSITIONS
    word_bound: Optional[int] = None
    emit_certificate: bool = False
    emit_game_dot: Optional[str] = None
    emit_json: Optional[str] = None


@dataclass(frozen=True)
class Certificate:
    kind: str  # "relation" | "formula"
    formula: Optional[str] = None
    pairs: Optional[tuple[tuple[str, str], ...]] = None


@dataclass
class CheckReport:
    verdict: bool
    notion: str
    direction: str
    lhs: str
    rhs: str
    forward: bool
    backward: Optional[bool]
    certificate: Optional[Certificate]
    game_positions: Optional[int]
    game_moves: Optional[int]
    solve_ms: Optional[float]
    total_ms: float = 0.0


class UsageError(ValueError):
    """Request-level errors that map to exit code 2."""


def _load_model(request: CheckRequest) -> tuple[Lts, int, int]:
    try:
        text = Path(request.input_path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text: {exc}") from None
    if request.input_format == "aut":
        lts, _initial = parse_aut(text, request.max_states)
        try:
            lhs, rhs = int(request.lhs), int(request.rhs)
        except ValueError:
            raise UsageError(
                "for .aut input the designators are state indices"
            ) from None
        for s in (lhs, rhs):
            if not (0 <= s < lts.state_count):
                raise UsageError(f"state {s} outside 0..{lts.state_count - 1}")
        return lts, lhs, rhs
    program = parse_ccs(text)
    try:
        lts, initials = expand_ccs_roots(
            program, [request.lhs, request.rhs], request.max_states
        )
    except KeyError as exc:
        raise UsageError(str(exc.args[0])) from None
    return lts, initials[0], initials[1]


def _relation_certificate(lts: Lts, pairs) -> Certificate:
    named = tuple(
        (lts.name_of(p), lts.name_of(q)) for p, q in sorted(pairs)
    )
    return Certificate(kind="relation", pairs=named)


def _lifted_certificate(lts: Lts, classes: Sequence[int], pairs) -> Certificate:
    """Name each pair of states of ``lts`` whose classes ``pairs`` relates,
    in the order of the state indices."""
    members: list[list[int]] = [[] for _ in range(max(classes) + 1)]
    for s, c in enumerate(classes):
        members[c].append(s)
    related: list[list[int]] = [[] for _ in members]
    for x, y in pairs:
        related[x] += members[y]
    names = [lts.name_of(s) for s in range(lts.state_count)]
    rows = [[names[q] for q in sorted(row)] for row in related]
    named = tuple((names[p], name) for p, c in enumerate(classes) for name in rows[c])
    return Certificate(kind="relation", pairs=named)


def run_check(request: CheckRequest) -> CheckReport:
    """Execute a check request; raises UsageError and parse errors for exit 2."""
    started = time.perf_counter()
    notion = request.notion
    if notion not in NOTIONS:
        raise UsageError(f"unknown notion {notion!r}")
    if request.direction not in ("preorder", "equivalence"):
        raise UsageError(f"unknown direction {request.direction!r}")
    if request.input_format not in ("ccs", "aut"):
        raise UsageError(f"unknown input format {request.input_format!r}")
    if request.max_states < 1:
        raise UsageError("--max-states must be at least 1")
    if request.max_positions < 1:
        raise UsageError("--max-positions must be at least 1")
    if notion == "bounded-word-game":
        if request.word_bound is None:
            raise UsageError("--word-bound is required for the bounded word game")
        if request.word_bound < 1:
            raise UsageError("--word-bound must be at least 1")
    if request.emit_game_dot is not None and notion not in GAME_NOTIONS:
        raise UsageError(f"notion {notion!r} builds no game graph to export")

    model, lhs, rhs = _load_model(request)
    equivalence = request.direction == "equivalence"
    positions = moves = None
    if notion == "contrasim":
        lts, p, q = model, lhs, rhs
    else:
        t0 = time.perf_counter()
        classes = BISIMILARITIES.get(notion, relations.weak_classes)(model)
        solve_ms = (time.perf_counter() - t0) * 1000.0
        p, q = classes[lhs], classes[rhs]
        if notion not in BISIMILARITIES:
            lts = model.quotient(classes)
    if notion == "contrasim":
        # Expansion and solving interleave, so solve_ms times both.
        t0 = time.perf_counter()
        game, solution, roots = csgame.solve_cs_game_locally(
            lts, p, q, swapped=equivalence, max_positions=request.max_positions
        )
        solve_ms = (time.perf_counter() - t0) * 1000.0
        graph = game.graph
    elif notion == "bounded-word-game":
        graph, game = csgame.build_word_game(
            lts, p, q, request.word_bound, request.max_positions
        )
        roots = [graph.initial]
        if equivalence:
            roots.append(game.index(csgame._WordAttacker(q, p)))
        t0 = time.perf_counter()
        solution = solve(graph)
        solve_ms = (time.perf_counter() - t0) * 1000.0
    elif notion in BISIMILARITIES:
        # Bisimilar means in one class, so solve_ms timed the classes.
        related = {(c, c) for c in range(max(classes) + 1)}
    else:
        t0 = time.perf_counter()
        if notion == "weak-sim":
            related = relations.weak_sim_preorder(lts)
        else:
            related = csgame.naive_single_step_relation(lts)
        solve_ms = (time.perf_counter() - t0) * 1000.0
    if notion in GAME_NOTIONS:
        results = [solution.winner[root] is Player.DEFENDER for root in roots]
        positions = graph.position_count
        moves = game.move_count if notion == "contrasim" else graph.move_count
    else:
        directions = [(p, q), (q, p)] if equivalence else [(p, q)]
        results = [pair in related for pair in directions]

    certificate = None
    if request.emit_certificate:
        if notion == "contrasim" and all(results):
            pairs = csgame.extract_contrasimulation(game, solution, roots)
            certificate = _relation_certificate(lts, pairs)
        elif notion == "contrasim":
            first_lost = roots[results.index(False)]
            formula = csgame.extract_distinguishing_formula(game, solution, first_lost)
            certificate = Certificate(kind="formula", formula=format_formula(formula))
        elif notion in RELATION_NOTIONS and all(results):
            # The greatest relation on the classes relates every member of
            # the classes it relates.
            certificate = _lifted_certificate(model, classes, related)

    if request.emit_game_dot is not None:
        if notion == "contrasim":
            # The local game may stop short: draw the whole reachable game.
            drawn = csgame.build_cs_game(lts, p, q, request.max_positions)
            graph = drawn.graph
            labels = [csgame.format_position(lts, pos) for pos in drawn.positions]
        else:
            labels = [csgame.format_word_position(lts, pos) for pos in game]
        Path(request.emit_game_dot).write_text(export_game_dot(graph, labels))

    report = CheckReport(
        verdict=all(results),
        notion=notion,
        direction=request.direction,
        lhs=model.name_of(lhs),
        rhs=model.name_of(rhs),
        forward=results[0],
        backward=results[1] if len(results) > 1 else None,
        certificate=certificate,
        game_positions=positions,
        game_moves=moves,
        solve_ms=round(solve_ms, 3),
    )
    report.total_ms = round((time.perf_counter() - started) * 1000.0, 3)
    return report


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


def report_json(report: CheckReport) -> str:
    """Serialize a report with a stable field set and key order."""
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
    return json.dumps(payload, indent=2) + "\n"


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
        default=csgame.DEFAULT_MAX_POSITIONS,
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


def _request_from_args(args: argparse.Namespace) -> CheckRequest:
    fmt = args.format
    if fmt is None:
        suffix = Path(args.input).suffix.lower()
        if suffix == ".aut":
            fmt = "aut"
        elif suffix == ".ccs":
            fmt = "ccs"
        else:
            raise UsageError(
                f"cannot infer format of {args.input!r}; pass --format"
            )
    return CheckRequest(
        input_path=args.input,
        input_format=fmt,
        lhs=args.lhs,
        rhs=args.rhs,
        notion=args.notion,
        direction=args.direction,
        max_states=args.max_states,
        max_positions=args.max_positions,
        word_bound=args.word_bound,
        emit_certificate=args.emit_certificate,
        emit_game_dot=args.emit_game_dot,
        emit_json=args.emit_json,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        request = _request_from_args(args)
        report = run_check(request)
        _print_report(report, sys.stdout)
        if request.emit_json is not None:
            Path(request.emit_json).write_text(report_json(report))
    except (UsageError, ParseError, StateBudgetError, PositionBudgetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A defect, never a verdict: exit 1 would read as "relation fails".
        # Imported here because only this path needs it, and importing it
        # up front would add milliseconds to every start.
        import traceback

        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0 if report.verdict else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
