"""The command line's outputs on every small fixture query, pinned line by line.

Every ordered state pair of ``fixtures/{phil,locked,instable}.aut``, and
every ordered pair of the two processes each ``.ccs`` twin defines, is
checked under all six notions and both directions, with
``--emit-certificate`` and ``--word-bound 2``: 2,952 + 144 = 3,096 runs of
:func:`contrasim.cli.main` in process.  The ``.ccs`` runs pin the CCS
state names that certificates print.  Each run of a game notion runs once
more with ``--emit-game-dot``, 1,548 runs, to pin the drawing, the game
the query solved: that run must give the same exit code and stdout, and
the drawing as many nodes as ``game_positions`` and as many edges that
are not self-loops as ``game_moves``.  Each query is one line of
``tests/data/sweep.txt``::

    <fixture>:<lhs>:<rhs>:<notion>:<direction> <exit> <positions> <moves> <stdout> <json> <dot>

with the exit code, the report's ``game_positions`` and ``game_moves``, and
short sha256 hashes of stdout, of the ``--emit-json`` report, their times
masked, and of the DOT text (``-`` where a field is missing).
``<fixture>`` is ``phil`` for ``phil.aut`` and ``phil.ccs`` for
``phil.ccs``.  A change that alters any output shows up as the ids of the
runs it alters.

After an intended change, regenerate the file and name the changed runs::

    PYTHONPATH=src python tests/test_sweep.py
"""

import hashlib
import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

from contrasim.cli import GAME_NOTIONS, NOTIONS, main

TESTS = Path(__file__).resolve().parent
FIXTURES = TESTS.parent / "fixtures"
EXPECTED = TESTS / "data" / "sweep.txt"
MODELS = ("phil", "locked", "instable")
# The two processes each .ccs fixture defines, in the order of definition.
CCS_ROOTS = {"phil": ("Pc", "Pp"), "locked": ("Pc", "Pl"), "instable": ("Pab", "Pb")}
DIRECTIONS = ("preorder", "equivalence")

_TIMES = re.compile(r"(solved in |total: +|\"solve_ms\": )[0-9.]+")
_EDGE = re.compile(r"^  n(\d+) -> n(\d+);$", re.MULTILINE)


def _digest(text: str) -> str:
    masked = _TIMES.sub(lambda m: m.group(1) + "T", text)
    return hashlib.sha256(masked.encode()).hexdigest()[:12]


def _run_ids():
    for model in MODELS:
        path = FIXTURES / f"{model}.aut"
        states = int(path.read_text().splitlines()[0].split(",")[2].rstrip(")"))
        for lhs, rhs, notion, direction in product(
            range(states), range(states), NOTIONS, DIRECTIONS
        ):
            yield f"{model}:{lhs}:{rhs}:{notion}:{direction}", path, lhs, rhs, notion, direction
    for model, roots in CCS_ROOTS.items():
        path = FIXTURES / f"{model}.ccs"
        for lhs, rhs, notion, direction in product(roots, roots, NOTIONS, DIRECTIONS):
            yield f"{path.name}:{lhs}:{rhs}:{notion}:{direction}", path, lhs, rhs, notion, direction


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def sweep_lines() -> list[str]:
    """One line per query, in the order of :func:`_run_ids`."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        report, dot = Path(tmp) / "report.json", Path(tmp) / "game.dot"
        for run_id, path, lhs, rhs, notion, direction in _run_ids():
            report.unlink(missing_ok=True)
            dot.unlink(missing_ok=True)
            argv = [
                "check", str(path), "--lhs", str(lhs), "--rhs", str(rhs),
                "--notion", notion, "--direction", direction, "--word-bound", "2",
                "--emit-certificate",
            ]
            code, out = _run(argv + ["--emit-json", str(report)])
            fields = [run_id, str(code), "-", "-", _digest(out), "-", "-"]
            if report.exists():
                text = report.read_text()
                payload = json.loads(text)
                fields[2] = json.dumps(payload["game_positions"])
                fields[3] = json.dumps(payload["game_moves"])
                fields[5] = _digest(text)
            if notion in GAME_NOTIONS:
                drawn = _run(argv + ["--emit-game-dot", str(dot)])
                assert (drawn[0], _digest(drawn[1])) == (code, fields[4]), run_id
                if dot.exists():
                    text = dot.read_text()
                    fields[6] = _digest(text)
                    edges = sum(src != dst for src, dst in _EDGE.findall(text))
                    assert [str(text.count("shape=")), str(edges)] == fields[2:4], run_id
            lines.append(" ".join(fields))
    return lines


def test_outputs_match_the_checked_in_sweep():
    expected = {line.split(" ", 1)[0]: line for line in EXPECTED.read_text().splitlines()}
    actual = {line.split(" ", 1)[0]: line for line in sweep_lines()}
    assert len(actual) == 3096
    changed = [
        f"{run_id}: {actual.get(run_id, '(no run)')}  (was {expected.get(run_id, '(no line)')})"
        for run_id in sorted(expected.keys() | actual.keys())
        if expected.get(run_id) != actual.get(run_id)
    ]
    assert not changed, f"{len(changed)} runs changed:\n" + "\n".join(changed)


if __name__ == "__main__":
    EXPECTED.write_text("\n".join(sweep_lines()) + "\n")
