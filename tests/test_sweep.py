"""The command line's outputs on every small fixture query, pinned line by line.

Every ordered state pair of ``fixtures/{phil,locked,instable}.aut`` is
checked under all six notions and both directions, with
``--emit-certificate`` and ``--word-bound 2``: 2,952 runs of
:func:`contrasim.cli.main` in process.  Each run is one line of
``tests/data/sweep.txt``::

    <fixture>:<lhs>:<rhs>:<notion>:<direction> <exit> <positions> <moves> <stdout> <json>

with the exit code, the report's ``game_positions`` and ``game_moves``, and
short sha256 hashes of stdout and of the ``--emit-json`` report, their
times masked (``-`` where a field is missing).  A change that alters any
output shows up as the ids of the runs it alters.

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

from contrasim.cli import NOTIONS, main

TESTS = Path(__file__).resolve().parent
FIXTURES = TESTS.parent / "fixtures"
EXPECTED = TESTS / "data" / "sweep.txt"
MODELS = ("phil", "locked", "instable")
DIRECTIONS = ("preorder", "equivalence")

_TIMES = re.compile(r"(solved in |total: +|\"solve_ms\": )[0-9.]+")


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


def sweep_lines() -> list[str]:
    """One line per run, in the order of :func:`_run_ids`."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        for run_id, path, lhs, rhs, notion, direction in _run_ids():
            report.unlink(missing_ok=True)
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = main([
                    "check", str(path), "--lhs", str(lhs), "--rhs", str(rhs),
                    "--notion", notion, "--direction", direction, "--word-bound", "2",
                    "--emit-certificate", "--emit-json", str(report),
                ])
            fields = [run_id, str(code), "-", "-", _digest(out.getvalue()), "-"]
            if report.exists():
                text = report.read_text()
                payload = json.loads(text)
                fields[2] = json.dumps(payload["game_positions"])
                fields[3] = json.dumps(payload["game_moves"])
                fields[5] = _digest(text)
            lines.append(" ".join(fields))
    return lines


def test_outputs_match_the_checked_in_sweep():
    expected = {line.split(" ", 1)[0]: line for line in EXPECTED.read_text().splitlines()}
    actual = {line.split(" ", 1)[0]: line for line in sweep_lines()}
    assert len(actual) == 2952
    changed = [
        f"{run_id}: {actual.get(run_id, '(no run)')}  (was {expected.get(run_id, '(no line)')})"
        for run_id in sorted(expected.keys() | actual.keys())
        if expected.get(run_id) != actual.get(run_id)
    ]
    assert not changed, f"{len(changed)} runs changed:\n" + "\n".join(changed)


if __name__ == "__main__":
    EXPECTED.write_text("\n".join(sweep_lines()) + "\n")
