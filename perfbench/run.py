"""Benchmark of the certified contrasim pipeline; see perfbench/README.md.

    python3 perfbench/run.py --workload subset-blowup --seed 1 --seconds 30
    python3 perfbench/run.py --workload deep-chain --trace 1
    python3 perfbench/run.py --workload all

One client sends queries to ``contrasim.cli.main`` one after another, in
process (a closed loop), and times are calibrated to the host's speed (see
``calibrate``).  The untimed checks afterwards compare every verdict with
the one known by construction and re-check every certificate.  With
``--trace 1`` the run instead calls the pipeline's public functions inside
spans and reports per-layer metrics.  The last line printed is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "contrasim"
WORK = ROOT / ".perfbench"

QUERY_LIMIT_S = 10.0  # per query; a failed query is charged this much
CHECK_LIMIT_S = 30.0  # per certificate re-check
SETUP_PROBES = 15
# Time of reference() on the tuning machine at its usual speed; see calibrate().
REFERENCE_S = 0.0035
# build_cs_game on blow(12) and blow(14), as measured when ROADMAP was re-anchored.
REANCHOR_COUNTS = {12: (16_487, 49_305), 14: (65_655, 213_169)}

END_TO_END = {
    "verdict_ms_p50": "ms",
    "verdict_ms_p90": "ms",
    "batch_s": "s",
    "decided_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYER_TIMES = (
    "aut.parse", "ccs.parse", "ccs.expand", "lts.build", "csgame.build",
    "csgame.labels", "game.solve", "csgame.extract", "hml.format",
    "csgame.word_game", "csgame.naive", "relations.oracle", "hml.check",
    "relations.check",
)
COUNTS = (
    "lts.states", "lts.transitions", "lts.tau_edges", "ccs.states",
    "csgame.positions", "csgame.positions.attacker", "csgame.positions.sim",
    "csgame.positions.swap", "csgame.moves", "csgame.q_sets_distinct",
    "csgame.q_max", "csgame.strategy_positions", "relations.relation_pairs",
    "hml.formula_nodes", "hml.formula_chars",
)
LAYERS = ("aut", "ccs", "lts", "csgame", "game", "hml", "relations", "cli")


class QueryTimeout(BaseException):
    """Raised by the interval timer when a query or check runs over its limit.

    A BaseException, so that no handler inside the program swallows it."""


@contextlib.contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise QueryTimeout(f"over the limit of {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def reference() -> float:
    """Seconds taken by a fixed piece of work shaped like the game builder's:
    small frozensets as parts of tuple keys in a dict, then a sort."""
    started = time.perf_counter()
    counts: dict = {}
    for i in range(3000):
        key = (i % 50, frozenset((i & 63, (i >> 3) & 63, i % 17)))
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items(), key=lambda item: item[1])
    return time.perf_counter() - started


def calibrate(seconds: float, references: list[float]) -> float:
    """Scale a measured time to the host speed at which reference() takes
    REFERENCE_S.

    The host the benchmark was tuned on changed speed by up to 1.6x within
    minutes, which moved every raw time alike.  ``references`` are timed
    around the measurement, so the ratio cancels that drift, while a change
    to contrasim moves the calibrated time as much as the raw one.
    """
    return seconds * REFERENCE_S / statistics.median(references)


def failing_layer(exc: BaseException) -> str:
    """The contrasim module whose function the caller (the CLI glue or the
    checker) had entered when the exception was raised."""
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        path = Path(frame.f_code.co_filename)
        if path.parent == PACKAGE and path.stem != "cli":
            return path.stem
    return "cli"


# -- checks -----------------------------------------------------------------------


class Checker:
    """Judges one query outcome, caching the model and each distinct outcome."""

    def __init__(self, model_dir: Path, tracer=None):
        self.model_dir = model_dir
        self.tracer = tracer or spans.Tracer(enabled=False)
        self._models: dict = {}
        self._judged: dict = {}

    def model(self, query):
        key = (query.model, query.lhs, query.rhs)
        if key not in self._models:
            self._models[key] = certcheck.load_model(self.model_dir / query.model, query)
        return self._models[key]

    def judge(self, query, outcome, lts_triple=None) -> tuple[str, str, str]:
        """Return (status, layer, kind): status is "ok", "failed" (crash,
        limit, checker error) or "wrong" (a false verdict or certificate)."""
        key = (query, outcome)
        if key in self._judged:
            return self._judged[key]
        verdict, forward, cert_line, error, error_layer = outcome
        if error is not None:
            result = ("failed", error_layer, error)
        elif verdict != query.expected:
            result = ("wrong", "query", "WrongVerdict")
        else:
            layer = certcheck.checking_layer(query, verdict)
            lts, lhs, rhs = lts_triple or self.model(query)
            try:
                with time_limit(CHECK_LIMIT_S), self.tracer.span(f"{layer}.check"):
                    certcheck.check_certificate(query, lts, lhs, rhs, verdict, forward, cert_line)
                result = ("ok", "", "")
            except certcheck.CertificateRejected as exc:
                result = ("wrong", layer, f"CertificateRejected({exc})")
            except (Exception, QueryTimeout) as exc:
                result = ("failed", failing_layer(exc), type(exc).__name__)
        self._judged[key] = result
        return result


def report_outcome(stdout: str) -> tuple:
    """(verdict, forward, certificate line) as printed by the CLI."""
    verdict = forward = None
    for line in stdout.splitlines():
        if line.startswith("verdict:"):
            verdict = line.split()[-1] == "holds"
        elif line.startswith("forward:"):
            forward = line.split()[1] == "holds"
    return verdict, forward, certcheck.certificate_line(stdout)


# -- the timed closed loop ---------------------------------------------------------------


def call_cli(query, model_dir: Path) -> tuple[tuple, float]:
    """Run one query through ``cli.main``; returns its outcome and wall time."""
    argv = query.argv(str(model_dir))
    out = io.StringIO()
    started = time.perf_counter()
    try:
        with time_limit(QUERY_LIMIT_S), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        elapsed = time.perf_counter() - started
    except (Exception, QueryTimeout, SystemExit) as exc:
        elapsed = time.perf_counter() - started
        return (None, None, None, type(exc).__name__, failing_layer(exc)), elapsed
    verdict, forward, cert = report_outcome(out.getvalue())
    if code not in (0, 1) or verdict is None or verdict != (code == 0):
        return (None, None, None, f"ExitCode{code}", "cli"), elapsed
    return (verdict, forward, cert, None, None), elapsed


def passes_until(seconds: float, run_pass) -> list:
    """Run whole passes while the next one is expected to end in time; at least one."""
    results = []
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        results.append(run_pass())
        now = time.perf_counter()
        if now - started + (now - pass_started) > seconds:
            return results


def timed_run(workload, model_dir: Path, seconds: float) -> dict:
    queries = workload.queries
    raw_setup_s, setup_references = measure_setup()
    setup_s = calibrate(raw_setup_s, setup_references)

    distinct: dict = {}  # one copy of each distinct outcome, however many passes
    references: list[list[float]] = []  # per pass, one after each query

    def run_pass():
        outcomes = []
        references.append([])
        for query in queries:
            gc.collect()
            outcome, elapsed = call_cli(query, model_dir)
            outcomes.append((distinct.setdefault(outcome, outcome), elapsed))
            references[-1].append(reference())
        return outcomes

    passes = passes_until(seconds, run_pass)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checker = Checker(model_dir)
    failures: Counter = Counter()
    charged = [[0.0] * len(passes) for _ in queries]
    decided = wrong = 0
    for j, outcomes in enumerate(passes):
        for i, (outcome, elapsed) in enumerate(outcomes):
            status, layer, kind = checker.judge(queries[i], outcome)
            if status == "ok":
                decided += 1
                charged[i][j] = calibrate(elapsed, references[j])
            else:
                wrong += status == "wrong"
                failures[(layer, kind)] += 1
                charged[i][j] = QUERY_LIMIT_S
    attempted = len(queries) * len(passes)
    latencies_ms = [statistics.median(row) * 1000.0 for row in charged]
    deciles = statistics.quantiles(latencies_ms, n=10)
    metrics = {
        "verdict_ms_p50": statistics.median(latencies_ms),
        "verdict_ms_p90": deciles[8],
        "batch_s": statistics.median(sum(row[j] for row in charged) for j in range(len(passes))),
        "decided_share": decided / attempted,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    pass_s = [sum(elapsed for _, elapsed in outcomes) for outcomes in passes]
    reference_ms = [statistics.median(r) * 1000.0 for r in references]
    notes = [
        f"{len(queries)} queries x {len(passes)} passes of "
        f"{', '.join(f'{t:.2f}' for t in pass_s)} s (raw); per-query time is the "
        f"median over passes; failed queries are charged {QUERY_LIMIT_S} s",
        f"times calibrated to reference() = {REFERENCE_S * 1000:.1f} ms; it took "
        f"{', '.join(f'{t:.2f}' for t in reference_ms)} ms in the passes and "
        f"{raw_setup_s / setup_s * REFERENCE_S * 1000:.2f} ms around the set-up probes",
    ]
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": attempted - decided,
        "metrics": {name: (metrics[name], unit) for name, unit in END_TO_END.items()},
        "failures": failures,
        "notes": notes,
    }


def measure_setup() -> tuple[float, list[float]]:
    """Median time for a fresh interpreter to import ``contrasim.cli``, and
    the reference times taken between the probes.  The first probe only
    warms the file cache and the bytecode cache."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import contrasim.cli; "
        "print(time.perf_counter() - t)"
    )
    times, references = [], []
    for probe in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", code, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        if probe:
            times.append(float(done.stdout))
            references += [reference() for _ in range(3)]
    return statistics.median(times), references


# -- the traced run -------------------------------------------------------------------


def traced_pass(workload, model_dir: Path, tracer) -> tuple[Counter, Counter, int, float, float]:
    """One pass through ``spans.traced_check``.  With an enabled tracer it
    also checks every result and counts; returns (counts, failures, wrong
    verdicts or certificates, summed query time in s, calibration factor)."""
    counts: Counter = Counter()
    failures: Counter = Counter()
    checker = Checker(model_dir, tracer)
    wrong = 0
    total = 0.0
    references = []
    for i, query in enumerate(workload.queries):
        result = None
        gc.collect()
        tracer.query = i
        started = time.perf_counter()
        try:
            with time_limit(QUERY_LIMIT_S), tracer.span("query"):
                result = spans.traced_check(query, model_dir, tracer)
            error = None
        except (Exception, QueryTimeout) as exc:
            error = type(exc).__name__
        total += time.perf_counter() - started
        references.append(reference())
        if not tracer.enabled:
            continue
        if error is not None:
            failed = [s for s in tracer.spans if s.query == i and s.error]
            layer = failed[0].name.split(".")[0] if failed else "cli"
            outcome = (None, None, None, error, "cli" if layer == "query" else layer)
            triple = None
        else:
            outcome = (all(result.results), result.results[0], result.certificate, None, None)
            triple = (result.lts, result.lhs, result.rhs)
        status, layer, kind = checker.judge(query, outcome, triple)
        if status != "ok":
            wrong += status == "wrong"
            failures[(layer, kind)] += 1
        if result is not None:
            spans.count_result(result, counts)
    return counts, failures, wrong, total, calibrate(1.0, references)


def reanchor_check() -> list[str]:
    """Problems with the game sizes of blow(12) and blow(14), if any."""
    problems = []
    for k, expected in REANCHOR_COUNTS.items():
        text, u, nfa = workloads.blow_model(random.Random(k), k)
        lts, _ = parse_aut(text)
        graph = csgame.build_cs_game(lts, u, nfa).graph
        got = (graph.position_count, graph.move_count)
        print(f"re-anchor blow({k}): {got[0]} positions, {got[1]} moves (expected {expected})")
        if got != expected:
            problems.append(f"blow({k}) builds {got}, expected {expected}")
    return problems


def traced_run(workload, model_dir: Path, seconds: float, seed: int) -> dict:
    def run_round():
        tracer = spans.Tracer()
        traced = traced_pass(workload, model_dir, tracer)
        untraced = traced_pass(workload, model_dir, spans.Tracer(enabled=False))
        return tracer, traced, untraced[3] * untraced[4]

    rounds = passes_until(seconds, run_round)
    metrics = [
        layer_metrics(tracer, counts, failures, total * scale - untraced, scale)
        for tracer, (counts, failures, _, total, scale), untraced in rounds
    ]
    merged = {name: statistics.median(m[name] for m in metrics) for name in metrics[0]}
    problems = reanchor_check() if workload.name == "subset-blowup" else []
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)

    tracer = rounds[0][0]
    failures = sum((traced[1] for _, traced, _ in rounds), Counter())
    wrong = sum(traced[2] for _, traced, _ in rounds)
    WORK.mkdir(exist_ok=True)
    trace_file = WORK / f"trace-{workload.name}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "queries": [q.name for q in workload.queries],
        "spans": [vars(s) for s in tracer.spans],
    }))
    attempted = len(workload.queries) * len(rounds)
    return {
        "correct": wrong == 0 and not problems,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": {name: (value, per_layer_unit(name)) for name, value in merged.items()},
        "failures": failures,
        "notes": [f"{len(rounds)} traced passes; spans written to {trace_file.relative_to(ROOT)}"],
    }


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def layer_metrics(tracer, counts: Counter, failures: Counter, overhead_s: float,
                  scale: float) -> dict:
    """Per-layer metrics of one traced pass; span times are multiplied by
    ``scale``, the pass's calibration factor."""
    by_name: Counter = Counter()
    children: Counter = Counter()
    for span in tracer.spans:
        by_name[span.name] += span.ms * scale
        if span.parent is not None:
            children[span.parent] += span.ms * scale
    self_ms = sum(
        span.ms * scale - children[idx]
        for idx, span in enumerate(tracer.spans) if span.name == "query"
    )
    out = {f"{name}_ms": by_name[name] for name in LAYER_TIMES}
    out.update({name: float(counts[name]) for name in COUNTS})
    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    positions = counts["csgame.positions"]
    out["csgame.positions_per_s"] = ratio(positions, by_name["csgame.build"] / 1000.0)
    out["csgame.strategy_share"] = ratio(counts["csgame.strategy_positions"], positions)
    out["game.attacker_won_share"] = ratio(counts["game.attacker_won"], positions)
    out["game.initial_rank"] = ratio(counts["game.initial_rank_sum"],
                                     counts["game.attacker_won_games"])
    out["query.total_ms"] = by_name["query"]
    out["query.self_ms"] = self_ms
    for layer in LAYERS:
        out[f"{layer}.failed"] = float(sum(n for (l, _), n in failures.items() if l == layer))
    out["query.failed"] = float(sum(failures.values()))
    out["trace.overhead_s"] = overhead_s
    return out


# -- entry point ----------------------------------------------------------------------


def print_result(name: str, result: dict) -> None:
    print(f"workload {name}")
    for note in result["notes"]:
        print(f"  {note}")
    for metric, (value, unit) in result["metrics"].items():
        print(f"  {metric:<28} {value:>14.4f} {unit}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for (layer, kind), n in sorted(result["failures"].items()):
        print(f"  failed in {layer}: {kind} x{n}")


def result_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    })


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no contrasim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global certcheck, cli, csgame, parse_aut, spans
    import contrasim
    if Path(contrasim.__file__).resolve().parent != PACKAGE:
        print(f"error: imported contrasim from {contrasim.__file__}", file=sys.stderr)
        return 2
    from contrasim import cli, csgame
    from contrasim.aut import parse_aut
    import certcheck
    import spans

    if args.workload == "all":
        return run_all(args)
    # One core for the whole run, so the loop never migrates between cores.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = workloads.WORKLOADS[args.workload](args.seed)
    WORK.mkdir(exist_ok=True)
    model_dir = Path(tempfile.mkdtemp(prefix="models-", dir=WORK))
    try:
        for file, text in workload.models.items():
            (model_dir / file).write_text(text)
        if args.trace:
            result = traced_run(workload, model_dir, args.seconds, args.seed)
        else:
            result = timed_run(workload, model_dir, args.seconds)
    finally:
        shutil.rmtree(model_dir, ignore_errors=True)
    print_result(workload.name, result)
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
