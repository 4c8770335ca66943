import builtins
import gc
import io
import json
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from contrasim import ccs, csgame, relations
from contrasim.aut import parse_aut, write_aut
from contrasim.ccs import expand_ccs_roots, parse_ccs
from contrasim.cli import (
    NOTIONS,
    Certificate,
    CheckReport,
    export_game_dot,
    main,
    report_json,
    run_check,
)
from contrasim.csgame import (
    bounded_word_game_preorder,
    build_cs_game,
    decide_equivalence,
    decide_preorder,
    extract_distinguishing_formula,
    format_position,
    naive_single_step_preorder,
    solve_cs_game_locally,
)
from contrasim.game import GameGraph, Player, solve
from contrasim.hml import DelayNor, DelayObs, TRUTH, format_formula, hml_satisfies
from contrasim.lts import Lts, TAU, act

from conftest import (
    FIXTURES, INSTABLE_AUT, LOCKED_AUT, PHIL_AUT, make_random_lts, two_chains_aut,
)

TESTS = Path(__file__).resolve().parent

JSON_FIELDS = [
    "verdict",
    "notion",
    "direction",
    "lhs",
    "rhs",
    "certificate",
    "game_positions",
    "game_moves",
    "solve_ms",
]


def run_main(args):
    return main([str(a) for a in args])


# -- exit codes on the shipped fixtures ------------------------------------------


def test_phil_equivalence_exits_zero(capsys):
    code = run_main(
        ["check", "--notion", "contrasim", "--direction", "equivalence",
         "--lhs", "Pc", "--rhs", "Pp", FIXTURES / "phil.ccs"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict:   holds" in out


def test_locked_preorder_exits_one_with_formula(locked, capsys):
    code = run_main(
        ["check", "--notion", "contrasim", "--direction", "preorder",
         "--lhs", "Pc", "--rhs", "Pl", "--emit-certificate", FIXTURES / "locked.ccs"]
    )
    assert code == 1
    out = capsys.readouterr().out
    match = re.search(r"^formula: (.+)$", out, re.MULTILINE)
    assert match is not None


def test_reflexive_check_on_trivial_program(tmp_path, capsys):
    source = tmp_path / "trivial.ccs"
    source.write_text("X = 0;\n")
    assert run_main(["check", "--lhs", "X", "--rhs", "X", source]) == 0


def test_aut_input_uses_state_indices(capsys):
    code = run_main(
        ["check", "--lhs", "1", "--rhs", "2", "--direction", "equivalence",
         FIXTURES / "phil.aut"]
    )
    assert code == 0


@pytest.mark.parametrize(
    "args",
    [
        ["check", "--lhs", "Pc", "--rhs", "Missing", FIXTURES / "phil.ccs"],
        ["check", "--lhs", "banana", "--rhs", "2", FIXTURES / "phil.aut"],
        # .aut designators are ASCII decimal digits: int() would read each of
        # these as state 1
        ["check", "--lhs", "0_1", "--rhs", "2", FIXTURES / "phil.aut"],
        ["check", "--lhs", "+1", "--rhs", "2", FIXTURES / "phil.aut"],
        ["check", "--lhs", "1", "--rhs", " 1", FIXTURES / "phil.aut"],
        ["check", "--lhs", "\u0661", "--rhs", "2", FIXTURES / "phil.aut"],
        # past the digit limit of int()
        ["check", "--lhs", "1" * 5000, "--rhs", "2", FIXTURES / "phil.aut"],
        ["check", "--lhs", "1", "--rhs", "99", FIXTURES / "phil.aut"],
        ["check", "--lhs", "Pab", "--rhs", "Pb", "--notion", "bounded-word-game",
         FIXTURES / "instable.ccs"],
        ["check", "--lhs", "Pab", "--rhs", "Pb", "--notion", "bounded-word-game",
         "--word-bound", "0", FIXTURES / "instable.ccs"],
        ["check", "--lhs", "Pab", "--rhs", "Pb", "--max-states", "0",
         FIXTURES / "instable.ccs"],
        ["check", "--lhs", "1", "--rhs", "2", "--max-states", "-5",
         FIXTURES / "phil.aut"],
        ["check", "--lhs", "1", "--rhs", "2", "--max-positions", "0",
         FIXTURES / "phil.aut"],
        # local solving explores 34 positions: each attacker or swap position
        # whose state the defender reaches internally is left unexpanded, and
        # a search that expands those outside the set itself (46) exits 2 too
        ["check", "--lhs", "1", "--rhs", "2", "--max-positions", "30",
         FIXTURES / "phil.aut"],
        # local solving explores 20 positions on the weak quotient
        ["check", "--lhs", "1", "--rhs", "2", "--max-positions", "15",
         "--notion", "bounded-word-game", "--word-bound", "3", FIXTURES / "phil.aut"],
        ["check", "--lhs", "X", "--rhs", "X", "/nonexistent/file.ccs"],
        ["check", "--lhs", "0", "--rhs", "1", TESTS / "data" / "not_utf8.aut"],
        ["check", "--lhs", "0", "--rhs", "1", TESTS / "data" / "huge_header.aut"],
    ],
)
def test_usage_errors_exit_two(args, capsys):
    assert run_main(args) == 2
    assert "error:" in capsys.readouterr().err


def test_word_game_fits_the_budget_whatever_its_word_count(capsys):
    """State 1 guesses "b" among a/b loops, state 0 loops on both: 2^17 - 1
    words of up to 16 letters start at state 1, but the local word game
    walks configurations and explores 9 positions."""
    code = run_main(
        ["check", "--lhs", "1", "--rhs", "0", "--notion", "bounded-word-game",
         "--word-bound", "16", "--max-positions", "100", TESTS / "data" / "word_blowup.aut"]
    )
    assert code == 1
    assert "game:      9 positions" in capsys.readouterr().out


def test_calls_in_one_process_share_no_state(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_main(["check", "--lhs", "Pc", "--bogus", FIXTURES / "locked.ccs"])
    assert exit_info.value.code == 2
    capsys.readouterr()
    locked = ["check", "--lhs", "Pc", "--rhs", "Pl", FIXTURES / "locked.ccs"]
    assert run_main(locked) == 1
    assert "formula:" not in capsys.readouterr().out
    assert run_main(locked + ["--emit-certificate"]) == 1
    assert "formula:" in capsys.readouterr().out
    assert run_main(locked) == 1
    assert "formula:" not in capsys.readouterr().out


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.ccs"
    bad.write_text("X = a..0;\n")
    assert run_main(["check", "--lhs", "X", "--rhs", "X", bad]) == 2


def test_budget_error_exits_two(tmp_path, capsys):
    growing = tmp_path / "grow.ccs"
    growing.write_text("X = a.(X | X);\n")
    code = run_main(
        ["check", "--lhs", "X", "--rhs", "X", "--max-states", "20", growing]
    )
    assert code == 2
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, counted",
    [
        (["--lhs", "1", "--rhs", "2", "--max-positions", "30", FIXTURES / "phil.aut"],
         "30 game positions"),
    ],
)
def test_position_budget_error_names_what_passed_it(args, counted, capsys):
    assert run_main(["check", *args]) == 2
    assert capsys.readouterr().err == (
        f"error: position budget of {counted} exceeded; "
        "raise max_positions if the game really is this large\n"
    )


@pytest.mark.parametrize("direction", ["preorder", "equivalence"])
@pytest.mark.parametrize("notion", ["weak-sim", "naive-contrasim-1step"])
def test_pair_games_fit_the_position_budget(notion, direction, tmp_path, capsys):
    """Two 500-step chains (1,003 states): the pair game of weak-sim and
    the naive notion's word game at bound 1 are built from the queried pairs
    only, so a budget linear in n decides them, and a tiny one stops the
    query."""
    n = 500
    chain = tmp_path / "chain.aut"
    chain.write_text(two_chains_aut(n))
    query = ["check", "--lhs", 0, "--rhs", n + 1, "--notion", notion,
             "--direction", direction, chain]
    assert run_main([*query, "--max-positions", 10]) == 2
    assert capsys.readouterr().err == (
        "error: position budget of 10 game positions exceeded; "
        "raise max_positions if the game really is this large\n"
    )
    assert run_main([*query, "--max-positions", 8 * n]) == 1


@pytest.mark.parametrize(
    "notion, rhs, size",
    [
        # one strong class: every pair of the ring's states
        ("strong-bisim", 1, lambda n: n * n),
        # one copied position: the identity on the states it reaches
        ("contrasim", 0, lambda n: n),
    ],
    ids=["strong-bisim", "contrasim"],
)
def test_relation_certificates_fit_the_position_budget(notion, rhs, size, tmp_path, capsys):
    """A ring of n a-steps: the pairs a holding check's relation would name
    are counted before any is named, and more than ``--max-positions`` stop
    the query with a message that blames the certificate, not a game."""
    n = 30
    ring = tmp_path / "ring.aut"
    ring.write_text(f"des (0,{n},{n})\n" + "".join(f'({i},"a",{(i + 1) % n})\n' for i in range(n)))
    query = ["check", "--lhs", 0, "--rhs", rhs, "--notion", notion, "--emit-certificate", ring]
    assert run_main([*query, "--max-positions", size(n) - 1]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the relation certificate, not a game, exceeds the position budget of "
        f"{size(n) - 1}: it names {size(n)} pairs; raise max_positions to print it\n"
    )
    assert run_main([*query, "--max-positions", size(n)]) == 0
    line = re.search(r"^relation: (.+)$", capsys.readouterr().out, re.MULTILINE)
    assert len(re.findall(r"\((\d+), (\d+)\)", line.group(1))) == size(n)


def test_weak_sim_certificate_is_counted_before_it_is_built(tmp_path, capsys):
    """An a-chain of n steps: state 1 is weakly simulated by state 0, and the
    greatest weak simulation relates each state to every state at least as
    far from the end, (n + 1)(n + 2)/2 pairs.  Over ``--max-positions`` they
    are counted on the refinement's bytes, before any pair is built.  As a
    frozenset of tuples those pairs alone take about 5 MB at n = 300; the
    whole check, refinement included, peaks near 0.8 MB at n = 300 and
    2.1 MB at n = 600, where counters held as int lists peaked near 2.1 and
    7.2 MB."""
    for n in (300, 600):
        chain = tmp_path / "chain.aut"
        chain.write_text(
            f"des (0,{n},{n + 1})\n" + "".join(f'({i},"a",{i + 1})\n' for i in range(n))
        )
        tracemalloc.start()
        try:
            code = run_main(["check", "--lhs", 1, "--rhs", 0, "--notion", "weak-sim",
                             "--emit-certificate", "--max-positions", 20_000, chain])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err == (
            "error: the relation certificate, not a game, exceeds the position budget of 20000: "
            f"it names at least {(n + 1) * (n + 2) // 2} pairs; raise max_positions to print it\n"
        )
        assert peak < 4_000_000


def test_cli_import_loads_no_dataclasses_inspect_or_json():
    """Every query pays for importing the CLI; a module that only one option
    needs is imported on that option's path, and ``array`` only by a
    ``weak-sim`` certificate."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import contrasim.cli; print(*sorted(set(sys.modules) - before))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, str(TESTS.parent / "src")],
        capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(done.stdout.split())
    assert "contrasim.cli" in loaded
    assert not loaded & {"array", "dataclasses", "inspect", "json"}


def test_internal_error_exits_three(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("broken invariant")

    monkeypatch.setattr("contrasim.cli.run_check", broken)
    code = run_main(["check", "--lhs", "1", "--rhs", "2", FIXTURES / "phil.aut"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err
    assert captured.err.endswith("internal error: RuntimeError: broken invariant\n")


@pytest.mark.parametrize("failing", ["import", "print_exc"])
def test_internal_error_exits_three_when_its_report_fails(failing, monkeypatch, capsys):
    """Out of memory, importing traceback or printing the traceback may fail
    again; the exit code must still say defect, not "relation fails"."""

    def exhausted(args):
        raise MemoryError

    def fail(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("contrasim.cli.run_check", exhausted)
    if failing == "import":
        real_import = builtins.__import__

        def no_traceback(name, *args, **kwargs):
            if name == "traceback":
                raise MemoryError
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", no_traceback)
    else:
        import traceback

        monkeypatch.setattr(traceback, "print_exc", fail)
    code = run_main(["check", "--lhs", "1", "--rhs", "2", FIXTURES / "phil.aut"])
    monkeypatch.undo()
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: MemoryError: \n"


@pytest.mark.parametrize("name, lhs, rhs", [("phil.aut", "1", "2"), ("phil.ccs", "Pc", "Pp")])
def test_byte_order_mark_is_skipped(name, lhs, rhs, tmp_path, capsys):
    model = tmp_path / name
    model.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / name).read_bytes())
    assert run_main(["check", "--lhs", lhs, "--rhs", rhs, model]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert f"lhs:       {lhs}\n" in captured.out


def test_unwritable_json_path_prints_no_verdict(tmp_path, capsys):
    unwritable = tmp_path / "missing" / "report.json"
    code = run_main(
        ["check", "--lhs", "Pc", "--rhs", "Pp", "--emit-json", unwritable, FIXTURES / "phil.ccs"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_unknown_extension_needs_format_flag(tmp_path, capsys):
    model = tmp_path / "model.txt"
    model.write_text('des (0,0,1)\n')
    assert run_main(["check", "--lhs", "0", "--rhs", "0", model]) == 2
    assert run_main(["check", "--lhs", "0", "--rhs", "0", "--format", "aut", model]) == 0


def test_format_follows_an_upper_case_suffix(tmp_path, capsys):
    for name, lhs, rhs in (("PHIL.AUT", "1", "2"), ("PHIL.CCS", "Pc", "Pp")):
        model = tmp_path / name
        model.write_text((FIXTURES / name.lower()).read_text())
        assert run_main(["check", "--lhs", lhs, "--rhs", rhs, model]) == 0
    assert capsys.readouterr().err == ""


# -- every notion through the CLI -------------------------------------------------

WORD_BOUND = 2
GAMELESS = {"weak-sim", "weak-bisim", "strong-bisim"}
ORACLES = {
    "weak-sim": relations.weak_sim_preorder,
    "weak-bisim": relations.weak_bisimilarity,
    "strong-bisim": relations.strong_bisimilarity,
}


def queried(direction, p, q):
    """The pairs a check in ``direction`` queries, as the CLI lists them."""
    return [(p, q), (q, p)] if direction == "equivalence" else [(p, q)]


def library_verdict(lts, notion, direction, p, q):
    if notion == "contrasim":
        decide = decide_equivalence if direction == "equivalence" else decide_preorder
        return decide(lts, p, q)
    pairs = queried(direction, p, q)
    if notion in ORACLES:
        related = ORACLES[notion](lts)
        return all(pair in related for pair in pairs)
    if notion == "naive-contrasim-1step":
        return all(naive_single_step_preorder(lts, x, y) for x, y in pairs)
    return all(bounded_word_game_preorder(lts, x, y, WORD_BOUND) for x, y in pairs)


@pytest.mark.parametrize("direction", ["preorder", "equivalence"])
@pytest.mark.parametrize("notion", NOTIONS)
@pytest.mark.parametrize(
    "model, lhs, rhs",
    [
        ("phil.aut", PHIL_AUT["Pc"], PHIL_AUT["Pp"]),
        ("instable.aut", INSTABLE_AUT["Pab"], INSTABLE_AUT["Pb"]),
        # the forward check holds and the backward one fails
        ("instable.aut", INSTABLE_AUT["bE"], INSTABLE_AUT["AB"]),
    ],
)
def test_every_notion_matches_library(model, lhs, rhs, notion, direction, tmp_path, capsys):
    lts, _ = parse_aut((FIXTURES / model).read_text())
    out_json = tmp_path / "report.json"
    code = run_main(
        ["check", "--notion", notion, "--direction", direction,
         "--lhs", lhs, "--rhs", rhs, "--word-bound", WORD_BOUND,
         "--emit-certificate", "--emit-json", out_json, FIXTURES / model]
    )
    held = library_verdict(lts, notion, direction, lhs, rhs)
    assert code == (0 if held else 1)

    payload = json.loads(out_json.read_text())
    assert payload["verdict"] is held
    gameless = notion in GAMELESS
    assert (payload["game_positions"] is None) is gameless
    assert (payload["game_moves"] is None) is gameless

    cert = payload["certificate"]
    if notion == "contrasim":
        assert cert["kind"] == ("relation" if held else "formula")
    if cert is not None and cert["kind"] == "relation":
        index = {lts.name_of(s): s for s in range(lts.state_count)}
        pairs = {(index[p], index[q]) for p, q in cert["pairs"]}
        assert (lhs, rhs) in pairs
        if notion == "contrasim" and direction == "equivalence":
            assert (rhs, lhs) in pairs
        check = (
            relations.is_weak_simulation if notion == "weak-sim"
            else relations.is_contrasimulation
        )
        assert check(lts, pairs)
    if cert is not None and cert["kind"] == "formula":
        # The formula comes from the lhs-vs-rhs game, at the root of the
        # first failing direction.
        game, solution, roots = solve_cs_game_locally(lts, queried(direction, lhs, rhs))
        forward = solution.winner[roots[0]] is Player.DEFENDER
        root, left, right = (roots[1], rhs, lhs) if forward else (roots[0], lhs, rhs)
        phi = extract_distinguishing_formula(game, solution, root)
        assert format_formula(phi) == cert["formula"]
        assert hml_satisfies(lts, left, phi)
        assert not hml_satisfies(lts, right, phi)


def _doubled(rng: random.Random) -> Lts:
    """A random system next to a shuffled copy of itself, so that every
    state shares its strong class with at least its copy."""
    base = make_random_lts(rng, n_states=rng.randint(2, 5), acyclic=rng.random() < 0.5)
    n = base.state_count
    place = list(range(2 * n))
    rng.shuffle(place)
    return Lts(2 * n, [
        (place[s + shift], a, place[t + shift])
        for shift in (0, n) for s, a, t in base.transitions
    ])


@pytest.mark.parametrize("seed", range(30))
def test_quotient_verdicts_and_lifted_certificates(seed, tmp_path):
    """On systems whose states merge, every notion's verdict is the
    library's on the unquotiented system, the gameless notions print the
    library's relation, and every certificate re-checks there."""
    rng = random.Random(seed)
    lts = _doubled(rng)
    classes = relations.strong_classes(lts)
    assert max(classes) + 1 < lts.state_count
    model = tmp_path / "model.aut"
    model.write_text(write_aut(lts, 0))
    lhs, rhs = rng.randrange(lts.state_count), rng.randrange(lts.state_count)
    for notion in NOTIONS:
        for direction in ("preorder", "equivalence"):
            out_json = tmp_path / "report.json"
            code = run_main(
                ["check", "--notion", notion, "--direction", direction,
                 "--lhs", lhs, "--rhs", rhs, "--word-bound", WORD_BOUND,
                 "--emit-certificate", "--emit-json", out_json, model]
            )
            held = library_verdict(lts, notion, direction, lhs, rhs)
            assert code == (0 if held else 1), (notion, direction)
            cert = json.loads(out_json.read_text())["certificate"]
            if cert is None:
                continue
            if notion in ORACLES:
                # the greatest relation on the quotient, lifted to the states
                pairs = {(int(p), int(q)) for p, q in cert["pairs"]}
                assert pairs == ORACLES[notion](lts)
                assert relations.is_weak_simulation(lts, pairs)
                continue
            # contrasim is decided on the model, so its certificate is the
            # model game's own
            game, solution, roots = solve_cs_game_locally(lts, queried(direction, lhs, rhs))
            if cert["kind"] == "relation":
                pairs = {(int(p), int(q)) for p, q in cert["pairs"]}
                assert pairs == csgame.extract_contrasimulation(game, solution, roots)
                assert relations.is_contrasimulation(lts, pairs)
                continue
            forward = solution.winner[roots[0]] is Player.DEFENDER
            root, left, right = (roots[1], rhs, lhs) if forward else (roots[0], lhs, rhs)
            phi = extract_distinguishing_formula(game, solution, root)
            assert format_formula(phi) == cert["formula"]
            assert hml_satisfies(lts, left, phi)
            assert not hml_satisfies(lts, right, phi)


def _weakly_doubled(rng: random.Random) -> Lts:
    """A random system in which some states get a copy that steps
    internally into the original and takes some of its steps; some steps
    into an original go to its copy instead.  Each copy is weakly
    bisimilar to its original."""
    base = make_random_lts(rng, n_states=rng.randint(2, 5), acyclic=rng.random() < 0.5)
    n = base.state_count
    copy = {s: n + i for i, s in enumerate(rng.sample(range(n), rng.randint(1, n)))}
    steps = [
        (s, a, copy[t] if t in copy and rng.random() < 0.5 else t)
        for s, a, t in base.transitions
    ]
    for s, c in copy.items():
        steps.append((c, TAU, s))
        steps += [(c, a, t) for src, a, t in base.transitions if src == s and rng.random() < 0.5]
    return Lts(n + len(copy), steps)


WEAK_NOTIONS = ["weak-sim", "weak-bisim", "naive-contrasim-1step", "bounded-word-game"]


@pytest.mark.parametrize("seed", range(30))
def test_weak_quotient_verdicts_and_lifted_certificates(seed, tmp_path):
    """On systems whose states merge weakly but not strongly, every weak
    notion but contrasim is decided on the weak quotient: its verdict is
    the library's on the model, and a printed relation is the model's
    greatest one."""
    rng = random.Random(seed)
    while True:
        lts = _weakly_doubled(rng)
        if max(relations.weak_classes(lts)) < max(relations.strong_classes(lts)):
            break
    model = tmp_path / "model.aut"
    model.write_text(write_aut(lts, 0))
    lhs, rhs = rng.randrange(lts.state_count), rng.randrange(lts.state_count)
    for notion in WEAK_NOTIONS:
        for direction in ("preorder", "equivalence"):
            out_json = tmp_path / "report.json"
            code = run_main(
                ["check", "--notion", notion, "--direction", direction,
                 "--lhs", lhs, "--rhs", rhs, "--word-bound", WORD_BOUND,
                 "--emit-certificate", "--emit-json", out_json, model]
            )
            held = library_verdict(lts, notion, direction, lhs, rhs)
            assert code == (0 if held else 1), (notion, direction)
            cert = json.loads(out_json.read_text())["certificate"]
            assert (cert is not None) == (held and notion in ORACLES)
            if cert is not None:
                pairs = {(int(p), int(q)) for p, q in cert["pairs"]}
                assert pairs == ORACLES[notion](lts)
                assert relations.is_weak_simulation(lts, pairs)


def _work_case(notion, module, work, fixture, lhs, rhs):
    return pytest.param(
        notion, module, work, fixture, lhs, rhs, id=f"{notion}-{'-'.join(work)}"
    )


@pytest.mark.parametrize(
    "notion, module, work, fixture, lhs, rhs",
    [
        _work_case("contrasim", csgame, ["solve_cs_game_locally"],
                   "instable.aut", INSTABLE_AUT["bE"], INSTABLE_AUT["AB"]),
        _work_case("bounded-word-game", csgame, ["solve_cs_game_locally"],
                   "instable.aut", INSTABLE_AUT["bE"], INSTABLE_AUT["AB"]),
        _work_case("naive-contrasim-1step", csgame, ["solve_cs_game_locally"],
                   "instable.aut", INSTABLE_AUT["bE"], INSTABLE_AUT["AB"]),
        _work_case("weak-sim", relations, ["solve_pair_game", "weak_sim_preorder"],
                   "locked.aut", LOCKED_AUT["Pc"], LOCKED_AUT["Pl"]),
    ],
)
def test_equivalence_does_the_work_once(
    notion, module, work, fixture, lhs, rhs, monkeypatch, capsys
):
    """Both directions are read off one game: the set game or its word mode,
    at ``--word-bound`` or, for the naive fixed point, at bound 1, or the
    pair game of weak similarity.  bE is below AB but not above it under each
    game notion, so the verdict, and under contrasim the formula, for the
    second, lost direction come from the game that won the first.  Pc and Pl
    are weakly similar both ways, so their certificate is one refinement
    after one pair game.  Each game is handed one list of both queried
    pairs of classes, the forward one first."""
    calls = []
    for name in work:
        original = getattr(module, name)

        def counted(*args, original=original, **kwargs):
            calls.append((original.__name__, args))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    code = run_main(
        ["check", "--notion", notion, "--direction", "equivalence",
         "--lhs", lhs, "--rhs", rhs, "--word-bound", 2,
         "--emit-certificate", FIXTURES / fixture]
    )
    assert [name for name, _ in calls] == work
    pairs = calls[0][1][1]
    assert pairs == [pairs[0], pairs[0][::-1]]
    out = capsys.readouterr().out
    if notion == "weak-sim":
        assert (code, out.count("relation: ")) == (0, 1)
    else:
        assert code == 1
        assert "forward:   holds" in out and "backward:  fails" in out
        assert out.count("formula: ") == (notion == "contrasim")


# -- certificates through the CLI --------------------------------------------------


def test_failing_certificate_formula_separates_processes(locked, tmp_path, capsys):
    """The emitted formula must hold at the lhs and fail at the rhs."""
    lts, pc, pl = locked
    out_json = tmp_path / "report.json"
    run_main(
        ["check", "--notion", "contrasim", "--lhs", "Pc", "--rhs", "Pl",
         "--emit-certificate", "--emit-json", out_json, FIXTURES / "locked.ccs"]
    )
    payload = json.loads(out_json.read_text())
    assert payload["certificate"]["kind"] == "formula"
    rendered = payload["certificate"]["formula"]
    # the known separating observation refusal, satisfied by Pc only
    specific = DelayNor((DelayObs(act("op"), DelayObs(act("aEats"), TRUTH)),))
    assert hml_satisfies(lts, pc, specific) and not hml_satisfies(lts, pl, specific)
    assert rendered.startswith("<e>~(")


def test_deep_chain_certificate(tmp_path, capsys):
    """A 3,000-step a-chain ending in b against one ending in c: the formula
    is 3,000 observations deep, far past the recursion limit."""
    n = 3000
    chain = tmp_path / "chain.aut"
    chain.write_text(two_chains_aut(n))
    lhs, rhs = 0, n + 1

    code = run_main(
        ["check", "--lhs", lhs, "--rhs", rhs, "--emit-certificate", chain]
    )
    assert code == 1
    match = re.search(r"^formula: (.+)$", capsys.readouterr().out, re.MULTILINE)
    assert match is not None

    lts, _ = parse_aut(chain.read_text())
    game, solution, (root,) = solve_cs_game_locally(lts, [(lhs, rhs)])
    phi = extract_distinguishing_formula(game, solution, root)
    assert format_formula(phi) == match.group(1)
    assert hml_satisfies(lts, lhs, phi)
    assert not hml_satisfies(lts, rhs, phi)


def test_deep_ccs_chain_certificate(tmp_path, capsys):
    """The CCS twin of the 3,000-step chain: parsing, expansion and state
    names take no recursion either."""
    n = 3000
    chain = tmp_path / "chain.ccs"
    chain.write_text(f"L = {'a.' * n}b.0;\nR = {'a.' * n}c.0;\n")

    code = run_main(["check", "--lhs", "L", "--rhs", "R", "--emit-certificate", chain])
    assert code == 1
    match = re.search(r"^formula: (.+)$", capsys.readouterr().out, re.MULTILINE)
    assert match is not None

    lts, (lhs, rhs) = expand_ccs_roots(parse_ccs(chain.read_text()), ["L", "R"])
    assert lts.state_count == 2 * n + 3
    game, solution, (root,) = solve_cs_game_locally(lts, [(lhs, rhs)])
    phi = extract_distinguishing_formula(game, solution, root)
    assert format_formula(phi) == match.group(1)
    assert hml_satisfies(lts, lhs, phi)
    assert not hml_satisfies(lts, rhs, phi)


def test_gameless_notions_on_long_chain(tmp_path, capsys):
    """300-step chains (603 states) under the three gameless notions and
    the naive one, once gameless too, where re-sweeping every remaining pair
    after each deletion took minutes; a holding weak-sim check prints the
    greatest weak simulation, which is computed whole, outside the position
    budget that bounds its game."""
    n = 300
    chain = tmp_path / "chain.aut"
    chain.write_text(two_chains_aut(n))
    for notion in ("weak-sim", "weak-bisim", "strong-bisim", "naive-contrasim-1step"):
        code = run_main(
            ["check", "--lhs", 0, "--rhs", n + 1, "--notion", notion,
             "--direction", "equivalence", chain]
        )
        assert code == 1, notion

    twins = tmp_path / "twins.aut"
    twins.write_text(two_chains_aut(n, ("b", "b")))
    capsys.readouterr()
    code = run_main(
        ["check", "--lhs", 0, "--rhs", n + 1, "--notion", "weak-sim",
         "--emit-certificate", "--max-positions", 8 * n, twins]
    )
    assert code == 0
    line = re.search(r"^relation: (.+)$", capsys.readouterr().out, re.MULTILINE)
    assert line is not None
    pairs = {(int(p), int(q)) for p, q in re.findall(r"\((\d+), (\d+)\)", line.group(1))}
    assert (0, n + 1) in pairs
    lts, _ = parse_aut(twins.read_text())
    assert relations.is_weak_simulation(lts, pairs)


def test_holding_certificate_is_sorted_relation(tmp_path):
    out_json = tmp_path / "report.json"
    run_main(
        ["check", "--notion", "contrasim", "--direction", "equivalence",
         "--lhs", "Pc", "--rhs", "Pp", "--emit-certificate",
         "--emit-json", out_json, FIXTURES / "phil.ccs"]
    )
    payload = json.loads(out_json.read_text())
    cert = payload["certificate"]
    assert cert["kind"] == "relation"
    pairs = [tuple(p) for p in cert["pairs"]]
    assert ("Pc", "Pp") in pairs and ("Pp", "Pc") in pairs
    assert len(set(pairs)) == len(pairs)


# -- JSON report --------------------------------------------------------------------


def sample_report(verdict=True):
    return CheckReport(
        verdict=verdict,
        notion="contrasim",
        direction="preorder",
        lhs="Pc",
        rhs="Pp",
        forward=verdict,
        backward=None,
        certificate=Certificate(kind="formula", formula="<e>~()"),
        game_positions=10,
        game_moves=20,
        solve_ms=1.5,
        total_ms=2.0,
    )


def test_report_json_schema_and_key_order():
    payload = json.loads(report_json(sample_report()))
    assert list(payload) == JSON_FIELDS
    assert payload["verdict"] is True
    assert json.loads(report_json(sample_report(False)))["verdict"] is False


def test_report_json_deterministic():
    assert report_json(sample_report()) == report_json(sample_report())


def test_cli_json_stable_across_runs(tmp_path):
    """Everything except the wall-clock solve time is run-independent."""
    outputs = []
    for name in ("one.json", "two.json"):
        path = tmp_path / name
        run_main(
            ["check", "--lhs", "Pc", "--rhs", "Pp", "--direction", "equivalence",
             "--emit-certificate", "--emit-json", path, FIXTURES / "phil.ccs"]
        )
        payload = json.loads(path.read_text())
        payload["solve_ms"] = None
        outputs.append(json.dumps(payload, sort_keys=False))
    assert outputs[0] == outputs[1]


def test_json_fields_present_for_oracle_notions(tmp_path):
    path = tmp_path / "oracle.json"
    run_main(
        ["check", "--lhs", "1", "--rhs", "2", "--notion", "weak-sim",
         "--emit-json", path, FIXTURES / "phil.aut"]
    )
    payload = json.loads(path.read_text())
    assert list(payload) == JSON_FIELDS
    assert payload["game_positions"] is None and payload["game_moves"] is None


# -- DOT export -----------------------------------------------------------------------

DOT_NODE = re.compile(r'^  n(\d+) \[shape=(box|circle), label="(?:[^"\\]|\\.)*"(?:, peripheries=2)?\];$')
DOT_EDGE = re.compile(r"^  n(\d+) -> n(\d+);$")


def lint_dot(text: str) -> tuple[int, int]:
    """Minimal DOT grammar check; returns (node count, edge count)."""
    lines = text.splitlines()
    assert lines[0] == "digraph game {"
    assert lines[-1] == "}"
    nodes = edges = 0
    for line in lines[1:-1]:
        node = DOT_NODE.match(line)
        edge = DOT_EDGE.match(line)
        assert node or edge, f"unparseable DOT line: {line!r}"
        if node:
            nodes += 1
        else:
            edges += 1
    return nodes, edges


def drawn_counts(text: str) -> tuple[int, int]:
    """The nodes of a drawing and its edges less self-loops: a query's
    ``game_positions`` and ``game_moves``, since each frontier position is
    drawn as a defender circle with one move to itself."""
    nodes, edges = lint_dot(text)
    looped = re.findall(r"^  n(\d+) -> n\1;$", text, re.MULTILINE)
    assert all(f"  n{i} [shape=circle" in text for i in looped)
    return nodes, edges - len(looped)


def test_empty_game_renders_header_only():
    graph = GameGraph([], [])
    assert export_game_dot(graph, []) == "digraph game {\n}\n"


def test_dot_export_of_example_game(phil):
    lts, pc, pp = phil
    game = build_cs_game(lts, pc, pp)
    labels = [format_position(lts, pos) for pos in game.positions]
    text = export_game_dot(game.graph, labels)
    nodes, edges = lint_dot(text)
    assert nodes == game.graph.position_count
    assert edges == game.graph.move_count
    # attacker positions are boxes, defender positions circles
    assert f"n{game.graph.initial} [shape=box" in text
    defender_idx = next(
        i for i, owner in enumerate(game.graph.owner) if owner is Player.DEFENDER
    )
    assert f"n{defender_idx} [shape=circle" in text


def test_dot_labels_escape_quotes():
    graph = GameGraph([Player.ATTACKER], [[]])
    text = export_game_dot(graph, ['say "hi" \\ there'])
    lint_dot(text)
    assert '\\"hi\\"' in text


@pytest.mark.parametrize("notion", ["contrasim", "bounded-word-game", "naive-contrasim-1step"])
def test_cli_writes_dot_file(notion, tmp_path):
    path = tmp_path / "game.dot"
    run_main(
        ["check", "--lhs", "Pab", "--rhs", "Pb", "--notion", notion,
         "--word-bound", "2", "--emit-game-dot", path, FIXTURES / "instable.ccs"]
    )
    lint_dot(path.read_text())


def test_game_counts_local_and_full(locked, tmp_path):
    """A failing check counts the part of the game it explored, with or
    without --emit-game-dot, and the drawing is that part, smaller than the
    whole game."""
    lts, pc, pl = locked
    full = build_cs_game(lts, pc, pl).graph
    args = ["check", "--lhs", "Pc", "--rhs", "Pl", "--emit-certificate", FIXTURES / "locked.ccs"]
    local_json, drawn_json, dot = tmp_path / "local.json", tmp_path / "drawn.json", tmp_path / "g.dot"
    assert run_main(args + ["--emit-json", local_json]) == 1
    assert run_main(args + ["--emit-json", drawn_json, "--emit-game-dot", dot]) == 1
    local, drawn = json.loads(local_json.read_text()), json.loads(drawn_json.read_text())
    counts = ("game_positions", "game_moves")
    assert [drawn[key] for key in counts] == [local[key] for key in counts]
    assert drawn_counts(dot.read_text()) == (local["game_positions"], local["game_moves"])
    assert local["game_positions"] < full.position_count
    assert local["game_moves"] < full.move_count


FIXTURE_PAIRS = [
    ("phil.ccs", "Pc", "Pp"),
    ("locked.ccs", "Pc", "Pl"),
    ("instable.ccs", "Pab", "Pb"),
    ("phil.aut", PHIL_AUT["Pc"], PHIL_AUT["Pp"]),
    ("locked.aut", LOCKED_AUT["Pc"], LOCKED_AUT["Pl"]),
    ("instable.aut", INSTABLE_AUT["Pab"], INSTABLE_AUT["Pb"]),
]


@pytest.mark.parametrize("direction", ["preorder", "equivalence"])
@pytest.mark.parametrize(
    "model, lhs, rhs", FIXTURE_PAIRS + [(model, rhs, lhs) for model, lhs, rhs in FIXTURE_PAIRS]
)
def test_game_dot_only_draws(model, lhs, rhs, direction, tmp_path, capsys):
    """--emit-game-dot changes no verdict, certificate or count: stdout is
    the same without it once times are masked, and so is the JSON less
    solve_ms.  The drawing is the game the query solved."""
    args = ["check", "--lhs", lhs, "--rhs", rhs, "--direction", direction,
            "--emit-certificate", FIXTURES / model]
    dot = tmp_path / "g.dot"
    runs = []
    for extra in ([], ["--emit-game-dot", dot]):
        report = tmp_path / f"report{len(runs)}.json"
        code = run_main(args + ["--emit-json", report] + extra)
        out = re.sub(r"[0-9.]+ ms", "_ ms", capsys.readouterr().out)
        payload = json.loads(report.read_text())
        del payload["solve_ms"]
        runs.append((code, out, payload))
    assert runs[0] == runs[1]
    payload = runs[1][2]
    assert drawn_counts(dot.read_text()) == (payload["game_positions"], payload["game_moves"])


def test_drawing_fits_the_budget_its_query_fits(tmp_path, capsys):
    """The philosopher check explores 34 positions, and its drawing is
    that game, so it fits a budget of 34; the whole game has 119."""
    dot = tmp_path / "g.dot"
    code = run_main(["check", "--lhs", "1", "--rhs", "2", "--max-positions", "34",
                     "--emit-game-dot", dot, FIXTURES / "phil.aut"])
    assert code == 0
    assert lint_dot(dot.read_text())[0] == 34


@pytest.mark.parametrize("notion", ["contrasim", "bounded-word-game", "naive-contrasim-1step"])
def test_drawing_builds_no_second_game(notion, monkeypatch, tmp_path, capsys):
    """A drawn query expands one game, the one it solves: with
    build_cs_game made to fail, its exit code, report and drawing are
    those of a run without the patch."""
    args = ["check", "--lhs", "1", "--rhs", "2", "--notion", notion, "--word-bound", "3",
            "--direction", "equivalence", "--emit-certificate", FIXTURES / "phil.aut"]

    def drawn_run(dot):
        code = run_main(args + ["--emit-game-dot", dot])
        return code, re.sub(r"[0-9.]+ ms", "_ ms", capsys.readouterr().out), dot.read_text()

    def failing(*_):
        raise AssertionError("a second game")

    plain = drawn_run(tmp_path / "plain.dot")
    expanded = []
    expander = csgame._expander
    monkeypatch.setattr(csgame, "_expander", lambda *a: expanded.append(a) or expander(*a))
    monkeypatch.setattr(csgame, "build_cs_game", failing)
    assert drawn_run(tmp_path / "patched.dot") == plain
    assert len(expanded) == 1


PHIL2 = (
    "L = (pla.spa.aEatsa.0 | pla.spa.bEatsa.0 | 'pla.0 | opa.'spa.0) \\ {pla, spa}"
    " | (plb.spb.aEatsb.0 | plb.spb.bEatsb.0 | opb.'plb.0 | 'spb.0) \\ {plb, spb};\n"
    "R = (pla.opa.spa.aEatsa.0 | pla.opa.spa.bEatsa.0 | 'pla.0 | 'spa.0) \\ {pla, spa}"
    " | (plb.spb.aEatsb.0 | plb.spb.bEatsb.0 | opb.'plb.0 | 'spb.0) \\ {plb, spb};\n"
)


def test_failing_check_prints_only_its_roots(monkeypatch, tmp_path, capsys):
    """Two philosopher copies have 152 states, but a failing bisimilarity
    check prints only lhs and rhs, so no other state's term is printed."""
    model = tmp_path / "phil2.ccs"
    model.write_text(PHIL2)
    rendered = []
    render = ccs._render

    def recording(term):
        rendered.append(term)
        return render(term)

    monkeypatch.setattr(ccs, "_render", recording)
    code = run_main(
        ["check", "--notion", "strong-bisim", "--direction", "equivalence",
         "--lhs", "R", "--rhs", "L", "--emit-certificate", model]
    )
    assert code == 1
    assert "lhs:       R\nrhs:       L\n" in capsys.readouterr().out
    assert set(rendered) <= {ccs.Ident("L"), ccs.Ident("R")}


def test_contrasim_relation_is_the_models_own(tmp_path, capsys):
    """L and R share a strong class.  The gameless notions print their
    greatest relation, which relates every member of it; contrasim prints
    the relation its game on the model commits to, without (L, L)."""
    model = tmp_path / "twin.ccs"
    model.write_text("L = a.b.0;\nR = a.b.0;\n")
    for notion, relation in [
        ("contrasim", "[(L, R), (R, L), (b.0, b.0), (0, 0)]"),
        ("weak-bisim", "[(L, L), (L, R), (R, L), (R, R), (b.0, b.0), (0, 0)]"),
    ]:
        capsys.readouterr()
        assert run_main(["check", "--notion", notion, "--lhs", "L", "--rhs", "R",
                         "--emit-certificate", model]) == 0
        assert "relation: " + relation in capsys.readouterr().out.splitlines()


def test_word_game_counts_are_the_quotients(locked, tmp_path):
    """The word game is played on the weak quotient, which is smaller than
    the strong quotient for locked.ccs: the counts are those of the local
    game on it, and so is the drawing, smaller than its whole game."""
    lts, pc, pl = locked
    classes = relations.weak_classes(lts)
    quotient = lts.quotient(classes)
    assert quotient.state_count < max(relations.strong_classes(lts)) + 1
    game, _, _ = solve_cs_game_locally(quotient, [(classes[pc], classes[pl])], word_bound=2)
    model_game, _, _ = solve_cs_game_locally(lts, [(pc, pl)], word_bound=2)
    assert game.graph.position_count < model_game.graph.position_count
    whole = build_cs_game(quotient, classes[pc], classes[pl], word_bound=2).graph
    report, dot = tmp_path / "r.json", tmp_path / "g.dot"
    run_main(["check", "--lhs", "Pc", "--rhs", "Pl", "--notion", "bounded-word-game",
              "--word-bound", 2, "--emit-json", report, "--emit-game-dot", dot,
              FIXTURES / "locked.ccs"])
    counts = json.loads(report.read_text())
    assert (counts["game_positions"], counts["game_moves"]) == (
        game.graph.position_count, game.move_count
    )
    assert drawn_counts(dot.read_text()) == (counts["game_positions"], counts["game_moves"])
    assert counts["game_positions"] < whole.position_count


def test_dot_export_rejected_for_gameless_notions(tmp_path, capsys):
    code = run_main(
        ["check", "--lhs", "1", "--rhs", "2", "--notion", "weak-sim",
         "--emit-game-dot", tmp_path / "x.dot", FIXTURES / "phil.aut"]
    )
    assert code == 2


# -- the collector is paused during a check ---------------------------------------------


@pytest.fixture
def collector():
    """Restores the collector's setting after a test that changes it."""
    collecting = gc.isenabled()
    yield
    if collecting:
        gc.enable()
    else:
        gc.disable()


def test_check_runs_with_the_collector_paused(monkeypatch, collector, capsys):
    seen = []

    def recording(args):
        seen.append(gc.isenabled())
        return run_check(args)

    monkeypatch.setattr("contrasim.cli.run_check", recording)
    gc.enable()
    assert run_main(["check", "--lhs", "1", "--rhs", "2", FIXTURES / "phil.aut"]) == 0
    assert seen == [False]
    assert gc.isenabled()


def _broken(args):
    raise RuntimeError("broken invariant")


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize(
    "args, run_check_replaced, code",
    [
        (["--lhs", "1", "--rhs", "2", FIXTURES / "phil.aut"], None, 0),
        (["--lhs", "Pc", "--rhs", "Pl", FIXTURES / "locked.ccs"], None, 1),
        (["--lhs", "1", "--rhs", "2", "--max-positions", 30, FIXTURES / "phil.aut"], None, 2),
        (["--lhs", "1", "--rhs", "2", FIXTURES / "phil.aut"], _broken, 3),
    ],
)
def test_main_restores_the_callers_collector(
    args, run_check_replaced, code, collecting, monkeypatch, collector, capsys
):
    if run_check_replaced is not None:
        monkeypatch.setattr("contrasim.cli.run_check", run_check_replaced)
    if collecting:
        gc.enable()
    else:
        gc.disable()
    assert run_main(["check", *args]) == code
    assert gc.isenabled() is collecting


def test_checks_leave_no_cyclic_garbage(tmp_path, collector, capsys):
    """Pausing the collector is safe because a check leaves nothing for it
    to free: once the first call has built the parser, every object a check
    makes is freed by reference counting, ``--emit-json``'s report
    included."""
    n = 600
    chain = tmp_path / "chain.aut"
    chain.write_text(two_chains_aut(n))
    chain_ccs = tmp_path / "chain.ccs"
    chain_ccs.write_text(f"L = {'a.' * n}b.0;\nR = {'a.' * n}c.0;\n")
    phil2 = tmp_path / "phil2.ccs"
    phil2.write_text(PHIL2)
    queries = [
        ["--lhs", 0, "--rhs", n + 1, chain],
        ["--lhs", "L", "--rhs", "R", chain_ccs],
        ["--lhs", "R", "--rhs", "L", "--direction", "equivalence", phil2],
    ]
    for name in FIXTURE_TEXTS:
        lhs, rhs = _designators(name)[1:3] if name.endswith(".aut") else _designators(name)[:2]
        for notion in NOTIONS:
            queries.append(
                ["--lhs", lhs, "--rhs", rhs, "--notion", notion, "--direction", "equivalence",
                 "--word-bound", 2, FIXTURES / name]
            )

    gc.disable()
    run_main(["check", *queries[0]])
    for query in queries:
        gc.collect()
        run_main(["check", *query, "--emit-certificate"])
        assert gc.collect() == 0, query
    report = tmp_path / "report.json"
    for query in queries[:1] + queries[-1:]:
        gc.collect()
        run_main(["check", *query, "--emit-certificate", "--emit-json", report])
        assert gc.collect() == 0, query


# -- robustness: mutated fixtures ------------------------------------------------------

FIXTURE_TEXTS = {path.name: path.read_text() for path in sorted(FIXTURES.iterdir())}
MUTATION_TOKENS = [
    "", "(", ")", ",", '"', ".", "|", "+", "\\", "{", "}", ";", "=", "'", " ", "\n",
    "0", "1", "-1", "99", "a", "tau", "des", "X", "Pc", "(X | X)",
    # a digit that is not ASCII, and a number past the digit limit of int()
    "\u0661", "1" * 5000,
]


def _designators(name: str) -> list[str]:
    """The roots a fixture names, then some that no fixture has."""
    if name.endswith(".aut"):
        return [str(s) for s in range(11)] + ["-1", "99", "Pc"]
    defined = re.findall(r"^(\w+) =", FIXTURE_TEXTS[name], re.MULTILINE)
    return defined + ["X", "Missing", "0"]


@st.composite
def mutated_query(draw):
    """A fixture's text with a few spans inserted, deleted or replaced, and
    a pair of roots mostly among those it names."""
    name = draw(st.sampled_from(sorted(FIXTURE_TEXTS)))
    text = FIXTURE_TEXTS[name]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        j = min(len(text), i + draw(st.integers(0, 8)))
        text = text[:i] + draw(st.sampled_from(MUTATION_TOKENS)) + text[j:]
    roots = st.sampled_from(_designators(name))
    return name, text, draw(roots), draw(roots)


@given(
    mutated_query(),
    st.sampled_from(NOTIONS),
    st.sampled_from(["preorder", "equivalence"]),
    st.integers(1, 3),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_mutated_fixtures_get_a_verdict_or_a_clean_error(
    query, notion, direction, word_bound, certify
):
    """Whatever the input, the command line exits 0, 1 or 2, never 3, and
    prints no traceback."""
    name, text, lhs, rhs = query
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / name
        model.write_text(text)
        args = ["check", "--notion", notion, "--direction", direction, "--lhs", lhs,
                "--rhs", rhs, "--word-bound", word_bound, "--max-states", 300,
                "--max-positions", 20_000, model]
        if certify:
            args.append("--emit-certificate")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_main(args)
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
