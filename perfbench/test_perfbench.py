"""Checks of the benchmark's generators, checker and traced pipeline.

    python3 -m pytest perfbench

The verdicts the generators pin by construction are cross-checked here
against the fixed-point oracles of ``contrasim.relations`` (and, for the two
deliberately weaker procedures, against the procedures themselves) at each
family's smallest sizes.
"""

import io
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from contrasim import cli, csgame, relations  # noqa: E402
from contrasim.aut import parse_aut  # noqa: E402
from contrasim.ccs import expand_ccs_roots, parse_ccs  # noqa: E402
from contrasim.hml import DelayNor, DelayObs, TRUTH, format_formula  # noqa: E402
from contrasim.lts import act  # noqa: E402

import certcheck  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _aut(text):
    return parse_aut(text)[0]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_blow_fails_both_ways(k):
    text, u, nfa = workloads.blow_model(random.Random(k), k)
    preorder = relations.contrasim_preorder(_aut(text))
    assert (u, nfa) not in preorder
    assert (nfa, u) not in preorder


@pytest.mark.parametrize("k", [1, 2])
def test_phil_shape_is_contrasimilar_but_not_weakly_bisimilar(k):
    text, pc, pp = workloads.phil_model(random.Random(k), k)
    lts = _aut(text)
    preorder = relations.contrasim_preorder(lts)
    assert (pc, pp) in preorder and (pp, pc) in preorder
    assert (pc, pp) not in relations.weak_bisimilarity(lts)


@pytest.mark.parametrize("same_end", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_chains(n, same_end):
    rng = random.Random(n)
    text, lhs, rhs = workloads.chain_aut_model(rng, n, same_end)
    preorder = relations.contrasim_preorder(_aut(text))
    assert ((lhs, rhs) in preorder) is same_end
    assert ((rhs, lhs) in preorder) is same_end
    program = parse_ccs(workloads.chain_ccs_model(rng, n, same_end))
    lts, (lhs, rhs) = expand_ccs_roots(program, ["L", "R"])
    preorder = relations.contrasim_preorder(lts)
    assert ((lhs, rhs) in preorder) is same_end
    assert ((rhs, lhs) in preorder) is same_end


def _notion_verdicts(lts, p, q):
    verdicts = {
        "contrasim": (p, q) in relations.contrasim_preorder(lts),
        "weak-sim": (p, q) in relations.weak_sim_preorder(lts),
        "weak-bisim": (p, q) in relations.weak_bisimilarity(lts),
        "strong-bisim": (p, q) in relations.strong_bisimilarity(lts),
        "naive-contrasim-1step": csgame.naive_single_step_preorder(lts, p, q),
    }
    for bound in (2, 3, 4):
        verdicts[f"bounded-word-game/{bound}"] = csgame.bounded_word_game_preorder(lts, p, q, bound)
    return verdicts


def test_single_copy_verdicts_match_oracles():
    variants = list(workloads.PHIL_VARIANTS)
    text = "".join(
        f"{v} = {workloads.PHIL_VARIANTS[v].format(t='x')} \\ {{plx, spx}};\n" for v in variants
    )
    lts, roots = expand_ccs_roots(parse_ccs(text), variants)
    for x, p in zip(variants, roots):
        for y, q in zip(variants, roots):
            for notion, got in _notion_verdicts(lts, p, q).items():
                expected = workloads.single_copy_verdict(notion.split("/")[0], x, y)
                assert got is expected, (x, y, notion)


def test_two_copy_verdicts_match_oracles():
    workload = workloads.ccs_notions(0)
    two_copies = {q.model for q in workload.queries if q.model.startswith("phil2")}
    assert len(two_copies) == 2
    for model in sorted(two_copies):
        lts, (lhs, rhs) = expand_ccs_roots(parse_ccs(workload.models[model]), ["L", "R"])
        forward = _notion_verdicts(lts, lhs, rhs)
        for query in workload.queries:
            if query.model != model:
                continue
            assert query.direction == "preorder", query.name
            key = query.notion
            if query.word_bound is not None:
                key += f"/{query.word_bound}"
            assert query.expected is forward[key], query.name


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workloads_are_seeded_and_large_enough(name):
    make = workloads.WORKLOADS[name]
    first, again, other = make(3), make(3), make(4)
    assert first == again
    assert first.models != other.models
    assert len(first.queries) >= 100
    assert len({q.name for q in first.queries}) == len(first.queries)
    assert all(q.model in first.models for q in first.queries)
    assert sorted(q.name.split("-")[0] for q in first.queries) == sorted(
        q.name.split("-")[0] for q in other.queries
    )


def test_formula_parser_round_trips_and_rebuilds_shares():
    a, b = act("a"), act("b")
    shared = DelayObs(b, TRUTH)
    formula = DelayNor((DelayObs(a, shared), DelayObs(b, shared), DelayNor(()), TRUTH))
    text = format_formula(formula)
    parsed = certcheck.parse_formula(text)
    assert format_formula(parsed) == text
    assert spans.formula_nodes(parsed) == spans.formula_nodes(formula) == 6


def test_formula_parser_takes_deep_formulas():
    depth = 20_000
    parsed = certcheck.parse_formula("<e><a>" * depth + "<e>~()")
    assert spans.formula_nodes(parsed) == depth + 1


@pytest.mark.parametrize("text", ["", "<e><a>", "<e>~(T", "TT", "<e>~(T,T)", "<e><a"])
def test_formula_parser_rejects_malformed_text(text):
    with pytest.raises(certcheck.CertificateRejected):
        certcheck.parse_formula(text)


def _phil_fixture():
    program = parse_ccs((ROOT / "fixtures" / "phil.ccs").read_text())
    return expand_ccs_roots(program, ["Pc", "Pp"])


def test_relation_parser_maps_ccs_names_back():
    lts, _ = _phil_fixture()
    pairs = {(p, q) for p in range(lts.state_count) for q in range(0, lts.state_count, 3)}
    line = spans._relation_line(lts, pairs)
    assert any(", " in lts.name_of(s) for s in range(lts.state_count))
    assert certcheck.parse_relation(line.removeprefix("relation: "), lts) == pairs


def _cli_output(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_checker_accepts_cli_certificates_and_rejects_tampered_ones():
    phil = str(ROOT / "fixtures" / "phil.ccs")
    locked = str(ROOT / "fixtures" / "locked.ccs")
    holds = workloads.Query("h", "phil.ccs", "Pc", "Pp", True)
    code, out = _cli_output(["check", phil, "--lhs", "Pc", "--rhs", "Pp", "--emit-certificate"])
    lts, (pc, pp) = _phil_fixture()
    line = certcheck.certificate_line(out)
    certcheck.check_certificate(holds, lts, pc, pp, True, True, line)
    with pytest.raises(certcheck.CertificateRejected):
        certcheck.check_certificate(holds, lts, pc, pp, True, True, "relation: [(Pc, Pp)]")

    fails = workloads.Query("f", "locked.ccs", "Pc", "Pl", False)
    code, out = _cli_output(["check", locked, "--lhs", "Pc", "--rhs", "Pl", "--emit-certificate"])
    assert code == 1
    program = parse_ccs(Path(locked).read_text())
    lts, (pc, pl) = expand_ccs_roots(program, ["Pc", "Pl"])
    line = certcheck.certificate_line(out)
    certcheck.check_certificate(fails, lts, pc, pl, False, False, line)
    with pytest.raises(certcheck.CertificateRejected):
        certcheck.check_certificate(fails, lts, pl, pc, False, False, line)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_pipeline_agrees_with_cli(name, tmp_path):
    workload = workloads.WORKLOADS[name](5)
    for file, text in workload.models.items():
        (tmp_path / file).write_text(text)
    small = sorted(workload.queries, key=lambda q: len(workload.models[q.model]))[:12]
    for query in small:
        code, out = _cli_output(query.argv(str(tmp_path)))
        result = spans.traced_check(query, tmp_path, spans.Tracer())
        assert all(result.results) is (code == 0) is query.expected, query.name
        assert result.certificate == certcheck.certificate_line(out), query.name


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    produced = run.layer_metrics(spans.Tracer(), run.Counter(), run.Counter(), 0.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.per_layer_unit(name) for name in produced
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
