import pytest

from contrasim.hml import DelayNor, DelayObs, TRUTH, format_formula, hml_satisfies
from contrasim.lts import Lts, TAU, act

OP, A_EATS = act("op"), act("aEats")

LOCKOUT_FORMULA = DelayNor((DelayObs(OP, DelayObs(A_EATS, TRUTH)),))


def test_every_state_satisfies_truth(phil):
    lts, _, _ = phil
    assert all(hml_satisfies(lts, s, TRUTH) for s in range(lts.state_count))


def test_empty_nor_holds_everywhere(phil):
    lts, _, _ = phil
    empty = DelayNor(())
    assert all(hml_satisfies(lts, s, empty) for s in range(lts.state_count))


def test_lockout_formula_separates_example_systems(locked):
    """After committing internally, the counter-guarded system can refuse the
    op-then-aEats observation; the locked-out system never can."""
    lts, pc, pl = locked
    assert hml_satisfies(lts, pc, LOCKOUT_FORMULA)
    assert not hml_satisfies(lts, pl, LOCKOUT_FORMULA)


def test_delay_obs_follows_delay_steps():
    lts = Lts(3, [(0, TAU, 1), (1, act("a"), 2)])
    assert hml_satisfies(lts, 0, DelayObs(act("a"), TRUTH))
    assert not hml_satisfies(lts, 2, DelayObs(act("a"), TRUTH))


def test_nor_requires_refuting_every_branch():
    lts = Lts(4, [(0, TAU, 1), (0, TAU, 2), (1, act("a"), 3), (2, act("b"), 3)])
    obs_a = DelayObs(act("a"), TRUTH)
    obs_b = DelayObs(act("b"), TRUTH)
    # state 1 refutes b, state 2 refutes a, but no reachable state refutes both
    assert hml_satisfies(lts, 0, DelayNor((obs_a,)))
    assert hml_satisfies(lts, 0, DelayNor((obs_b,)))
    assert not hml_satisfies(lts, 0, DelayNor((obs_a, obs_b)))


def test_observation_of_tau_rejected():
    with pytest.raises(ValueError):
        DelayObs(TAU, TRUTH)


def test_state_index_validated(phil):
    lts, _, _ = phil
    with pytest.raises(IndexError):
        hml_satisfies(lts, lts.state_count, TRUTH)


@pytest.mark.parametrize(
    "formula, rendered",
    [
        (TRUTH, "T"),
        (DelayObs(OP, TRUTH), "<e><op>T"),
        (LOCKOUT_FORMULA, "<e>~(<e><op><e><aEats>T)"),
        (DelayNor(()), "<e>~()"),
        (
            DelayNor((TRUTH, DelayObs(OP, TRUTH))),
            "<e>~(T|<e><op>T)",
        ),
    ],
)
def test_formula_serialization(formula, rendered):
    assert format_formula(formula) == rendered


def _nested(depth: int, bottom=TRUTH):
    phi = bottom
    for _ in range(depth):
        phi = DelayObs(OP, DelayNor((TRUTH, phi)))
    return phi


def test_deep_formulas_compare_hash_and_print_without_recursion():
    """Extracted formulas are thousands of levels deep: equality, hashing
    and ``repr`` must not be bounded by the recursion limit."""
    depth = 5000
    phi, same, other = _nested(depth), _nested(depth), _nested(depth, DelayNor(()))
    assert phi == same and not phi != same
    assert hash(phi) == hash(same) == hash((OP, phi.body))
    assert {phi: "found"}[same] == "found"
    assert phi != other and not phi == other
    prefix = "DelayObs(action=Action(name='op'), body=DelayNor(branches=(Truth(), "
    assert repr(phi) == prefix * depth + "Truth()" + ")))" * depth
