import random

import pytest
from hypothesis import given, strategies as st

from contrasim.aut import parse_aut, write_aut
from contrasim.errors import ParseError, StateBudgetError
from contrasim.lts import Lts, TAU, act

from conftest import fixture_text, make_random_lts


def test_minimal_file():
    lts, initial = parse_aut('des (0,1,2)\n(0,"a",1)\n')
    assert initial == 0
    assert lts.state_count == 2
    assert lts.transitions == ((0, act("a"), 1),)


@pytest.mark.parametrize("label", ["tau", "i"])
def test_internal_label_conventions(label):
    lts, _ = parse_aut(f'des (0,1,2)\n(0,"{label}",1)\n')
    assert lts.transitions[0][1] is TAU


def test_whitespace_tolerated():
    lts, initial = parse_aut('des ( 1 , 1 , 3 )\n( 0 , "go" , 2 )\n\n')
    assert initial == 1
    assert lts.transitions == ((0, act("go"), 2),)


def test_records_tolerate_surrounding_whitespace_blank_lines_and_crlf():
    plain = 'des (0,3,3)\n(0,"a",1)\n(1,"tau",2)\n(2,"b",0)\n'
    spaced = (
        'des (0,3,3)\r\n  (0,"a",1)\t\r\n\r\n   \r\n\t( 1 , "tau" ,2)  \r\n\n(2,"b",0)\r\n'
    )
    expected = ((0, act("a"), 1), (1, TAU, 2), (2, act("b"), 0))
    for text in (plain, spaced):
        lts, initial = parse_aut(text)
        assert (initial, lts.state_count, lts.transitions) == (0, 3, expected)


@pytest.mark.parametrize(
    "text, line, record",
    [
        ('des (0,2,2)\n\n  (0,"a",1)  \n   (0, a, 1)\t\n', 4, "(0, a, 1)"),
        ('des (0,2,2)\r\n(0,"a",1)\r\n\r\n (0,"a",1) x\r\n', 4, '(0,"a",1) x'),
        ('\n des (0,1,2) \n\t"a"\n', 3, '"a"'),
    ],
)
def test_malformed_record_message_and_line(text, line, record):
    """The record is reported stripped, at its line in the file."""
    with pytest.raises(ParseError) as err:
        parse_aut(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: malformed transition record {record!r}"


def test_empty_transition_lts_writes_header_only():
    assert write_aut(Lts(1, []), 0) == "des (0,0,1)\n"


def test_instable_fixture_round_trips():
    text = fixture_text("instable.aut")
    lts, initial = parse_aut(text)
    assert lts.state_count == 5 and len(lts.transitions) == 5
    assert write_aut(lts, initial) == text


def test_expanded_instable_process_writes_four_records(instable_single):
    lts, initial = instable_single
    lines = write_aut(lts, initial).splitlines()
    assert len(lines) == 5  # header plus one line per transition
    assert lines[0] == "des (0,4,4)"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "header"),
        ("des (0,0)\n", "header"),
        ("dex (0,0,1)\n", "header"),
        ("des (1,0,1)\n", "initial"),
        ('des (0,1,2)\n(0,"a",2)\n', "state count"),
        ('des (0,2,2)\n(0,"a",1)\n', "declares 2 transitions"),
        ('des (0,1,2)\n(0,a,1)\n', "malformed transition"),
        ('des (0,1,2)\n(0,"a b",1)\n', "whitespace"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_aut(text)
    assert fragment in str(err.value)


def test_declared_state_count_is_budgeted():
    """The budget applies to the header's count, before any record is read:
    the malformed record after it is never reached."""
    text = 'des (0,1,1000000)\n(0,broken,1)\n'
    with pytest.raises(StateBudgetError) as err:
        parse_aut(text, max_states=10_000)
    assert err.value.budget == 10_000
    assert "1000000" in str(err.value)
    lts, _ = parse_aut('des (0,1,2)\n(0,"a",1)\n', max_states=2)
    assert lts.state_count == 2


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_aut('des (0,2,2)\n(0,"a",1)\n(0,broken,1)\n')
    assert err.value.line == 3


def test_bad_label_fails_at_its_first_line():
    with pytest.raises(ParseError) as err:
        parse_aut('des (0,3,2)\n(0,"a",1)\n(0,"a b",1)\n(1,"a b",0)\n')
    assert err.value.line == 3
    assert "whitespace" in str(err.value)


def test_repeated_label_is_one_action():
    lts, _ = parse_aut('des (0,4,2)\n(0,"a",1)\n(1,"a",0)\n(0,"i",0)\n(1,"tau",1)\n')
    (_, a0, _), (_, a1, _), (_, i, _), (_, tau, _) = lts.transitions
    assert a0 == act("a") and a1 is a0
    assert i is TAU and tau is TAU


@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_round_trip_is_identity(seed, n_states):
    lts = make_random_lts(random.Random(seed), n_states=n_states)
    initial = seed % n_states
    parsed, parsed_initial = parse_aut(write_aut(lts, initial))
    assert parsed_initial == initial
    assert parsed.state_count == lts.state_count
    assert sorted(parsed.transitions, key=str) == sorted(lts.transitions, key=str)
