"""Reading and writing transition systems in the Aldebaran `.aut` format.

A file consists of a header ``des (<initial>, <#transitions>, <#states>)``
followed by one ``(<src>, "<label>", <dst>)`` record per line.  The labels
``tau`` and ``i`` denote the internal action; everything else is a visible
action name.  Output is ASCII with newline-terminated records and serializes
the internal action as ``tau``.
"""

import re
from typing import Optional

from .errors import ParseError, StateBudgetError
from .lts import Action, Lts, TAU

_HEADER_RE = re.compile(r"^des\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*$")
# matched whole against an unstripped line
_EDGE_RE = re.compile(r'\s*\(\s*(\d+)\s*,\s*"([^"]*)"\s*,\s*(\d+)\s*\)\s*')

_INTERNAL_LABELS = ("tau", "i")


def parse_aut(text: str, max_states: Optional[int] = None) -> tuple[Lts, int]:
    """Parse `.aut` text into an LTS plus its declared initial state.

    A header declaring more than ``max_states`` states raises
    :class:`StateBudgetError` before any transition is read.
    """
    lines = text.splitlines()
    header_idx = None
    for i, line in enumerate(lines):
        if line.strip():
            header_idx = i
            break
    if header_idx is None:
        raise ParseError("empty input, expected a des(...) header")

    m = _HEADER_RE.match(lines[header_idx].strip())
    if m is None:
        raise ParseError(
            f"malformed header {lines[header_idx].strip()!r}, "
            f"expected des (<initial>, <#transitions>, <#states>)",
            line=header_idx + 1,
        )
    initial, n_edges, n_states = (int(g) for g in m.groups())
    if initial >= n_states:
        raise ParseError(
            f"initial state {initial} not below state count {n_states}",
            line=header_idx + 1,
        )
    if max_states is not None and n_states > max_states:
        raise StateBudgetError(max_states, declared=n_states)

    # one Action per distinct label, validated at its first occurrence
    actions = {label: TAU for label in _INTERNAL_LABELS}
    transitions = []
    edge = _EDGE_RE.fullmatch
    for lineno, raw in enumerate(lines[header_idx + 1 :], start=header_idx + 2):
        m = edge(raw)
        if m is None:
            line = raw.strip()
            if not line:
                continue
            raise ParseError(f"malformed transition record {line!r}", line=lineno)
        src, label, dst = m.groups()
        src, dst = int(src), int(dst)
        if src >= n_states or dst >= n_states:
            raise ParseError(
                f"transition ({src}, {label!r}, {dst}) exceeds state count {n_states}",
                line=lineno,
            )
        action = actions.get(label)
        if action is None:
            try:
                action = actions[label] = Action(label)
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from exc
        transitions.append((src, action, dst))

    if len(transitions) != n_edges:
        raise ParseError(
            f"header declares {n_edges} transitions but {len(transitions)} were found"
        )
    return Lts(n_states, transitions), initial


def write_aut(lts: Lts, initial: int) -> str:
    """Serialize an LTS in the format accepted by :func:`parse_aut`."""
    if not (0 <= initial < lts.state_count):
        raise IndexError(f"initial state {initial} outside 0..{lts.state_count - 1}")
    out = [f"des ({initial},{len(lts.transitions)},{lts.state_count})"]
    for src, action, dst in lts.transitions:
        out.append(f'({src},"{action}",{dst})')
    return "\n".join(out) + "\n"
