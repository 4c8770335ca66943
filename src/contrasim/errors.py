"""Exception types shared across the package."""


class ParseError(ValueError):
    """Raised on malformed `.aut` or `.ccs` input.

    Carries the 1-based source line (and column, where known).
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = f"line {line}, column {column}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class StateBudgetError(RuntimeError):
    """Raised when a state-space expansion, or the state count an `.aut`
    header declares, exceeds the state budget."""

    def __init__(self, budget: int, declared: int | None = None):
        self.budget = budget
        if declared is None:
            where = "during expansion"
        else:
            where = f"by an .aut header declaring {declared} states"
        super().__init__(
            f"state budget of {budget} states exceeded {where}; "
            f"raise max_states if the system really is this large"
        )


class PositionBudgetError(RuntimeError):
    """Raised when a game, the set game, its word mode or a pair game,
    grows past the position budget, or, given ``pairs`` (``at_least`` if a
    lower bound), when a relation certificate would name more pairs than it."""

    def __init__(self, budget: int, pairs: int | None = None, at_least: bool = False):
        self.budget = budget
        super().__init__(
            f"position budget of {budget} game positions exceeded; "
            f"raise max_positions if the game really is this large"
            if pairs is None
            else f"the relation certificate, not a game, exceeds the position budget of "
            f"{budget}: it names {'at least ' if at_least else ''}{pairs} pairs; "
            f"raise max_positions to print it"
        )
