"""Exception hierarchy shared by every module of the workbench."""


class LbisimError(Exception):
    """Base class for all errors raised by this package."""


class CrossCalculusError(LbisimError):
    """Two objects tagged with different calculi were combined."""


class MalformedTermError(LbisimError):
    """A term violates a well-formedness rule of its calculus."""


class ParseError(LbisimError):
    """Syntax error, with 1-based source position."""

    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class MAUnsupportedError(LbisimError):
    """The requested operation is undefined for mobile ambients."""


class IncompleteSubstitutionError(LbisimError):
    """A substitution fails to close the variables it must close."""


class DivergenceBudgetExceededError(LbisimError):
    """A game or state-space exploration exceeded its size budget.

    A game also reports what grew: `unexpanded`, its stored open pairs
    whose moves were not played yet, and `largest_state`, the printed
    length of its stored state of most syntax nodes."""

    def __init__(self, budget, explored, unexpanded=None, largest_state=None):
        grew = ""
        if unexpanded is not None:
            grew = (f", with {unexpanded} pairs not yet expanded and a "
                    f"largest state of {largest_state} characters")
        super().__init__(
            f"exploration exceeded the budget of {budget} "
            f"(reached {explored}){grew}; the symbolic state space may be "
            "infinite"
        )
        self.budget = budget
        self.explored = explored
        self.unexpanded = unexpanded
        self.largest_state = largest_state

