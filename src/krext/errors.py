"""Exception taxonomy shared by the whole package.

Contract violations (bad inputs, broken preconditions) and solver
failures (an optimizer that could not certify its answer) are kept
apart so callers, and in particular the command line driver, can map
them to distinct exit codes.  Every solver tolerance passes through
check_tol, the one place that says which tolerances are valid.
"""

import math

# near double precision the checks fail on valid input from rounding alone: w1 on
# 100 seeded equal-mass pairs failed 67 times at 1e-16, never at 1e-15
MIN_TOL = 1e-15


class ContractError(ValueError):
    """An input violates a documented precondition or invariant."""


class MalformedInputError(ContractError):
    """Structurally broken input: wrong shape, wrong type, unknown key."""


class SolverError(RuntimeError):
    """An optimizer failed to produce a certified answer."""


def check_tol(tol: float, name: str = "tol") -> float:
    """Return tol if it is finite and in [MIN_TOL, 1); raise ContractError naming it otherwise."""
    # every tolerance is relative: 1 or more would accept any answer
    if not (math.isfinite(tol) and MIN_TOL <= tol < 1.0):
        raise ContractError(f"{name} must be a finite tolerance in [{MIN_TOL:g}, 1), got {tol}")
    return tol


class JsonParseError(ValueError):
    """A file is not valid JSON at all; carries position information.

    Distinct from MalformedInputError (valid JSON, wrong schema) so the
    command line can report the parse position and exit differently.
    """

    def __init__(self, path: str, lineno: int, colno: int, reason: str):
        super().__init__(f"{path}:{lineno}:{colno}: {reason}")
        self.path = path
        self.lineno = lineno
        self.colno = colno
        self.reason = reason
