"""Exception hierarchy.

Two top-level families, mapped to CLI exit codes: InputError (bad graph
descriptions, bad expressions, out-of-domain requests) exits 2,
NumericalError (solver failures) exits 1.  ``_index`` is the check of an
integer argument that raises InputError.
"""

import operator

__all__ = [
    "QgError",
    "InputError",
    "NumericalError",
    "GraphError",
    "ExpressionError",
    "TurningPointError",
    "SingularPointError",
]


class QgError(Exception):
    pass


class InputError(QgError):
    pass


class NumericalError(QgError):
    pass


class GraphError(InputError):
    """Invalid graph description."""


class ExpressionError(InputError):
    """Syntax or identifier error in a potential expression."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class TurningPointError(InputError):
    """WKB requested below the classical barrier (k^2 <= max w on an edge)."""


class SingularPointError(NumericalError):
    """The transition-matrix parametrization is singular at this k."""


def _index(value, least: int, message: str) -> int:
    """``value`` as an int by ``operator.index``, which refuses 2.5, "2" and
    None; InputError(message) unless it is an integer >= ``least``."""
    try:
        i = operator.index(value)
    except TypeError:
        raise InputError(message) from None
    if i < least:
        raise InputError(message)
    return i
