"""Exception hierarchy.

Two top-level families, mapped to CLI exit codes: InputError (bad graph
descriptions, bad expressions, out-of-domain requests) exits 2,
NumericalError (solver failures) exits 1.
"""

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
