"""Spectral computations on metric graphs with edge potentials.

The package computes eigenvalues of -psi'' + w psi on a finite metric
graph with standard vertex conditions, via a secular function built from
per-edge 2x2 transition matrices, and cross-checks the spectrum with a
trace formula over periodic orbits, high-energy WKB asymptotics, and an
independent finite-difference discretization.
"""

from .edge import (
    EdgeSolution,
    ThresholdInfo,
    TransitionMatrix,
    edge_profile,
    solve_edge,
    subunitarity_threshold,
    transition_matrix,
    transition_matrix_dk,
    verify_subunitary,
)
from .errors import (
    ExpressionError,
    GraphError,
    InputError,
    NumericalError,
    QgError,
    SingularPointError,
    TurningPointError,
)
from .fd import (
    DiscretizedGraph,
    FdResult,
    build_discretization,
    fd_modes,
    fd_spectrum,
    kirchhoff_defect,
)
from .graph import Edge, MetricGraph, build_graph
from .orbits import (
    PeriodicOrbit,
    TestFunction,
    TraceReport,
    enumerate_orbits,
    orbit_amplitude,
    orbit_sum_check,
    orbit_weight,
    trace_check,
    wigner_delay,
)
from .potential import Potential, parse_expression
from .scattering import (
    SecularValue,
    assemble_S,
    assemble_T,
    big_sigma,
    secular,
    theta_prime,
    unitarity_defect,
    vertex_sigma,
)
from .spectrum import (
    RootRecord,
    ScanConfig,
    SpectrumResult,
    multiplicity,
    scan_spectrum,
)
from .wkb import (
    compare_with_exact,
    SemiclassicalOrbitData,
    WkbEdgeData,
    semiclassical_trace_data,
    wkb_correction,
    wkb_profile,
    wkb_solution,
    wkb_transition,
    wkb_wigner_delay,
)

__version__ = "0.1.0"

__all__ = [
    "DiscretizedGraph",
    "Edge",
    "EdgeSolution",
    "ExpressionError",
    "FdResult",
    "GraphError",
    "InputError",
    "MetricGraph",
    "NumericalError",
    "PeriodicOrbit",
    "Potential",
    "QgError",
    "RootRecord",
    "ScanConfig",
    "SecularValue",
    "SemiclassicalOrbitData",
    "SingularPointError",
    "SpectrumResult",
    "TestFunction",
    "ThresholdInfo",
    "TraceReport",
    "TransitionMatrix",
    "TurningPointError",
    "WkbEdgeData",
    "assemble_S",
    "assemble_T",
    "big_sigma",
    "build_discretization",
    "build_graph",
    "compare_with_exact",
    "edge_profile",
    "enumerate_orbits",
    "fd_modes",
    "fd_spectrum",
    "kirchhoff_defect",
    "multiplicity",
    "orbit_amplitude",
    "orbit_sum_check",
    "orbit_weight",
    "parse_expression",
    "scan_spectrum",
    "secular",
    "semiclassical_trace_data",
    "solve_edge",
    "subunitarity_threshold",
    "theta_prime",
    "trace_check",
    "transition_matrix",
    "transition_matrix_dk",
    "unitarity_defect",
    "verify_subunitary",
    "vertex_sigma",
    "wigner_delay",
    "wkb_correction",
    "wkb_profile",
    "wkb_solution",
    "wkb_transition",
    "wkb_wigner_delay",
]
