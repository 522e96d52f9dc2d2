"""The public surface: what ``qgspectra`` exports, where it lives, and the
typed errors it gives for arguments of the wrong kind."""
from __future__ import annotations

import importlib
import inspect
import subprocess
import sys

import pytest

import qgspectra

from .test_cli import subprocess_env


def test_every_export_is_public_in_its_home_module():
    for name in qgspectra.__all__:
        obj = getattr(qgspectra, name)
        home = importlib.import_module(obj.__module__)
        assert name in home.__all__, f"{name} is missing from {home.__name__}.__all__"


def test_every_module_names_its_public_surface():
    for module in ("edge", "errors", "fd", "graph", "orbits", "potential",
                   "scattering", "spectrum", "wkb", "cli"):
        mod = importlib.import_module(f"qgspectra.{module}")
        for name in mod.__all__:
            assert hasattr(mod, name), f"qgspectra.{module}.__all__ names missing {name}"


def test_one_secular_evaluator():
    scattering = importlib.import_module("qgspectra.scattering")
    errors = importlib.import_module("qgspectra.errors")
    for gone in ("BranchState", "secular_sweep", "PhaseTrackingError"):
        for module in (qgspectra, scattering, errors):
            assert not hasattr(module, gone)
            assert gone not in module.__all__
    assert "after" not in inspect.signature(qgspectra.secular).parameters
    assert qgspectra.secular is scattering.secular
    assert scattering.unitarity_defect is importlib.import_module("qgspectra.edge").unitarity_defect


def test_one_edge_evaluator():
    # every edge solve goes through the core evaluator of a graph's edges:
    # no reversed solve and no per-potential evaluator beside it
    edge = importlib.import_module("qgspectra.edge")
    for func in (edge.solve_edge, edge.edge_profile):
        assert "reverse" not in inspect.signature(func).parameters
    assert list(inspect.signature(edge._evaluate).parameters) == [
        "g", "ks", "edges", "want_dk", "want_count"
    ]
    assert "orient" not in vars(edge)


def test_package_import_leaves_out_the_pool_and_logging():
    # a serial run never starts a process or logs: the modules the package
    # adds on top of numpy and scipy, in a fresh interpreter, hold neither
    code = (
        "import sys, numpy, scipy\n"
        "before = set(sys.modules)\n"
        "import qgspectra, qgspectra.cli\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=subprocess_env(), check=True,
    )
    added = set(out.stdout.split())
    assert "qgspectra.cli" in added
    assert not {"multiprocessing", "concurrent.futures.process", "logging"} & added


def test_wkb_quadrature_leaves_out_scipy_integrate():
    # the WKB actions, periods and delays integrate on nested Clenshaw-Curtis
    # rules of their own: in a fresh interpreter, scipy.integrate stays
    # unimported through all three
    code = (
        "import sys\n"
        "from qgspectra import build_graph, wkb_solution, wkb_wigner_delay\n"
        "from qgspectra import semiclassical_trace_data\n"
        "from qgspectra.orbits import make_orbit\n"
        "arm = lambda n: {'from': 'c', 'to': f'v{n}', 'length': 1.0,\n"
        "                 'potential': {'type': 'expr', 'expr': f'cos({n}*x)'}}\n"
        "g = build_graph({'vertices': ['c', 'v2', 'v3', 'v4'],\n"
        "                 'edges': [arm(n) for n in (2, 3, 4)]})\n"
        "wkb_solution(g, 0, 20.0)\n"
        "wkb_wigner_delay(g, 20.0)\n"
        "semiclassical_trace_data(make_orbit(g, [0, 1]), g, 20.0)\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=subprocess_env(), check=True,
    )
    assert out.stdout.split() == ["False"]


CUTOFFS = {
    "enumerate_orbits": qgspectra.enumerate_orbits,
    "orbit_sum_check": lambda g, x: qgspectra.orbit_sum_check(g, 5.0, x),
    "trace_check": lambda g, x: qgspectra.trace_check(g, qgspectra.TestFunction(20.0, 0.5), x),
    "fd_spectrum": lambda g, x: qgspectra.fd_spectrum(g, 0.01, x),
    "wkb_correction": lambda g, x: qgspectra.wkb_correction(g, 0, 20.0, x),
}


@pytest.mark.parametrize("bad", [2.5, 1.0, "2", None])
@pytest.mark.parametrize("name", sorted(CUTOFFS))
def test_non_integer_cutoffs_are_refused(g_smooth_star, name, bad):
    # an integer cutoff is read by operator.index: a float, even a whole
    # one, is refused with a typed error rather than truncated or passed on
    with pytest.raises(qgspectra.InputError):
        CUTOFFS[name](g_smooth_star, bad)


def test_complex_wavenumbers_are_refused_where_k_is_real(g_delta_star, g_smooth_star):
    # 5+0j is refused as well: each of these compares k (or a grid step or
    # a window parameter) with a real bound, or reads it as a real number
    p = importlib.import_module("qgspectra.orbits").make_orbit(g_delta_star, [0, 1])
    calls = [
        (lambda: qgspectra.wigner_delay(g_delta_star, 5 + 1j), "real k"),
        (lambda: qgspectra.wigner_delay(g_delta_star, 5 + 0j), "real k"),
        (lambda: qgspectra.multiplicity(g_delta_star, 5 + 0j, 0.3), "real k"),
        (lambda: qgspectra.orbit_amplitude(p, g_delta_star, 5 + 0j), "real k"),
        (lambda: qgspectra.orbit_amplitude(p, g_delta_star, 5 + 1j), "real k"),
        (lambda: qgspectra.orbit_sum_check(g_delta_star, 5 + 0j, 2), "real k"),
        (lambda: qgspectra.orbit_sum_check(g_delta_star, 5 + 1j, 2), "real k"),
        (lambda: qgspectra.scan_spectrum(g_delta_star, 1 + 0j, 5.0), "real k"),
        (lambda: qgspectra.scan_spectrum(g_delta_star, 1.0, 5 + 1j), "real k"),
        (lambda: qgspectra.wkb_solution(g_smooth_star, 0, 5 + 0j), "real k"),
        (lambda: qgspectra.wkb_wigner_delay(g_smooth_star, 5 + 1j), "real k"),
        (lambda: qgspectra.fd_spectrum(g_delta_star, 0.01 + 0j, 3), "must be real"),
        (lambda: qgspectra.TestFunction(20 + 0j, 0.5), "real center"),
        (lambda: qgspectra.TestFunction(20.0, 0.5 + 0j), "real center"),
    ]
    for call, message in calls:
        with pytest.raises(qgspectra.InputError, match=message):
            call()


def test_scans_and_cli_spectrum_load_no_scipy_submodule(tmp_path):
    # the refinement is Chandrupatla's method of its own, not scipy.optimize:
    # a serial scan of a delta star and of the cos 2x/3x/4x star, and CLI
    # spectrum, load no scipy module beyond those ``import scipy`` loads
    graph = tmp_path / "g.json"
    graph.write_text(
        '{"vertices": ["c", "a", "b"], "edges": ['
        '{"from": "c", "to": "a", "length": 1.0, "potential": '
        '{"type": "delta", "strength": 2.0, "position": 0.5}},'
        '{"from": "c", "to": "b", "length": 1.3, "potential": {"type": "zero"}}]}'
    )
    code = (
        "import sys, scipy\n"
        "before = {m for m in sys.modules if m.startswith('scipy')}\n"
        "from qgspectra import build_graph, scan_spectrum\n"
        "from qgspectra.cli import main\n"
        "arm = lambda n, p: {'from': 'c', 'to': f'v{n}', 'length': 1.0, 'potential': p}\n"
        "delta = {'type': 'delta', 'strength': 1.5, 'position': 0.3}\n"
        "g = build_graph({'vertices': ['c', 'v2', 'v3', 'v4'],\n"
        "                 'edges': [arm(n, delta) for n in (2, 3, 4)]})\n"
        "scan_spectrum(g, 0.5, 20.0)\n"
        "cos = lambda n: {'type': 'expr', 'expr': f'cos({n}*x)'}\n"
        "g = build_graph({'vertices': ['c', 'v2', 'v3', 'v4'],\n"
        "                 'edges': [arm(n, cos(n)) for n in (2, 3, 4)]})\n"
        "scan_spectrum(g, 0.5, 8.0)\n"
        f"main(['spectrum', '--input', {str(graph)!r}, '--out', {str(tmp_path / 'out')!r},\n"
        "      '--kmin', '0.5', '--kmax', '10'])\n"
        "after = {m for m in sys.modules if m.startswith('scipy')}\n"
        "print(' '.join(sorted(after - before)) or 'none')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=subprocess_env(), check=True,
    )
    assert out.stdout.split()[-1:] == ["none"], out.stdout
