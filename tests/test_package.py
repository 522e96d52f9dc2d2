"""The public surface: what ``qgspectra`` exports and where it lives."""
from __future__ import annotations

import importlib
import inspect

import qgspectra


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
