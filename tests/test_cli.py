"""End-to-end checks of the command-line interface."""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qgspectra
from qgspectra import cli, edge, orbits
from qgspectra.errors import SingularPointError
from qgspectra.orbits import enumerate_orbits
from qgspectra.scattering import assemble_S, secular
from qgspectra.spectrum import ScanConfig

from .oracles import walk_orbits

REPO_ROOT = Path(__file__).resolve().parents[1]

INTERVAL = {
    "vertices": ["a", "b"],
    "edges": [{"from": "a", "to": "b", "length": math.pi, "potential": {"type": "zero"}}],
}
TRIANGLE = {
    "vertices": ["a", "b", "c"],
    "edges": [
        {"from": "a", "to": "b", "length": 1.0, "potential": {"type": "zero"}},
        {"from": "b", "to": "c", "length": 1.2, "potential": {"type": "zero"}},
        {"from": "c", "to": "a", "length": 0.8, "potential": {"type": "zero"}},
    ],
}
DELTA_STAR = {
    "vertices": ["c", "v1", "v2", "v3"],
    "edges": [
        {"from": "c", "to": f"v{i + 1}", "length": 1.0, "potential": {"type": "delta", "strength": d, "position": x}}
        for i, (d, x) in enumerate(((2.0, 0.5), (0.7, 0.3), (1.3, 0.8)))
    ],
}
SMOOTH = {
    "vertices": ["a", "b"],
    "edges": [
        {"from": "a", "to": "b", "length": 1.0, "potential": {"type": "expr", "expr": "2*cos(3*x)"}}
    ],
}
DIVERGENT = {
    "vertices": ["a", "b"],
    "edges": [
        {"from": "a", "to": "b", "length": 1.0, "potential": {"type": "expr", "expr": "50*cos(20*x)"}}
    ],
}
SELF_LOOP = {
    "vertices": ["a"],
    "edges": [{"from": "a", "to": "a", "length": 1.0, "potential": {"type": "zero"}}],
}
ATTRACTIVE = {
    "vertices": ["a", "b"],
    "edges": [
        {
            "from": "a",
            "to": "b",
            "length": 1.0,
            "potential": {"type": "delta", "strength": -1.0, "position": 0.5},
        }
    ],
}


def subprocess_env(path_prefix=None):
    """Environment in which a child process imports the same ``qgspectra``
    as this test process, with ``path_prefix`` (if given) first on PATH."""
    env = dict(os.environ)
    package_root = str(Path(qgspectra.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    if path_prefix is not None:
        env["PATH"] = os.pathsep.join(filter(None, [str(path_prefix), env.get("PATH")]))
    return env


def run_cli(*args: str):
    return subprocess.run(
        [sys.executable, "-m", "qgspectra.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=subprocess_env(),
    )


def write_input(tmp_path, payload, name="graph.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    config_hash = lines[0].split("=", 1)[1]
    assert len(config_hash) == 64
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:] if line]
    return config_hash, header, rows


def test_spectrum_output_layout(tmp_path):
    inp = write_input(tmp_path, INTERVAL)
    out = tmp_path / "out"
    proc = run_cli("spectrum", "--input", str(inp), "--kmin", "0.5", "--kmax", "5.5", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    config_hash, header, rows = read_csv(out / "spectrum.csv")
    assert header == ["k", "multiplicity", "residual"]
    assert len(rows) == 5
    assert rows[0][0] == "1.000000000000e+00"
    assert rows[0][1] == "1"
    assert abs(float(rows[0][2])) <= 1e-12
    for n, row in enumerate(rows, start=1):
        assert float(row[0]) == pytest.approx(float(n), abs=1e-9)
    meta = json.loads((out / "meta.json").read_text())
    assert set(meta) == {
        "command",
        "config",
        "config_hash",
        "diagnostics",
        "flagged_intervals",
        "graph",
        "input_sha256",
        "k_hi",
        "k_lo",
        "n_roots",
        "threshold",
        "timing",
        "total_multiplicity",
    }
    assert meta["command"] == "spectrum"
    assert meta["config_hash"] == config_hash
    assert meta["n_roots"] == 5
    assert meta["total_multiplicity"] == 5
    assert meta["threshold"] == {"K": 0.0, "method": "closed-form"}
    assert meta["graph"] == {"n_edges": 1, "n_vertices": 2, "total_length": math.pi}
    assert len(meta["input_sha256"]) == 64


def test_workers_default_to_one():
    # the ScanConfig default: no process pool unless --workers asks for one
    parser = cli._make_parser()
    for argv in (
        ["spectrum", "--kmin", "1", "--kmax", "2"],
        ["trace-check", "--phi-center", "10", "--phi-sigma", "0.5"],
    ):
        args = parser.parse_args(argv + ["--input", "graph.json"])
        assert args.workers == ScanConfig().workers == 1


def test_each_report_is_written_once(tmp_path, monkeypatch):
    inp = write_input(tmp_path, DELTA_STAR)
    written = []
    write = cli._write_json

    def counted(path, payload):
        written.append(os.path.basename(path))
        write(path, payload)

    monkeypatch.setattr(cli, "_write_json", counted)
    common = ["--input", str(inp), "--out", str(tmp_path / "o")]
    runs = [
        ["spectrum", "--kmin", "0.5", "--kmax", "4"],
        ["secular-scan", "--kmin", "0.5", "--kmax", "4"],
        ["orbits", "--kmin", "3", "--nmax", "3"],
        ["trace-check", "--phi-center", "10", "--phi-sigma", "0.5", "--nmax", "3"],
    ]
    for argv in runs:
        assert cli.main(argv + common) == 0
    assert written == ["meta.json"] * 3 + ["trace_report.json"]
    report = json.loads((tmp_path / "o" / "trace_report.json").read_text())
    assert set(report["timing"]) == {"wall_time_s"}


def test_spectrum_reruns_are_byte_identical(tmp_path):
    inp = write_input(tmp_path, TRIANGLE)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        proc = run_cli("spectrum", "--input", str(inp), "--kmin", "0.5", "--kmax", "6.0", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()
    m1 = json.loads((out1 / "meta.json").read_text())
    m2 = json.loads((out2 / "meta.json").read_text())
    m1.pop("timing")
    m2.pop("timing")
    assert m1 == m2


def test_worker_count_does_not_change_output(tmp_path):
    inp = write_input(tmp_path, TRIANGLE)
    out1, out3 = tmp_path / "w1", tmp_path / "w3"
    proc = run_cli("spectrum", "--input", str(inp), "--kmin", "0.5", "--kmax", "8.0", "--out", str(out1), "--workers", "1")
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("spectrum", "--input", str(inp), "--kmin", "0.5", "--kmax", "8.0", "--out", str(out3), "--workers", "3")
    assert proc.returncode == 0, proc.stderr
    assert (out1 / "spectrum.csv").read_bytes() == (out3 / "spectrum.csv").read_bytes()
    h1 = json.loads((out1 / "meta.json").read_text())["config_hash"]
    h3 = json.loads((out3 / "meta.json").read_text())["config_hash"]
    assert h1 == h3


def test_secular_scan_sign_changes(tmp_path):
    inp = write_input(tmp_path, INTERVAL)
    out = tmp_path / "sec"
    proc = run_cli("secular-scan", "--input", str(inp), "--kmin", "0.5", "--kmax", "10.5", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    _, header, rows = read_csv(out / "secular.csv")
    assert header == ["k", "zeta_re", "zeta_im", "theta"]
    assert len(rows) == 41  # grid step pi / (4 * total length) = 0.25
    re_vals = [float(r[1]) for r in rows]
    changes = sum(1 for a, b in zip(re_vals, re_vals[1:]) if a * b < 0)
    assert changes == 10
    assert max(abs(float(r[2])) for r in rows) <= 1e-8


def test_scan_and_secular_take_no_eigenvalues_of_s(tmp_path, monkeypatch):
    # counts come from the vertex Dirichlet-to-Neumann index, so neither a
    # scan nor the secular function calls eigvals
    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.eigvals called")

    monkeypatch.setattr(np.linalg, "eigvals", refused)
    g = qgspectra.build_graph(DELTA_STAR)
    assert len(qgspectra.scan_spectrum(g, 0.5, 12.0).roots) == 12
    assert len(secular(g, np.linspace(0.5, 12.0, 50))) == 50
    inp = write_input(tmp_path, DELTA_STAR)
    out = tmp_path / "sec"
    assert cli.main(["secular-scan", "--input", str(inp), "--kmin", "1", "--kmax", "12", "--out", str(out)]) == 0


def test_secular_scan_blocks_match_one_call(tmp_path, monkeypatch):
    # written block by block, with nothing carried from one block to the
    # next, the file is the one of a single secular call
    inp = write_input(tmp_path, DELTA_STAR)
    outputs = []
    for block in (7, 10**6):
        monkeypatch.setattr(cli, "_SECULAR_BLOCK", block)
        out = tmp_path / f"block{block}"
        assert cli.main(["secular-scan", "--input", str(inp), "--kmin", "1", "--kmax", "12", "--out", str(out)]) == 0
        outputs.append((out / "secular.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert len(read_csv(tmp_path / "block7" / "secular.csv")[2]) > 7 * 5


def test_secular_scan_failure_leaves_no_csv(tmp_path, monkeypatch):
    inp = write_input(tmp_path, DELTA_STAR)
    out = tmp_path / "sec"
    blocks = []

    def fails_later(g, ks):
        blocks.append(len(ks))
        if len(blocks) == 3:
            raise SingularPointError("transition-matrix parametrization singular")
        return secular(g, ks)

    monkeypatch.setattr(cli, "_SECULAR_BLOCK", 7)
    monkeypatch.setattr(cli, "secular", fails_later)
    assert cli.main(["secular-scan", "--input", str(inp), "--kmin", "1", "--kmax", "12", "--out", str(out)]) == 1
    assert len(blocks) == 3
    assert sorted(os.listdir(out)) == []


def test_wkb_compare_doubles_k(tmp_path):
    inp = write_input(tmp_path, SMOOTH)
    out = tmp_path / "wkb"
    proc = run_cli("wkb-compare", "--input", str(inp), "--kmin", "10", "--kmax", "80", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    _, header, rows = read_csv(out / "wkb_compare.csv")
    assert header == [
        "k",
        "edge",
        "deviation",
        "corrected_deviation",
        "eta1_sup",
        "action",
        "wigner_delay",
        "wigner_delay_wkb",
    ]
    assert [float(r[0]) for r in rows] == [10.0, 20.0, 40.0, 80.0]
    assert all(r[1] == "e0" for r in rows)
    devs = [float(r[2]) for r in rows]
    assert devs == sorted(devs, reverse=True)
    for r in rows:
        assert abs(float(r[6]) - float(r[7])) <= 1e-3


def test_orbit_table(tmp_path):
    inp = write_input(tmp_path, TRIANGLE)
    out = tmp_path / "orb"
    proc = run_cli("orbits", "--input", str(inp), "--kmin", "3.0", "--nmax", "4", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    _, header, rows = read_csv(out / "orbit_table.csv")
    assert header == [
        "id",
        "n",
        "n_primitive",
        "repetitions",
        "states",
        "kinds",
        "weight_re",
        "weight_im",
    ]
    assert len(rows) == 2
    for row in rows:
        assert row[1] == "3"
        assert row[2] == "3"
        assert row[3] == "1"
        assert row[5] == "TTT"
        assert len(row[4].split("-")) == 3


def test_orbit_table_solves_each_edge_once(tmp_path, solve_edge_calls):
    inp = write_input(tmp_path, DELTA_STAR)
    out = tmp_path / "orb"
    assert cli.main(["orbits", "--input", str(inp), "--kmin", "3.0", "--nmax", "4", "--out", str(out)]) == 0
    _, _, rows = read_csv(out / "orbit_table.csv")
    assert len(rows) == len(enumerate_orbits(qgspectra.build_graph(DELTA_STAR), 4)) > 3
    assert sorted(solve_edge_calls) == [0, 1, 2]


def _reference_table(g, n_max, k_sample):
    """The orbit table's rows, past its config-hash line, from the
    depth-first walk's classes, each weight taken by ``_weight`` and each
    value written by ``_fmt``."""
    S = assemble_S(g, complex(k_sample)).tolist()
    lines = [",".join(cli._ORBIT_HEADER) + "\n"]
    for i, p in enumerate(walk_orbits(g, n_max)[0]):
        wt = orbits._weight(p, S)
        states = "-".join(str(s) for s in p.states)
        kinds = "".join("T" if kind == "transmit" else "R" for kind in p.kinds)
        row = [i, p.n, p.n_primitive, p.repetitions, states, kinds, wt.real, wt.imag]
        lines.append(",".join(cli._fmt(v) for v in row) + "\n")
    return "".join(lines)


ORBIT_TABLES = {
    "trace-check-delta-star": ("trace-check", DELTA_STAR, 6, ["--phi-center", "20", "--phi-sigma", "0.5"]),
    "orbits-delta-star": ("orbits", DELTA_STAR, 6, ["--kmin", "20"]),
    "orbits-smooth": ("orbits", SMOOTH, 8, ["--kmin", "3"]),
    "orbits-triangle": ("orbits", TRIANGLE, 60, ["--kmin", "3"]),
}


@pytest.mark.parametrize("case", list(ORBIT_TABLES))
def test_orbit_table_is_the_depth_first_walks(tmp_path, case):
    # both commands write the walk's classes and weights, byte for byte
    command, graph, n_max, flags = ORBIT_TABLES[case]
    inp = write_input(tmp_path, graph)
    out = tmp_path / "out"
    args = [command, "--input", str(inp), "--out", str(out), "--nmax", str(n_max), *flags]
    assert cli.main(args) == 0
    head, rows = (out / "orbit_table.csv").read_text().split("\n", 1)
    assert head.startswith("# config_hash=")
    assert rows == _reference_table(qgspectra.build_graph(graph), n_max, float(flags[1]))


def test_over_budget_orbit_table_is_refused_before_walking(tmp_path, capsys):
    # 6.1 million partial paths up to length 12 on the cos 2x/3x/4x star:
    # refused from their count, after the trace check, with nothing written
    graph = {
        "vertices": ["c", "v1", "v2", "v3"],
        "edges": [
            {"from": "c", "to": f"v{i}", "length": 1.0, "potential": {"type": "expr", "expr": f"cos({i + 1}*x)"}}
            for i in (1, 2, 3)
        ],
    }
    inp = write_input(tmp_path, graph)
    out = tmp_path / "tr"
    args = ["trace-check", "--input", str(inp), "--phi-center", "12", "--phi-sigma", "0.5", "--nmax", "12", "--out", str(out)]
    assert cli.main(args) == 1
    assert "exceeded its budget" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_trace_check_refuses_a_truncated_orbit_table(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(orbits, "_PATH_BUDGET", 20)
    inp = write_input(tmp_path, TRIANGLE)
    out = tmp_path / "tr"
    args = ["trace-check", "--input", str(inp), "--phi-center", "10", "--phi-sigma", "0.5", "--workers", "1", "--out", str(out)]
    assert cli.main(args + ["--nmax", "12"]) == 1
    assert "exceeded its budget" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert cli.main(args + ["--nmax", "3"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["orbit_table.csv", "trace_report.json"]


def test_orbits_refuses_a_truncated_table(tmp_path, monkeypatch, capsys):
    # the table holds every class up to --nmax, or the command fails
    monkeypatch.setattr(orbits, "_PATH_BUDGET", 20)
    inp = write_input(tmp_path, TRIANGLE)
    out = tmp_path / "orb"
    args = ["orbits", "--input", str(inp), "--out", str(out)]
    assert cli.main(args + ["--nmax", "12"]) == 1
    assert "exceeded its budget" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert cli.main(args + ["--nmax", "3"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["meta.json", "orbit_table.csv"]


def test_orbits_walks_long_cycles(tmp_path):
    # the enumeration holds no interpreter frame per step
    inp = write_input(tmp_path, TRIANGLE)
    out = tmp_path / "orb"
    proc = run_cli("orbits", "--input", str(inp), "--nmax", "1200", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    _, _, rows = read_csv(out / "orbit_table.csv")
    assert len(rows) == 800


def test_trace_check_report(tmp_path):
    inp = write_input(tmp_path, INTERVAL)
    out = tmp_path / "tr"
    proc = run_cli(
        "trace-check",
        "--input", str(inp),
        "--phi-center", "10",
        "--phi-sigma", "0.5",
        "--nmax", "4",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads((out / "trace_report.json").read_text())
    assert payload["command"] == "trace-check"
    report = payload["report"]
    assert set(report) == {
        "K",
        "diagnostics",
        "eigenvalue_count",
        "lhs",
        "phi",
        "quadrature",
        "residuals",
        "rhs_orbits",
        "rhs_weyl",
        "weyl_count",
    }
    assert report["phi"] == {"k0": 10.0, "sigma": 0.5, "support_sigmas": 8.0}
    assert report["K"] == 0.0
    assert report["eigenvalue_count"] == 9
    quad = report["quadrature"]
    assert set(quad) == {
        "errors", "k_hi", "k_lo", "n_nodes", "n_panels", "panel_levels", "panel_width"
    }
    # 8 panels of width 1 on [6, 14]: neighbours share their 7 common ends
    assert sum(quad["panel_levels"]) - (quad["n_panels"] - 1) == quad["n_nodes"] > 0
    errors = [quad["errors"]["rhs_weyl"], quad["errors"]["weyl_count"]]
    errors += quad["errors"]["rhs_orbits"]
    assert len(errors) == 2 + 5
    assert all(math.isfinite(e) and 0 <= e <= 1e-11 for e in errors)
    assert (out / "orbit_table.csv").exists()


def test_below_threshold_flag(tmp_path):
    # a range below K = sqrt(3)/2 is scanned as given, without a flag (the
    # name keeps the test's id): it holds no eigenvalue
    inp = write_input(tmp_path, ATTRACTIVE)
    proc = run_cli(
        "spectrum", "--input", str(inp), "--kmin", "0.3", "--kmax", "0.8", "--out", str(tmp_path / "r")
    )
    assert proc.returncode == 0, proc.stderr
    assert read_csv(tmp_path / "r" / "spectrum.csv")[2] == []
    meta = json.loads((tmp_path / "r" / "meta.json").read_text())
    assert (meta["k_lo"], meta["k_hi"], meta["n_roots"]) == (0.3, 0.8, 0)
    assert meta["diagnostics"] == []
    # the scan reports no K on a graph with a potential
    assert meta["threshold"] is None


def test_threshold_is_computed_only_where_it_is_read(tmp_path, monkeypatch):
    # on a smooth graph spectrum reports null and secular-scan and orbits
    # no block, none of them computing K; wkb-compare and trace-check read
    # K and report it
    inp = write_input(tmp_path, SMOOTH)
    common = ["--input", str(inp), "--out", str(tmp_path / "o")]
    compute = edge._compute_threshold

    def refused(g):
        raise AssertionError("the threshold was computed")

    monkeypatch.setattr(edge, "_compute_threshold", refused)
    for argv in (
        ["spectrum", "--kmin", "0.5", "--kmax", "4"],
        ["secular-scan", "--kmin", "0.5", "--kmax", "4"],
        ["orbits", "--kmin", "3", "--nmax", "2"],
    ):
        assert cli.main(argv + common) == 0
        meta = json.loads((tmp_path / "o" / "meta.json").read_text())
        assert meta.get("threshold", "absent") == (None if argv[0] == "spectrum" else "absent")
    monkeypatch.setattr(edge, "_compute_threshold", compute)
    K = edge.subunitarity_threshold(qgspectra.build_graph(SMOOTH))
    for argv, report in (
        (["wkb-compare", "--kmin", "10", "--kmax", "10"], "meta.json"),
        (["trace-check", "--phi-center", "10", "--phi-sigma", "0.5", "--nmax", "2"], "trace_report.json"),
    ):
        assert cli.main(argv + common) == 0
        meta = json.loads((tmp_path / "o" / report).read_text())
        assert meta["threshold"] == {"K": K, "method": "sampled"}


# argv after --input and --out, and the expected part of the error message,
# of usage errors on a well-formed input file
USAGE_ERRORS = {
    "missing-phi": (["trace-check", "--phi-sigma", "0.5"], "required: --phi-center"),
    # flags the command does not read
    "spectrum-nmax": (["spectrum", "--kmin", "1", "--kmax", "2", "--nmax", "2"], "unrecognized arguments: --nmax"),
    "secular-tol": (["secular-scan", "--kmin", "1", "--kmax", "2", "--tol", "1e-3"], "unrecognized arguments: --tol"),
    "orbits-kmax": (["orbits", "--kmin", "1", "--kmax", "3"], "unrecognized arguments: --kmax"),
    # scans run below the subunitarity threshold without a flag
    "spectrum-below-K": (["spectrum", "--kmin", "1", "--kmax", "2", "--allow-below-K"], "unrecognized arguments: --allow-below-K"),
    "trace-below-K": (
        ["trace-check", "--phi-center", "10", "--phi-sigma", "0.5", "--allow-below-K"],
        "unrecognized arguments: --allow-below-K",
    ),
    # non-finite k flags.  wkb-compare --kmax inf is left out on purpose:
    # without the check its k-doubling loop never ends.
    "secular-kmin-nan": (["secular-scan", "--kmin", "nan", "--kmax", "2"], "needs finite --kmin"),
    "secular-kmax-inf": (["secular-scan", "--kmin", "1", "--kmax", "inf"], "needs finite --kmax"),
    "spectrum-kmax-nan": (["spectrum", "--kmin", "1", "--kmax", "nan"], "needs finite --kmax"),
    "wkb-kmin-nan": (["wkb-compare", "--kmin", "nan", "--kmax", "2"], "needs finite --kmin"),
    "orbits-kmin-nan": (["orbits", "--kmin", "nan", "--nmax", "2"], "must be positive and finite"),
    "orbits-kmin-inf": (["orbits", "--kmin", "inf", "--nmax", "2"], "must be positive and finite"),
    # ranges whose scan grid would exceed spectrum.MAX_GRID_POINTS
    "spectrum-kmax-1e300": (["spectrum", "--kmin", "1", "--kmax", "1e300"], "grid points; at most"),
    "secular-kmax-1e9": (["secular-scan", "--kmin", "1", "--kmax", "1e9"], "grid points; at most"),
    # k^2 overflows: refused before the first k is worked on
    "wkb-kmax-1e300": (["wkb-compare", "--kmin", "2", "--kmax", "1e300"], "whose square is finite"),
}
SPECTRUM = ["spectrum", "--kmin", "1", "--kmax", "2"]


@pytest.mark.parametrize(
    "case",
    ["missing-file", "input-directory", "out-file", "malformed-json", "self-loop", "deep-expression", *USAGE_ERRORS],
)
def test_usage_errors_exit_two(tmp_path, case):
    inp, out = write_input(tmp_path, INTERVAL), tmp_path / "o"
    if case == "missing-file":
        inp, argv, message = tmp_path / "nope.json", SPECTRUM, "cannot read --input"
    elif case == "input-directory":
        inp, argv, message = tmp_path, SPECTRUM, "cannot read --input"
    elif case == "out-file":
        out.write_text("")
        argv, message = SPECTRUM, "cannot create --out"
    elif case == "malformed-json":
        inp.write_text("{not json")
        argv, message = SPECTRUM, "malformed JSON input"
    elif case == "self-loop":
        inp = write_input(tmp_path, SELF_LOOP, "loop.json")
        argv, message = SPECTRUM, "self-loop"
    elif case == "deep-expression":
        edge = {**SMOOTH["edges"][0], "potential": {"type": "expr", "expr": "-" * 2000 + "x"}}
        inp = write_input(tmp_path, {**SMOOTH, "edges": [edge]}, "deep.json")
        argv, message = SPECTRUM, "deeper than 100 levels"
    else:
        argv, message = USAGE_ERRORS[case]
    proc = run_cli(*argv, "--input", str(inp), "--out", str(out))
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert "error: " in lines[-1] and message in lines[-1]
    if not message.startswith(("unrecognized", "required")):
        assert len(lines) == 1  # the program's own message, not a usage text
    assert "Traceback" not in proc.stderr
    if case == "out-file":
        assert out.read_text() == ""
    elif case in ("missing-file", "input-directory", "malformed-json", "self-loop", "deep-expression"):
        assert not out.exists()  # the input is read before --out is made
    else:
        assert not (out.exists() and any(out.iterdir()))


def test_numerical_failure_exits_one(tmp_path):
    inp = write_input(tmp_path, DIVERGENT)
    proc = run_cli(
        "wkb-compare", "--input", str(inp), "--kmin", "7.2", "--kmax", "7.2", "--out", str(tmp_path / "o")
    )
    assert proc.returncode == 1
    assert "does not contract" in proc.stderr


def test_console_script_installed(tmp_path):
    # The launcher is the one an install writes for the declared console
    # script, so the entry point in pyproject.toml is what gets exercised.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    scripts = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, func = scripts["qgspectra"].split(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "qgspectra"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n"
    )
    launcher.chmod(0o755)
    proc = subprocess.run(
        ["qgspectra", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
        env=subprocess_env(path_prefix=bin_dir),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: qgspectra")
    for command in ("spectrum", "secular-scan", "wkb-compare", "orbits", "trace-check"):
        assert command in proc.stdout


def test_import_and_operations_load_no_scipy_submodule():
    # numpy is the only import a scan or a trace check needs: scipy's
    # optimize, integrate, linalg and sparse stay unloaded after importing
    # the package and its CLI, and after running both operations
    script = """
import json, sys
import qgspectra, qgspectra.cli
from qgspectra.orbits import TestFunction, trace_check

HEAVY = ("scipy.optimize", "scipy.integrate", "scipy.linalg", "scipy.sparse")
loaded = [[m for m in HEAVY if m in sys.modules]]
arms = [(2.0, 0.5), (0.7, 0.3), (1.3, 0.8)]
g = qgspectra.build_graph({
    "vertices": ["c", "v1", "v2", "v3"],
    "edges": [
        {"from": "c", "to": f"v{i + 1}", "length": 1.0,
         "potential": {"type": "delta", "strength": D, "position": x0}}
        for i, (D, x0) in enumerate(arms)
    ],
})
roots = len(qgspectra.scan_spectrum(g, 0.5, 12.0).roots)
trace_check(g, TestFunction(20.0, 0.5), 4)
loaded.append([m for m in HEAVY if m in sys.modules])
print(json.dumps({"loaded": loaded, "roots": roots}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=300,
        env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["roots"] == 12
    assert out["loaded"] == [[], []]
