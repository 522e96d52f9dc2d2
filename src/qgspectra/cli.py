"""Command-line front end.

Subcommands load a JSON graph description, run one computation, and
write diffable artifacts: CSV with a fixed %.12e float format and a
pretty-printed JSON report with sorted keys.  Every output embeds the
config hash (sha256 over the canonical parameter JSON plus the input
file's own sha256) so a result can be traced to exactly one input and
flag set.  Wall-clock time is reported under the "timing" key, which is
the one field excluded from reproducibility comparisons.

Each subcommand takes only the flags it reads:

    spectrum      --input --out --kmin --kmax --tol --workers
    trace-check   --input --out --phi-center --phi-sigma --nmax --tol --workers
    secular-scan  --input --out --kmin --kmax
    wkb-compare   --input --out --kmin --kmax
    orbits        --input --out --kmin (sample k of the weights) --nmax

The hashed parameters are the subcommand's flags other than --input,
--out and --workers, so the hash covers exactly the values that can
change the numbers.

Exit codes: 0 success, 1 numerical failure (nothing written), 2 usage or
input error, including an unreadable --input or an --out that cannot be
made a directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import time
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .edge import subunitarity_threshold
from .errors import InputError, NumericalError
from .graph import build_graph
from .orbits import TestFunction, _class_weights, _classes, trace_check, wigner_delay
from .scattering import assemble_S, secular
from .spectrum import ScanConfig, _grid_cells, scan_spectrum
from .wkb import compare_with_exact, wkb_wigner_delay

__all__ = ["main"]

_SECULAR_BLOCK = 1024  # grid points per secular() call in secular-scan
_TABLE_ROWS = 4096  # orbit-table rows formatted at a time


@functools.lru_cache(maxsize=1)
def _make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as
    it was."""
    ap = argparse.ArgumentParser(
        prog="qgspectra",
        description="Spectral computations on metric graphs with edge potentials.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    # Each subcommand declares only the flags it reads, so a flag that
    # could not change its output is a usage error, not an inert value
    # in the config hash.
    def command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="graph description (JSON)")
        p.add_argument("--out", default=".", help="output directory")
        return p

    def k_range(p: argparse.ArgumentParser) -> None:
        p.add_argument("--kmin", type=float, required=True, help="lower k bound")
        p.add_argument("--kmax", type=float, required=True, help="upper k bound")

    def nmax(p: argparse.ArgumentParser) -> None:
        p.add_argument("--nmax", type=int, default=6, help="orbit length cutoff")

    def scan(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--tol", type=float, default=1e-9, help="root refinement tolerance"
        )
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="worker processes for window-parallel scans, at most one per "
            "chunk of 64 windows (default 1)",
        )

    p = command("spectrum", "locate eigenvalues in [kmin, kmax]")
    k_range(p)
    scan(p)
    p = command("trace-check", "trace-formula report for a Gaussian test function")
    p.add_argument(
        "--phi-center", type=float, required=True, help="test-function center"
    )
    p.add_argument(
        "--phi-sigma", type=float, required=True, help="test-function width"
    )
    nmax(p)
    scan(p)
    k_range(command("secular-scan", "sweep the secular function over [kmin, kmax]"))
    k_range(command("wkb-compare", "WKB vs integrated solutions at doubling k values"))
    p = command("orbits", "enumerate periodic-orbit classes up to nmax")
    p.add_argument(
        "--kmin", type=float, default=1.0, help="sample k of the orbit weights"
    )
    nmax(p)
    return ap


# ---------------------------------------------------------------------------
# provenance and serialization
# ---------------------------------------------------------------------------


def _params(args: argparse.Namespace) -> Dict:
    # The command's own flags, less the ones that do not change the
    # numbers (input file, output directory, worker count): the input
    # enters the hash by its sha256 instead.
    skip = ("command", "input", "out", "workers")
    return {k: v for k, v in vars(args).items() if k not in skip}


def _config_hash(command: str, input_sha: str, params: Dict) -> str:
    payload = {"command": command, "input_sha256": input_sha, "params": params}
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _write_csv(path: str, header: List[str], lines: Iterable[str], cfg_hash: str) -> None:
    """Write the CSV lines, which may be produced while writing, to
    ``path``; if producing them fails, ``path`` is left as it was.  Each
    writer formats a line with one format string: '%.12e' for a float,
    '%d' for an integer and '%s' for a name."""
    part = path + ".part"
    with open(part, "w", encoding="utf-8", newline="\n") as f:
        try:
            f.write(f"# config_hash={cfg_hash}\n")
            f.write(",".join(header) + "\n")
            f.writelines(lines)
        except BaseException:
            os.remove(part)
            raise
    os.replace(part, path)


def _write_json(path: str, payload: Dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _load(args: argparse.Namespace):
    try:
        with open(args.input, "rb") as f:
            raw = f.read()
    except OSError as exc:
        raise InputError(f"cannot read --input {args.input!r}: {exc.strerror or exc}")
    input_sha = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"malformed JSON input {args.input!r}: {exc}")
    g = build_graph(data)
    params = _params(args)
    cfg_hash = _config_hash(args.command, input_sha, params)
    return g, input_sha, params, cfg_hash


def _meta_base(args, g, input_sha: str, params: Dict, cfg_hash: str) -> Dict:
    return {
        "command": args.command,
        "config": params,
        "config_hash": cfg_hash,
        "input_sha256": input_sha,
        "graph": {
            "n_vertices": len(g.vertices),
            "n_edges": len(g.edges),
            "total_length": g.total_length,
        },
    }


def _threshold(g) -> Dict:
    """The meta.json threshold block of a command whose engine call reads
    K, which is computed once per graph."""
    info = subunitarity_threshold(g, detailed=True)
    return {"K": info.K, "method": info.method}


def _require_finite(args: argparse.Namespace, *names: str) -> None:
    """The flags ``names`` must be finite."""
    flags = {n: "--" + n.replace("_", "-") for n in names}
    infinite = [f for n, f in flags.items() if not math.isfinite(getattr(args, n))]
    if infinite:
        raise InputError(f"{args.command} needs finite {', '.join(infinite)}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _scan_config(args) -> ScanConfig:
    return ScanConfig(root_tol=args.tol, workers=args.workers)


def _cmd_spectrum(args, g, meta, cfg_hash: str) -> Tuple[str, Dict]:
    _require_finite(args, "kmin", "kmax")
    result = scan_spectrum(g, args.kmin, args.kmax, _scan_config(args))
    _write_csv(
        os.path.join(args.out, "spectrum.csv"),
        ["k", "multiplicity", "residual"],
        ("%.12e,%d,%.12e\n" % (r.k, r.multiplicity, r.residual) for r in result.roots),
        cfg_hash,
    )
    meta.update(
        {
            "k_lo": result.k_lo,
            "k_hi": result.k_hi,
            # K = 0 where no edge has a potential, else null: the scan does
            # not compute K
            "threshold": None
            if result.threshold is None
            else {"K": result.threshold, "method": "closed-form"},
            "n_roots": len(result.roots),
            "total_multiplicity": result.total_count(),
            "diagnostics": result.diagnostics,
            "flagged_intervals": [list(t) for t in result.flagged],
        }
    )
    return os.path.join(args.out, "meta.json"), meta


def _orbit_lines(g, blocks, k_sample: float) -> Iterator[str]:
    """The orbit table's CSV lines of the classes ``blocks`` (see
    orbits._classes), with their step-weight products at k_sample, joined
    _TABLE_ROWS rows at a time.  Each line is formatted by one format
    string."""
    weight_re, weight_im = _class_weights(blocks, assemble_S(g, complex(k_sample)))
    names = [str(s) for s in range(g.num_directed)]
    start = 0
    for b in blocks:
        m, n = b.states.shape
        kinds = b.kinds.view(f"S{n}").ravel().astype(str)
        w_re, w_im = weight_re[start : start + m], weight_im[start : start + m]
        for lo in range(0, m, _TABLE_ROWS):
            part = slice(lo, lo + _TABLE_ROWS)
            rows = zip(
                b.n_primitive[part].tolist(),
                b.states[part].tolist(),
                kinds[part].tolist(),
                w_re[part].tolist(),
                w_im[part].tolist(),
            )
            yield "".join(
                [
                    "%d,%d,%d,%d,%s,%s,%.12e,%.12e\n"
                    % (i, n, p, n // p, "-".join([names[s] for s in states]), kind, re, im)
                    for i, (p, states, kind, re, im) in enumerate(rows, start + lo)
                ]
            )
        start += m


_ORBIT_HEADER = [
    "id",
    "n",
    "n_primitive",
    "repetitions",
    "states",
    "kinds",
    "weight_re",
    "weight_im",
]


def _cmd_trace_check(args, g, meta, cfg_hash: str) -> Tuple[str, Dict]:
    _require_finite(args, "phi_center", "phi_sigma")
    if args.nmax < 0:
        raise InputError("--nmax must be >= 0")
    phi = TestFunction(args.phi_center, args.phi_sigma)
    report = trace_check(g, phi, args.nmax, scan_config=_scan_config(args))
    # The table's enumeration may exceed its budget; fail before writing.
    blocks = _classes(g, args.nmax) if args.nmax >= 1 else []
    payload = dict(meta, threshold=_threshold(g))
    rep = dataclasses.asdict(report)
    # JSON schema of the report file: the test-function center is "k0"
    # and the scattering threshold is "K".
    rep["phi"] = {
        "k0": report.phi["center"],
        "sigma": report.phi["sigma"],
        "support_sigmas": report.phi["support_sigmas"],
    }
    rep["K"] = rep.pop("threshold")
    payload["report"] = rep
    _write_csv(
        os.path.join(args.out, "orbit_table.csv"),
        _ORBIT_HEADER,
        _orbit_lines(g, blocks, phi.center),
        cfg_hash,
    )
    return os.path.join(args.out, "trace_report.json"), payload


def _cmd_secular_scan(args, g, meta, cfg_hash: str) -> Tuple[str, Dict]:
    _require_finite(args, "kmin", "kmax")
    if args.kmin <= 0 or args.kmax <= args.kmin:
        raise InputError("secular-scan needs 0 < kmin < kmax")
    n = max(2, _grid_cells(g, args.kmin, args.kmax) + 1)
    ks = np.linspace(args.kmin, args.kmax, n)

    def rows():
        # block by block, so only one block is held at a time
        for i in range(0, n, _SECULAR_BLOCK):
            for v in secular(g, ks[i : i + _SECULAR_BLOCK]):
                yield "%.12e,%.12e,%.12e,%.12e\n" % (v.k.real, v.zeta.real, v.zeta.imag, v.theta)

    _write_csv(
        os.path.join(args.out, "secular.csv"),
        ["k", "zeta_re", "zeta_im", "theta"],
        rows(),
        cfg_hash,
    )
    meta.update({"n_points": n, "grid_step": (args.kmax - args.kmin) / (n - 1)})
    return os.path.join(args.out, "meta.json"), meta


def _cmd_wkb_compare(args, g, meta, cfg_hash: str) -> Tuple[str, Dict]:
    _require_finite(args, "kmin", "kmax")
    if args.kmin <= 0 or args.kmax < args.kmin:
        raise InputError("wkb-compare needs 0 < kmin <= kmax")
    if not math.isfinite(args.kmax * args.kmax):
        raise InputError(f"wkb-compare needs --kmax whose square is finite, not {args.kmax:g}")
    ks = []
    k = args.kmin
    while k <= args.kmax * (1 + 1e-12):
        ks.append(k)
        k *= 2.0
    rows = []
    for k in ks:
        delay = wigner_delay(g, k)
        delay_wkb = wkb_wigner_delay(g, k)
        for e in range(len(g.edges)):
            cmp_row = compare_with_exact(g, e, k)
            rows.append(
                "%.12e,%s,%.12e,%.12e,%.12e,%.12e,%.12e,%.12e\n"
                % (
                    k,
                    g.edges[e].eid,
                    cmp_row["deviation"],
                    cmp_row["corrected_deviation"],
                    cmp_row["eta1_sup"],
                    cmp_row["action"],
                    delay,
                    delay_wkb,
                )
            )
    _write_csv(
        os.path.join(args.out, "wkb_compare.csv"),
        [
            "k",
            "edge",
            "deviation",
            "corrected_deviation",
            "eta1_sup",
            "action",
            "wigner_delay",
            "wigner_delay_wkb",
        ],
        rows,
        cfg_hash,
    )
    meta.update({"k_values": ks, "threshold": _threshold(g)})
    return os.path.join(args.out, "meta.json"), meta


def _cmd_orbits(args, g, meta, cfg_hash: str) -> Tuple[str, Dict]:
    if args.nmax < 1:
        raise InputError("--nmax must be >= 1 for orbit enumeration")
    k_sample = args.kmin
    if not 0 < k_sample < math.inf:
        raise InputError("--kmin (the sample k for weights) must be positive and finite")
    blocks = _classes(g, args.nmax)
    _write_csv(
        os.path.join(args.out, "orbit_table.csv"),
        _ORBIT_HEADER,
        _orbit_lines(g, blocks, k_sample),
        cfg_hash,
    )
    per_length = {b.states.shape[1]: len(b.states) for b in blocks}
    meta.update(
        {
            "n_orbits": sum(per_length.values()),
            "n_max": args.nmax,
            "k_sample": k_sample,
            "classes_per_length": {
                str(n): per_length.get(n, 0) for n in range(1, args.nmax + 1)
            },
        }
    )
    return os.path.join(args.out, "meta.json"), meta


_DISPATCH = {
    "spectrum": _cmd_spectrum,
    "trace-check": _cmd_trace_check,
    "secular-scan": _cmd_secular_scan,
    "wkb-compare": _cmd_wkb_compare,
    "orbits": _cmd_orbits,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _make_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        g, input_sha, params, cfg_hash = _load(args)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise InputError(f"cannot create --out {args.out!r}: {exc.strerror or exc}")
        meta = _meta_base(args, g, input_sha, params, cfg_hash)
        report_path, payload = _DISPATCH[args.command](args, g, meta, cfg_hash)
        # Timing is one well-known key, which reproducibility comparisons
        # strip.
        payload["timing"] = {"wall_time_s": time.perf_counter() - started}
        _write_json(report_path, payload)
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
