"""Command-line front end: every computation with reproducible seeds and
machine-readable (csv/json) output.

Exit codes: 0 success, 1 negative finding (witness not found, kernel not
PSD where positivity was required), 2 invalid arguments.  All diagnostics
go to stderr.  Identical command lines produce byte-identical output up
to the generated_at meta field; --no-meta removes the meta block.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from . import __version__, canonical, field_sim, group_core, harmonic, kernel_lab
from .canonical import format_float
from .harmonic import GroupTag
from .rng import RngStream

EXIT_OK = 0
EXIT_NEGATIVE_FINDING = 1
EXIT_USAGE = 2


@dataclass
class RunConfig:
    """One run, with the CLI's defaults; ``points`` and ``tol`` left None take the command's."""

    command: str
    group: str = "su2"
    n: Optional[int] = None
    lmax: int = 50
    points: Optional[int] = None
    trials: int = 10
    realizations: int = 10000
    mc_samples: int = 100000
    bins: int = 60
    seed: int = 0
    stream: int = 0
    tol: Optional[float] = None
    margin: float = kernel_lab.DEFAULT_MARGIN
    jitter: float = field_sim.DEFAULT_JITTER
    format: str = "json"
    out: str = "-"
    no_meta: bool = False
    command_line: str = ""

    def __post_init__(self):
        if self.points is None:
            self.points = {"densities": 100000, "simulate": 50, "haar": 10}.get(self.command, 100)
        if self.tol is None:
            self.tol = 1e-8 if self.command == "check" else 1e-10


class UsageError(Exception):
    """Invalid flag combination; the message names the offending flag."""


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code) if exc.code else EXIT_OK
    try:
        config = config_from_args(ns, argv)
        return run(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run(config: RunConfig) -> int:
    """Execute a validated RunConfig; returns the process exit code."""
    _validate(config)
    handler = {
        "coeffs": _run_coeffs,
        "densities": _run_densities,
        "check": _run_check,
        "witness": _run_witness,
        "simulate": _run_simulate,
        "haar": _run_haar,
    }[config.command]
    return handler(config)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levy-groups",
        description="Brownian kernels and character expansions on SU(2)/SO(n)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # flags left out stay out of the namespace: RunConfig holds every default
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--seed", help="64-bit seed, or 'random' for one-off entropy "
                        f"(default {RunConfig.seed})")
    common.add_argument("--stream", type=int, help=f"stream id (default {RunConfig.stream})")
    common.add_argument("--format", choices=["csv", "json"])
    common.add_argument("--out", help="output path, '-' for stdout")
    common.add_argument("--no-meta", action="store_true",
                        help="omit the meta block (volatile fields) entirely")

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, groups, summary, required=True):
        p = sub.add_parser(name, parents=[common], help=summary,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--group", choices=groups, required=required)
        return p

    p = command("coeffs", ["su2", "so3"],
                "expansion coefficients by closed form, quadrature, Monte Carlo")
    p.add_argument("--lmax", type=int)
    p.add_argument("--tol", type=float, help="quadrature tolerance")
    p.add_argument("--mc-n", type=int, dest="mc_samples",
                   help=f"Monte Carlo pairs per coefficient; 0 disables "
                        f"(default {RunConfig.mc_samples})")

    p = command("densities", ["su2", "so3"],
                "angle/trace density curves with empirical histograms")
    p.add_argument("--points", type=int, help="Haar samples")
    p.add_argument("--bins", type=int)

    p = command("check", ["su2", "so3", "son"],
                "eigenvalue audit of the Brownian kernel on Haar points")
    p.add_argument("--n", type=int)
    p.add_argument("--points", type=int)
    p.add_argument("--tol", type=float, help="relative eigenvalue tolerance")

    p = command("witness", ["su2", "so3", "son"],
                "search for a restricted-negative-definiteness counterexample")
    p.add_argument("--n", type=int)
    p.add_argument("--points", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--margin", type=float)

    p = command("simulate", ["su2", "so3"],
                "sample the pinned Gaussian field and emit its variogram; "
                "--group so3 runs the expected-to-fail diagnostic", required=False)
    p.add_argument("--points", type=int)
    p.add_argument("--realizations", type=int)
    p.add_argument("--jitter", type=float)

    p = command("haar", ["su2", "so3", "son"], "raw Haar samples")
    p.add_argument("--n", type=int)
    p.add_argument("--points", type=int)

    return parser


def config_from_args(ns: argparse.Namespace, argv: list[str]) -> RunConfig:
    given = {f.name: getattr(ns, f.name) for f in fields(RunConfig) if hasattr(ns, f.name)}
    if "seed" in given:
        given["seed"] = _parse_seed(given["seed"])
    return RunConfig(**given, command_line="levy-groups " + " ".join(argv))


def _parse_seed(raw: str) -> int:
    if raw == "random":
        return int(np.random.SeedSequence().entropy) & ((1 << 64) - 1)
    try:
        return int(raw, 0)
    except ValueError:
        raise UsageError(f"--seed must be an integer or 'random', got {raw!r}")


def _validate(cfg: RunConfig) -> None:
    if cfg.group == "son":
        if cfg.n is None:
            raise UsageError("--n is required with --group son")
        if cfg.command == "witness":
            if cfg.n <= 3:
                raise UsageError("--n must be > 3 for witness with --group son")
        elif cfg.n < 2:
            raise UsageError("--n must be >= 2")
    elif cfg.n is not None:
        raise UsageError("--n is only valid with --group son")
    if cfg.command == "witness" and cfg.format == "csv":
        raise UsageError("--format csv is not supported for witness (certificates are JSON)")
    if cfg.lmax < 0:
        raise UsageError("--lmax must be >= 0")
    if cfg.tol <= 0:
        raise UsageError("--tol must be positive")
    if cfg.jitter <= 0:
        raise UsageError("--jitter must be positive")
    if cfg.margin <= 0:
        raise UsageError("--margin must be positive")
    if cfg.command == "coeffs" and cfg.mc_samples != 0 and cfg.mc_samples < 1000:
        raise UsageError("--mc-n must be 0 or >= 1000")
    if cfg.command in ("densities", "simulate", "haar") and cfg.points < 1:
        raise UsageError("--points must be >= 1")
    if cfg.command == "densities" and cfg.bins < 1:
        raise UsageError("--bins must be >= 1")
    if cfg.command == "check" and cfg.points < 2:
        raise UsageError("--points must be >= 2 for check")
    if cfg.command == "witness" and cfg.points < 4:
        raise UsageError("--points must be >= 4 for witness")
    if cfg.command == "witness" and cfg.trials < 1:
        raise UsageError("--trials must be >= 1")
    if cfg.command == "simulate" and cfg.realizations < 100:
        raise UsageError("--realizations must be >= 100")
    need = _peak_bytes(cfg)
    have = (os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
            if hasattr(os, "sysconf") else math.inf)
    if need > have:
        size_flags = {"coeffs": (), "densities": ("points", "bins"),
                      "simulate": ("points", "realizations")}.get(cfg.command, ("points", "n"))
        sizes = " ".join(f"--{k} {getattr(cfg, k)}" for k in size_flags
                         if getattr(cfg, k) is not None)
        raise UsageError(f"{sizes} needs about {need / 1e9:.3g} GB for {cfg.command}, "
                         f"more than the {have / 1e9:.3g} GB of physical memory")


def _peak_bytes(cfg: RunConfig) -> int:
    """Estimated peak memory in bytes, from the arrays a command holds at once.

    Measured above the interpreter (VmHWM, numpy 2.4): check holds 4.5 float64
    m x m matrices' worth, witness 8.5; simulate about 5 over its m + 1 points,
    two (m, realizations) arrays (the normals and the values they are drawn
    into) and 0.8 kB per variogram row in JSON (0.4 kB in CSV).  Per entry of
    the m sampled points (4 on SU(2), n^2 on SO(n)): densities 20-34 B (sample,
    QR copies, angles), check 39-40 B (the sampler's QR copies and one row of
    pairwise products), witness on SO(n) 90 B (embedded points and JSON), haar
    187-245 B (JSON text); densities 1.23 kB per bin and series; coeffs about
    30 float64 arrays of one Monte Carlo chunk.  Rounded up below; a fixed few
    MB of BLAS and LAPACK scratch is left out.
    """
    m = cfg.points
    entries = m * (4 if cfg.group == "su2" else (cfg.n or 3) ** 2)
    if cfg.command == "coeffs":
        return 32 * 8 * harmonic._MC_CHUNK
    if cfg.command == "densities":
        return 40 * entries + 1300 * cfg.bins * (2 if cfg.group == "so3" else 1)
    if cfg.command == "check":
        return 5 * 8 * m * m + 48 * entries
    if cfg.command == "witness":
        return 10 * 8 * m * m + 112 * entries
    if cfg.command == "simulate":
        return 6 * 8 * (m + 1) ** 2 + 2 * 8 * m * cfg.realizations + 1000 * m * (m + 1) // 2
    return 256 * entries  # haar


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def _emit(cfg: RunConfig, doc: dict, header, rows) -> None:
    """Write ``doc`` as canonical JSON, or ``header`` and ``rows`` as CSV.

    The meta block goes inside the JSON document, or above the CSV header
    as ``# key: value`` lines; ``--no-meta`` drops it.  ``rows`` is only
    iterated for CSV, so it may be a generator.
    """
    meta = {} if cfg.no_meta else {
        "tool_version": __version__,
        "command": cfg.command_line or cfg.command,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    if cfg.format == "json":
        if meta:
            doc["meta"] = meta
        text = canonical.dumps(doc)
    else:
        buf = io.StringIO()
        buf.writelines(f"# {k}: {v}\n" for k, v in meta.items())
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        w.writerows(map(_cell, row) for row in rows)
        text = buf.getvalue()
    if cfg.out == "-":
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", newline="") as fh:
            fh.write(text)


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format_float(x)
    return str(x)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _run_coeffs(cfg: RunConfig) -> int:
    table = harmonic.CoefficientTable.compute(
        GroupTag(cfg.group), cfg.lmax, cfg.mc_samples, RngStream(cfg.seed, cfg.stream), cfg.tol)
    _emit(cfg, {
        "schema_version": "1", "kind": "coeffs", "group": cfg.group,
        "lmax": cfg.lmax, "mc_samples": cfg.mc_samples,
        "seed": cfg.seed, "stream": cfg.stream, "rows": table.rows,
    }, harmonic.CoefficientRow._fields, table.rows)
    return EXIT_OK


def _run_densities(cfg: RunConfig) -> int:
    tag = GroupTag(cfg.group)
    group = group_core.group_named(cfg.group)
    x = group.sample(RngStream(cfg.seed, cfg.stream), cfg.points)
    series = [("angle", group.distances(x, group.identity), (0.0, math.pi),
               lambda t: harmonic.angle_density(tag, t))]
    if tag is GroupTag.SO3:
        series.append(("trace", np.trace(x, axis1=-2, axis2=-1), (-1.0, 3.0),
                       harmonic.trace_density_so3))
    out_series = []
    for name, values, rng_bounds, density in series:
        hist, edges = np.histogram(values, bins=cfg.bins, range=rng_bounds, density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        width = float(edges[1] - edges[0])
        out_series.append({
            "name": name,
            "rows": [{"center": float(c), "width": width,
                      "empirical": float(e), "theoretical": float(density(c))}
                     for c, e in zip(centers, hist)],
        })
    _emit(cfg, {
        "schema_version": "1", "kind": "densities", "group": cfg.group,
        "samples": cfg.points, "bins": cfg.bins,
        "seed": cfg.seed, "stream": cfg.stream, "series": out_series,
    }, ["series", "center", "width", "empirical", "theoretical"],
        ((s["name"], *r.values()) for s in out_series for r in s["rows"]))
    return EXIT_OK


def _run_check(cfg: RunConfig) -> int:
    group = group_core.group_named(cfg.group, cfg.n)
    x = group.sample(RngStream(cfg.seed, cfg.stream), cfg.points)
    audit = kernel_lab.gram_audit(group, x)
    psd = audit.is_positive_semidefinite(cfg.tol)
    rnd = audit.is_restricted_negative(cfg.tol)
    equiv = psd == rnd
    doc = {
        "schema_version": "1", "kind": "check", "group": cfg.group,
        "n": cfg.n, "points": cfg.points,
        "seed": cfg.seed, "stream": cfg.stream,
        "min_K_eig": audit.min_K_eig,
        "max_centered_eig": audit.max_centered_eig,
        "kernel_psd": psd, "restricted_negative": rnd,
        "equivalence_ok": equiv, "tol_rel": cfg.tol,
    }
    _emit(cfg, doc, ["key", "value"],
          (kv for kv in doc.items() if kv[0] not in ("schema_version", "kind")))
    if not (psd and equiv):
        print("check: kernel is not positive semidefinite on this configuration",
              file=sys.stderr)
        return EXIT_NEGATIVE_FINDING
    return EXIT_OK


def _run_witness(cfg: RunConfig) -> int:
    rng = RngStream(cfg.seed, cfg.stream)
    try:
        cert = kernel_lab.find_witness(
            cfg.group, cfg.points, cfg.trials, rng, n=cfg.n, margin=cfg.margin
        )
    except kernel_lab.WitnessNotFoundError as exc:
        print(f"witness: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE_FINDING
    _emit(cfg, cert.to_doc(), (), ())
    return EXIT_OK


def _run_simulate(cfg: RunConfig) -> int:
    rng = RngStream(cfg.seed, cfg.stream)
    group = group_core.group_named(cfg.group)
    try:
        fs = field_sim.build_field(group, group.sample(rng, cfg.points), jitter=cfg.jitter)
    except field_sim.KernelNotPSDError as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE_FINDING
    rows = field_sim.empirical_variogram(field_sim.sample_field(fs, cfg.realizations, rng))
    _emit(cfg, {
        "schema_version": "1", "kind": "simulate", "group": cfg.group,
        "points": cfg.points, "realizations": cfg.realizations,
        "jitter": cfg.jitter, "jitter_used": fs.jitter_used,
        "seed": cfg.seed, "stream": cfg.stream,
        "rows": rows,
    }, field_sim.VariogramRow._fields, rows)
    return EXIT_OK


def _run_haar(cfg: RunConfig) -> int:
    group = group_core.group_named(cfg.group, cfg.n)
    samples = group.sample(RngStream(cfg.seed, cfg.stream), cfg.points).reshape(cfg.points, -1)
    _emit(cfg, {
        "schema_version": "1", "kind": "haar", "group": cfg.group,
        "n": None if group is group_core.SU2 else group.n, "count": cfg.points,
        "seed": cfg.seed, "stream": cfg.stream, "samples": samples.tolist(),
    }, group.columns, samples)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
