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
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from . import __version__, canonical, field_sim, group_core, harmonic, kernel_lab
from .canonical import format_float
from .harmonic import GroupTag
from .rng import RngStream

THREADS_ENV_VAR = "LEVY_GROUPS_THREADS"

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
    threads: int = 1
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
    common.add_argument("--threads", type=int,
                        help=f"stream-splitting width ({THREADS_ENV_VAR} as fallback)")
    common.add_argument("--tol", type=float,
                        help="tolerance (quadrature for coeffs, relative eig for check)")

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, groups, summary, required=True):
        p = sub.add_parser(name, parents=[common], help=summary,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--group", choices=groups, required=required)
        return p

    p = command("coeffs", ["su2", "so3"],
                "expansion coefficients by closed form, quadrature, Monte Carlo")
    p.add_argument("--lmax", type=int)
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
    env = os.environ.get(THREADS_ENV_VAR)
    if "threads" not in given and env is not None:
        try:
            given["threads"] = int(env)
        except ValueError:
            raise UsageError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}")
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
    if cfg.threads < 1:
        raise UsageError("--threads must be >= 1")
    if cfg.tol <= 0:
        raise UsageError("--tol must be positive")
    if cfg.jitter <= 0:
        raise UsageError("--jitter must be positive")
    if cfg.margin <= 0:
        raise UsageError("--margin must be positive")
    if cfg.command == "coeffs":
        if cfg.mc_samples != 0 and cfg.mc_samples < 1000:
            raise UsageError("--mc-n must be 0 or >= 1000")
        if cfg.mc_samples and cfg.mc_samples // cfg.threads < 1000:
            raise UsageError("--mc-n per thread must stay >= 1000; lower --threads")
    if cfg.command == "densities" and cfg.points < 1:
        raise UsageError("--points must be >= 1")
    if cfg.command == "densities" and cfg.bins < 1:
        raise UsageError("--bins must be >= 1")
    if cfg.command == "check" and cfg.points < 2:
        raise UsageError("--points must be >= 2 for check")
    if cfg.command == "witness" and cfg.points < 4:
        raise UsageError("--points must be >= 4 for witness")
    if cfg.command == "witness" and cfg.trials < 1:
        raise UsageError("--trials must be >= 1")
    if cfg.command == "simulate":
        if cfg.points < 1:
            raise UsageError("--points must be >= 1")
        if cfg.realizations < 100:
            raise UsageError("--realizations must be >= 100")
    if cfg.command == "haar" and cfg.points < 1:
        raise UsageError("--points must be >= 1")


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def _meta(cfg: RunConfig) -> Optional[dict]:
    if cfg.no_meta:
        return None
    return {
        "tool_version": __version__,
        "command": cfg.command_line or cfg.command,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _write_text(cfg: RunConfig, text: str) -> None:
    if cfg.out == "-":
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", newline="") as fh:
            fh.write(text)


def _emit_json(cfg: RunConfig, doc: dict) -> None:
    meta = _meta(cfg)
    if meta is not None:
        doc["meta"] = meta
    _write_text(cfg, canonical.dumps(doc))


def _emit_csv(cfg: RunConfig, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    meta = _meta(cfg)
    if meta is not None:
        for k, v in meta.items():
            buf.write(f"# {k}: {v}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    _write_text(cfg, buf.getvalue())


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
    group = GroupTag(cfg.group)
    rng = RngStream(cfg.seed, cfg.stream)
    streams = rng.split(cfg.threads) if cfg.threads > 1 else [rng]
    rows = []
    for l in range(cfg.lmax + 1):
        closed = harmonic.alpha_closed(group, l)
        quad = harmonic.alpha_quadrature(group, l, tol=cfg.tol)
        mc = se = None
        if cfg.mc_samples:
            shares = _shares(cfg.mc_samples, len(streams))
            parts = [
                harmonic.alpha_monte_carlo(group, l, n_i, s) + (n_i,)
                for s, n_i in zip(streams, shares)
            ]
            mc, se = harmonic.combine_mc_estimates(parts)
        rows.append({"l": l, "dim": harmonic.dim_irrep(group, l),
                     "closed": closed, "quadrature": quad,
                     "monte_carlo": mc, "stderr": se})
    if cfg.format == "json":
        _emit_json(cfg, {
            "schema_version": "1", "kind": "coeffs", "group": cfg.group,
            "lmax": cfg.lmax, "mc_samples": cfg.mc_samples,
            "seed": cfg.seed, "stream": cfg.stream, "rows": rows,
        })
    else:
        _emit_csv(cfg, ["l", "dim", "closed", "quadrature", "monte_carlo", "stderr"],
                  [[r["l"], r["dim"], _cell(r["closed"]), _cell(r["quadrature"]),
                    _cell(r["monte_carlo"]), _cell(r["stderr"])] for r in rows])
    return EXIT_OK


def _shares(total: int, k: int) -> list[int]:
    base, rem = divmod(total, k)
    return [base + (1 if i < rem else 0) for i in range(k)]


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
    if cfg.format == "json":
        _emit_json(cfg, {
            "schema_version": "1", "kind": "densities", "group": cfg.group,
            "samples": cfg.points, "bins": cfg.bins,
            "seed": cfg.seed, "stream": cfg.stream, "series": out_series,
        })
    else:
        rows = []
        for s in out_series:
            for r in s["rows"]:
                rows.append([s["name"], _cell(r["center"]), _cell(r["width"]),
                             _cell(r["empirical"]), _cell(r["theoretical"])])
        _emit_csv(cfg, ["series", "center", "width", "empirical", "theoretical"], rows)
    return EXIT_OK


def _run_check(cfg: RunConfig) -> int:
    group = group_core.group_named(cfg.group, cfg.n)
    x = group.sample(RngStream(cfg.seed, cfg.stream), cfg.points)
    audit = kernel_lab.gram_audit(list(map(group.element, x)))
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
    if cfg.format == "json":
        _emit_json(cfg, doc)
    else:
        _emit_csv(cfg, ["key", "value"],
                  [[k, _cell(v)] for k, v in doc.items() if k not in ("schema_version", "kind")])
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
    doc = json.loads(cert.to_json())
    _emit_json(cfg, doc)
    return EXIT_OK


def _run_simulate(cfg: RunConfig) -> int:
    rng = RngStream(cfg.seed, cfg.stream)
    group = group_core.group_named(cfg.group)
    points = list(map(group.element, group.sample(rng, cfg.points)))
    try:
        fs = field_sim.build_field(points, jitter=cfg.jitter)
    except field_sim.KernelNotPSDError as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE_FINDING
    if cfg.threads > 1:
        streams = rng.split(cfg.threads)
        chunks = [field_sim.sample_field(fs, r_i, s).values
                  for s, r_i in zip(streams, _shares(cfg.realizations, cfg.threads))]
        fs = replace(fs, values=np.hstack(chunks))
    else:
        fs = field_sim.sample_field(fs, cfg.realizations, rng)
    rows = field_sim.empirical_variogram(fs)
    if cfg.format == "json":
        _emit_json(cfg, {
            "schema_version": "1", "kind": "simulate", "group": cfg.group,
            "points": cfg.points, "realizations": cfg.realizations,
            "jitter": cfg.jitter, "jitter_used": fs.jitter_used,
            "seed": cfg.seed, "stream": cfg.stream,
            "rows": [{"pair_i": r.pair_i, "pair_j": r.pair_j,
                      "distance": r.distance, "estimate": r.estimate,
                      "stderr": r.stderr} for r in rows],
        })
    else:
        buf = io.StringIO()
        meta = _meta(cfg)
        if meta is not None:
            for k, v in meta.items():
                buf.write(f"# {k}: {v}\n")
        field_sim.write_variogram_csv(rows, buf)
        _write_text(cfg, buf.getvalue())
    return EXIT_OK


def _run_haar(cfg: RunConfig) -> int:
    group = group_core.group_named(cfg.group, cfg.n)
    samples = group.sample(RngStream(cfg.seed, cfg.stream), cfg.points).reshape(cfg.points, -1)
    if cfg.format == "json":
        _emit_json(cfg, {
            "schema_version": "1", "kind": "haar", "group": cfg.group,
            "n": None if group is group_core.SU2 else group.n, "count": cfg.points,
            "seed": cfg.seed, "stream": cfg.stream,
            "samples": [[float(x) for x in row] for row in samples],
        })
    else:
        _emit_csv(cfg, list(group.columns), [[format_float(x) for x in row] for row in samples])
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
