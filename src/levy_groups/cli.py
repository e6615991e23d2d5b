"""Command-line front end: every computation with reproducible seeds and
machine-readable (csv/json) output.

Exit codes: 0 success, 1 negative finding (witness not found, kernel not
PSD where positivity was required), 2 invalid arguments.  A handler
``(cfg, group, rng)`` computes and writes; it raises a finding or a bad
flag, and ``run`` alone reports it on stderr and picks the exit code.
Identical command lines produce byte-identical output up to the
generated_at meta field; --no-meta removes the meta block.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__, canonical, field_sim, group_core, harmonic, kernel_lab, lapack
from .quadrature import QuadratureError, quadrature_bytes
from .rng import IMPORT_BYTES, KEY_LIMIT, RngStream

EXIT_OK = 0
EXIT_NEGATIVE_FINDING = 1
EXIT_USAGE = 2
FORMATS = ("csv", "json")


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
    seed: int = 0
    stream: int = 0
    tol: Optional[float] = None
    margin: float = kernel_lab.DEFAULT_MARGIN
    jitter: float = field_sim.DEFAULT_JITTER
    format: str = "json"
    out: str = "-"
    no_meta: bool = False
    command_line: str = ""

    def __post_init__(self):  # an unknown command gets no defaults; _validate refuses it
        spec = COMMANDS.get(self.command)
        self.points = getattr(spec, "points", None) if self.points is None else self.points
        self.tol = getattr(spec, "tol", None) if self.tol is None else self.tol


class Command(NamedTuple):
    """One subcommand, as the parser, RunConfig, _validate and run see it."""

    summary: str
    groups: tuple[str, ...]             # its --group choices
    flags: tuple[str, ...]              # the RunConfig fields it takes, keys of _FLAGS
    least: dict                         # field -> least value (--n only with --group son)
    charge: Callable[..., int]          # (cfg, group) -> estimated peak bytes
    handler: Callable[..., None]        # (cfg, group, rng); raises what run reports
    points: int = 100                   # default --points
    tol: float = harmonic.QUADRATURE_TOL  # default --tol
    group_required: bool = True
    formats: tuple[str, ...] = FORMATS


# RunConfig field -> (option, argparse type, help); the parser adds the command's default
_FLAGS = {
    "n": ("--n", int, "n of SO(n), required with --group son"),
    "lmax": ("--lmax", int, "highest degree"),
    "tol": ("--tol", float, "quadrature (coeffs) or relative eigenvalue (check) tolerance"),
    "mc_samples": ("--mc-n", int, "Monte Carlo pairs per coefficient; 0 disables"),
    "points": ("--points", int, "Haar samples"),
    "trials": ("--trials", int, "point sets to try"),
    "margin": ("--margin", float, "value a witness must clear"),
    "realizations": ("--realizations", int, "field draws"),
    "jitter": ("--jitter", float, "first Cholesky jitter, as a fraction below 1 of max K_ii"),
}


class UsageError(Exception):
    """Invalid flag combination; the message names the offending flag."""


class NegativeFinding(Exception):
    """A computed answer of no: run reports it as ``<command>: <message>``, exit 1."""


_FINDINGS = (NegativeFinding, kernel_lab.WitnessNotFoundError, field_sim.KernelNotPSDError)


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code) if exc.code else EXIT_OK
    return run(config_from_args(ns, argv))


def run(config: RunConfig) -> int:
    """Execute a RunConfig; returns the exit code, 1 or 2 with the finding or flag on stderr.

    BLAS runs on one thread for the run, so the output's bytes do not depend
    on OPENBLAS_NUM_THREADS or the core count; the count it had is restored
    after.  Without numpy's bundled OpenBLAS nothing is pinned, and the meta
    block says so."""
    before = lapack.set_threads(1)
    try:
        group = _validate(config)
        COMMANDS[config.command].handler(config, group, RngStream(config.seed, config.stream))
        return EXIT_OK
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _FINDINGS as exc:
        print(f"{config.command}: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE_FINDING
    finally:
        if before is not None:
            lapack.set_threads(before)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads, built once a process: parsing leaves no state in it."""
    return build_parser()


def build_parser() -> argparse.ArgumentParser:
    """A new parser of every subcommand in COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="levy-groups",
        description="Brownian kernels and character expansions on SU(2)/SO(n)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # flags left out stay out of the namespace: RunConfig holds every default
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--seed", type=_parse_seed, help="64-bit seed, or 'random' for "
                        f"one-off entropy (default {RunConfig.seed})")
    common.add_argument("--stream", type=int, help=f"stream id (default {RunConfig.stream})")
    common.add_argument("--format", choices=FORMATS)
    common.add_argument("--out", help="output path, '-' for stdout")
    common.add_argument("--no-meta", action="store_true",
                        help="omit the meta block (volatile fields) entirely")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=spec.summary,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--group", choices=spec.groups, required=spec.group_required)
        defaults = RunConfig(name)
        for dest in spec.flags:
            option, kind, text = _FLAGS[dest]
            default = getattr(defaults, dest)
            p.add_argument(option, type=kind, dest=dest,
                           help=text if default is None else f"{text} (default {default})")
    return parser


def config_from_args(ns: argparse.Namespace, argv: list[str]) -> RunConfig:
    given = {f.name: getattr(ns, f.name) for f in fields(RunConfig) if hasattr(ns, f.name)}
    return RunConfig(**given, command_line="levy-groups " + " ".join(argv))


def _parse_seed(raw: str) -> int:
    if raw == "random":
        return int(np.random.SeedSequence().entropy) & ((1 << 64) - 1)
    try:
        return int(raw, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer or 'random', got {raw!r}")


def _validate(cfg: RunConfig):
    """Raise UsageError naming the first bad flag; else return the group descriptor."""
    spec = COMMANDS.get(cfg.command)
    if spec is None:
        raise UsageError(f"unknown command {cfg.command!r} (choose from {', '.join(COMMANDS)})")
    for flag, allowed in (("group", spec.groups), ("format", spec.formats)):
        if getattr(cfg, flag) not in allowed:
            raise UsageError(f"--{flag} must be one of {', '.join(allowed)} for {cfg.command}")
    if (cfg.n is None) == (cfg.group == "son"):
        raise UsageError("--n is required with --group son" if cfg.n is None
                         else "--n is only valid with --group son")
    for flag in ("seed", "stream"):  # RngStream would fold others onto [0, 2^64)
        if not 0 <= getattr(cfg, flag) < KEY_LIMIT:
            raise UsageError(f"--{flag} must be in [0, 2^64), got {getattr(cfg, flag)}")
    for flag in ("tol", "jitter", "margin"):
        if not 0.0 < getattr(cfg, flag) < math.inf:  # also rejects nan
            raise UsageError(f"--{flag} must be a positive finite number")
    if cfg.jitter >= 1.0:
        raise UsageError("--jitter must be below 1: it is a fraction of K's largest diagonal entry")
    if cfg.out != "-" and (not cfg.out or os.path.isdir(cfg.out)
                           or not os.path.isdir(os.path.dirname(cfg.out) or ".")):
        raise UsageError(f"--out {cfg.out!r} is not a file path in an existing directory")
    if cfg.mc_samples != 0 and cfg.mc_samples < 1000:
        raise UsageError("--mc-n must be 0 or >= 1000")
    for flag, least in spec.least.items():
        if getattr(cfg, flag) is not None and getattr(cfg, flag) < least:
            raise UsageError(f"{_FLAGS[flag][0]} must be >= {least} for {cfg.command}")
    group = group_core.group_named(cfg.group, cfg.n)
    need = charge(cfg, group)
    have = (os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
            if hasattr(os, "sysconf") else math.inf)
    if need > have:
        sizes = " ".join(f"{_FLAGS[k][0]} {getattr(cfg, k)}" for k in ("points", "n", "lmax")
                         if k in spec.flags and getattr(cfg, k) is not None)
        raise UsageError(f"{sizes} needs about {need / 1e9:.3g} GB for {cfg.command}, "
                         f"more than the {have / 1e9:.3g} GB of physical memory")
    return group


def charge(cfg: RunConfig, group) -> int:
    """Estimated peak bytes of a valid run: its command's charge and numpy.random's import."""
    return COMMANDS[cfg.command].charge(cfg, group) + IMPORT_BYTES


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def _emit(cfg: RunConfig, doc: dict, header, rows) -> None:
    """Stream ``doc`` as canonical JSON, or ``header`` and ``rows`` as CSV,
    to --out or stdout.

    The meta block goes inside the JSON document, or above the CSV header
    as ``# key: value`` lines; ``--no-meta`` drops it.  ``rows`` is only
    iterated for CSV, so it may be a generator.  --out is opened at the
    first chunk written, so a non-finite value the writers raise on before
    it (any in a table, or in a document under one chunk) leaves --out as
    it was.
    """
    meta = {} if cfg.no_meta else {
        "tool_version": __version__,
        "command": cfg.command_line or cfg.command,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "blas_core": lapack.core_name() or "unknown",
        "blas_threads": lapack.threads() or "unpinned",
    }
    out = sys.stdout if cfg.out == "-" else _Output(cfg.out)
    try:
        if cfg.format == "json":
            canonical.dump({**doc, "meta": meta} if meta else doc, out)
        else:
            canonical.dump_csv(header, rows, out, (f"{k}: {v}" for k, v in meta.items()))
    finally:
        if out is not sys.stdout:
            out.close()


class _Output:
    """A text file opened for writing at its first write.  An OSError on it
    is a UsageError naming --out, reported with exit 2."""

    def __init__(self, path: str):
        self.path, self.fh = path, None

    def write(self, text: str) -> None:
        with self._naming_out():
            if self.fh is None:
                self.fh = open(self.path, "w", newline="")
            self.fh.write(text)

    def close(self) -> None:
        with self._naming_out():
            if self.fh is not None:
                self.fh.close()

    @contextlib.contextmanager
    def _naming_out(self):
        try:
            yield
        except OSError as exc:
            raise UsageError(f"--out {self.path!r}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _run_coeffs(cfg: RunConfig, group, rng: RngStream) -> None:
    try:
        rows = harmonic.coefficients(group, cfg.lmax, cfg.mc_samples, rng, cfg.tol)
    except QuadratureError as exc:
        raise UsageError(f"--tol {cfg.tol:g} is below what the quadrature reaches: {exc}")
    _emit(cfg, {
        "schema_version": "1", "kind": "coeffs", "group": cfg.group,
        "lmax": cfg.lmax, "mc_samples": cfg.mc_samples,
        "seed": cfg.seed, "stream": cfg.stream, "rows": rows,
    }, rows.row._fields, rows)


def _run_check(cfg: RunConfig, group, rng: RngStream) -> None:
    x = group.sample(rng, cfg.points)
    audit = kernel_lab.gram_audit(group, x)
    psd = audit.is_positive_semidefinite(cfg.tol)
    rnd = audit.is_restricted_negative(cfg.tol)
    equiv = psd == rnd
    doc = {
        "schema_version": "2", "kind": "check", "group": cfg.group,
        "n": getattr(group, "n", None), "points": cfg.points,
        "seed": cfg.seed, "stream": cfg.stream,
        "min_K_eig": audit.min_K_eig,
        "max_centered_eig": audit.max_centered_eig,
        "kernel_psd": psd, "restricted_negative": rnd,
        "equivalence_ok": equiv, "tol_rel": cfg.tol, "method": audit.method,
    }
    _emit(cfg, doc, ["key", "value"],
          (kv for kv in doc.items() if kv[0] not in ("schema_version", "kind")))
    if not (psd and equiv):
        raise NegativeFinding("kernel is not positive semidefinite on this configuration")


def _run_witness(cfg: RunConfig, group, rng: RngStream) -> None:
    cert = kernel_lab.find_witness(group, cfg.points, cfg.trials, rng, margin=cfg.margin)
    _emit(cfg, cert.to_doc(), (), ())


def _run_simulate(cfg: RunConfig, group, rng: RngStream) -> None:
    fs = field_sim.build_field(group, group.sample(rng, cfg.points), jitter=cfg.jitter)
    rows = field_sim.empirical_variogram(fs, cfg.realizations, rng)
    _emit(cfg, {
        "schema_version": "3", "kind": "simulate", "group": cfg.group,
        "points": cfg.points, "realizations": cfg.realizations,
        "jitter": cfg.jitter, "jitter_used": fs.jitter_used,
        "seed": cfg.seed, "stream": cfg.stream,
        "rows": rows,
    }, rows.row._fields, rows)


def _run_haar(cfg: RunConfig, group, rng: RngStream) -> None:
    samples = group.sample(rng, cfg.points).reshape(cfg.points, -1)
    _emit(cfg, {
        "schema_version": "1", "kind": "haar", "group": cfg.group,
        "n": getattr(group, "n", None), "count": cfg.points,
        "seed": cfg.seed, "stream": cfg.stream, "samples": samples,
    }, group.columns, samples)


# each subcommand's groups, flags, least values, --points and --tol defaults, memory
# charge and handler; a flag only one command takes has its default in RunConfig, and a
# charge too large for memory names the command's own --points, --n and --lmax.
# A charge adds the charges the modules state for their arrays and, for the output,
# which streams whatever its length, the writer's pass (canonical.dump_bytes).
COMMANDS = {
    "coeffs": Command("expansion coefficients by closed form, quadrature, Monte Carlo",
                      ("su2", "so3"), ("lmax", "tol", "mc_samples"), {"lmax": 0},
                      lambda cfg, group: (harmonic.monte_carlo_bytes(cfg.lmax, cfg.mc_samples)
                                          + quadrature_bytes()),
                      _run_coeffs),
    "check": Command("eigenvalue audit of the Brownian kernel on Haar points",
                     ("su2", "so3", "son"), ("n", "points", "tol"), {"n": 2, "points": 2},
                     lambda cfg, group: (group.sample_bytes(cfg.points)
                                         + kernel_lab.audit_bytes(group, cfg.points)),
                     _run_check, tol=kernel_lab.RELATIVE_EIG_TOL),
    "witness": Command("search for a restricted-negative-definiteness counterexample",
                       ("su2", "so3", "son"), ("n", "points", "trials", "margin"),
                       {"n": 4, "points": 5, "trials": 1},
                       lambda cfg, group: kernel_lab.witness_bytes(group, cfg.points),
                       _run_witness, formats=("json",)),  # certificates are JSON
    "simulate": Command("the pinned Gaussian field's variogram, from the Gram matrix of "
                        "its realizations drawn in law; --group so3 runs the "
                        "expected-to-fail diagnostic",
                        ("su2", "so3"), ("points", "realizations", "jitter"),
                        {"points": 1, "realizations": 100},
                        lambda cfg, group: (field_sim.variogram_bytes(cfg.points, cfg.realizations)
                                            + canonical.dump_bytes()),
                        _run_simulate, points=50, group_required=False),
    # one row a point: --group su2 --points 1,000,000 grew 38.8 MiB in JSON and in CSV,
    # 10.2 B per float of the samples.  An SO(n) row wider than a chunk of cells is a
    # pass of its own, beside the QR copies of one n x n draw: --group son --n 400
    # --points 2 grew 42.4 MiB in JSON and 49.0 in CSV, charged 67.5
    "haar": Command("raw Haar samples", ("su2", "so3", "son"), ("n", "points"),
                    {"n": 2, "points": 1},
                    lambda cfg, group: (group.sample_bytes(cfg.points)
                                        + canonical.dump_bytes(group.point_size)),
                    _run_haar, points=10),
}


if __name__ == "__main__":
    sys.exit(main())
