"""The output manifest: sha256 of the ``--no-meta`` stdout, the exit code and
the stderr of small command lines at seeds 1-3, run in process through
``cli.main``, with the OpenBLAS core (``blas_core``) they were recorded on.

``tests/test_golden.py`` compares a fresh run with ``golden/manifest.json``.
A change that moves output bytes on purpose rewrites the manifest; the
writer prints each line and seed whose digest, exit code or stderr moved:

    python tests/golden.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

MANIFEST = Path(__file__).with_name("golden") / "manifest.json"
SEEDS = (1, 2, 3)

# every subcommand and group, both formats, exits 0, 1 and 2
LINES = (
    "coeffs --group su2 --lmax 6 --mc-n 2000",
    "coeffs --group so3 --lmax 6 --mc-n 20000 --format csv",
    "coeffs --group so3 --lmax 4 --mc-n 0",
    "check --group su2 --points 40",
    "check --group su2 --points 300",
    "check --group su2 --points 41",
    "check --group so3 --points 40 --format csv",
    "check --group so3 --points 10",
    "check --group son --n 4 --points 20",
    "witness --group so3 --points 30 --trials 3",
    "witness --group son --n 5 --points 20 --trials 2",
    "witness --group su2 --points 20 --trials 2",
    "simulate --points 20 --realizations 500 --format csv",
    "simulate --points 20 --realizations 500",
    "simulate --group so3 --points 30 --realizations 200",
    "haar --group su2 --points 5 --format csv",
    "haar --group so3 --points 3",
    "haar --group son --n 4 --points 2 --format csv",
    "coeffs --group su2 --mc-n 10",
    "haar --group su2 --n 3",
)


def run_line(line: str, seed: int) -> dict:
    """Digest of the stdout, exit code and stderr of one command line at one seed."""
    from levy_groups import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*line.split(), "--seed", str(seed), "--no-meta"])
    return {"sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "exit": code, "stderr": err.getvalue()}


def blas_core() -> str:
    from levy_groups import lapack

    return lapack.core_name() or "unknown"


def record() -> dict:
    """The manifest of this tree."""
    return {"blas_core": blas_core(),
            "lines": {line: {str(s): run_line(line, s) for s in SEEDS} for line in LINES}}


def moves(old: dict, new: dict) -> list[str]:
    """``<line> --seed <s>: <fields>`` for each line and seed of the manifest
    ``new`` whose digest, exit code or stderr differs from ``old``'s."""
    found = []
    for line, seeds in new["lines"].items():
        for seed, got in seeds.items():
            was = old.get("lines", {}).get(line, {}).get(seed, {})
            fields = [k for k in ("sha256", "exit", "stderr") if was.get(k) != got[k]]
            if fields:
                found.append(f"{line} --seed {seed}: {', '.join(fields)}")
    return found


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/golden.py --write")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    new = record()
    for moved in moves(old, new):
        print(f"moved: {moved}")
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(new, indent=1) + "\n")
    print(f"wrote {MANIFEST}")
