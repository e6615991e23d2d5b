"""One workload run inside a fresh process.

    python3 child.py SPEC.json     run the invocations the spec lists
    python3 child.py --setup-only SPAWNED_AT   print set-up seconds and a reference block

The child imports levy_groups and its CLI, notes when it is ready, then
calls the CLI once per listed invocation, closed loop, one at a time.
Around each timed invocation it runs a block of the reference kernel, a
fixed amount of work in the benchmark's own code that never calls
levy_groups, so the parent can scale wall time to a fixed host speed.
Untimed invocations (a repeated seed, Haar points for the checks) run
after the timed ones.  Results go to the file the spec names; outputs
go where each invocation's --out points.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
import traceback


SETUP_REF_REPS = 10


def reference_matrix():
    import numpy as np

    return (np.arange(200 * 200) % 17 / 17.0).reshape(200, 200)


def reference_rep(matrix) -> float:
    """Seconds for one pass of the reference kernel: a pure-Python loop
    and a 200x200 matrix product."""
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    prod = matrix @ matrix
    elapsed = time.perf_counter() - start
    if acc != 199_999 or not prod[0, 0] >= 0.0:
        raise RuntimeError("reference kernel computed a wrong result")
    return elapsed


def reference_block(matrix, reps: int) -> float:
    """Median seconds per pass over ``reps`` passes."""
    return statistics.median(reference_rep(matrix) for _ in range(reps))


def peak_rss_kb() -> int:
    """High-water RSS of this process image (VmHWM).  ru_maxrss from
    wait4 or getrusage would also count the parent's RSS at spawn time,
    which the kernel carries into a child across exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def invoke(main, argv: list[str]) -> tuple[int, float]:
    start = time.perf_counter()
    try:
        code = main(argv)
    except Exception:  # a crash is a failed invocation; the run goes on
        traceback.print_exc()
        code = -1
    return code, time.perf_counter() - start


def run(spec: dict) -> dict:
    import levy_groups
    import levy_groups.cli as cli

    ready_at = time.perf_counter()
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(levy_groups.__file__).startswith(src + os.sep):
        raise SystemExit(f"levy_groups imported from {levy_groups.__file__}, not from {src}")

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    matrix = reference_matrix()
    reps = spec["ref_reps"]
    refs = [reference_block(matrix, reps)]
    timed = []
    for argv in spec["timed"]:
        code, wall = invoke(cli.main, argv)
        timed.append({"exit": code, "wall_s": wall})
        refs.append(reference_block(matrix, reps))
    result = {"ready_at": ready_at, "timed": timed, "ref_s": refs}
    if tracer:
        result["trace"] = {"layers": tracer.summary(), "counts": dict(tracer.counts),
                           "absent": tracer.absent}
    result["extra"] = [{"exit": invoke(cli.main, argv)[0]} for argv in spec["extra"]]
    result["peak_rss_kb"] = peak_rss_kb()
    return result


def main() -> None:
    if sys.argv[1] == "--setup-only":
        import levy_groups.cli  # noqa: F401

        setup_s = time.perf_counter() - float(sys.argv[2])
        print(setup_s, reference_block(reference_matrix(), SETUP_REF_REPS))
        return
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
