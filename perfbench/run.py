#!/usr/bin/env python3
"""Benchmark of levy-groups: the paper's four computations through its CLI.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload run starts one fresh child process (child.py) that imports
the package from ``src/`` of this checkout and makes a fixed number of
CLI invocations, closed loop with one client, each with its own seed
derived from --seed.  The parent then checks every output with the
formulas in checks.py.  With --trace 0 it prints the end-to-end metrics,
with --trace 1 the per-layer metrics of a traced run (tracer.py).  The
last line of standard output is one JSON object; see README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")

# Median seconds of one reference-kernel pass on the reference host (see
# README.md); calibrated_s scales wall time to this host speed.
REF_NOMINAL_S = 0.010
SETUP_SAMPLES = 5
CHILD_DEADLINE_S = 150.0  # the whole run must end within 180 s
WITNESS_MARGIN = 1e-6  # the CLI's default --margin

# name -> the invocations of one round (argv without --seed/--out), the
# nominal seconds of a round, reference passes per block, and how strongly
# the workload's time follows the reference kernel's (see README.md).  A
# run makes max(1, round(seconds / round_s)) rounds, so its work depends
# only on --seconds, never on how fast the host happens to be.
WORKLOADS = {
    "coeffs-so3": {
        "round": [["coeffs", "--group", "so3", "--lmax", "50", "--mc-n", "100000"]],
        "round_s": 17.0, "ref_reps": 50, "drift_exponent": 1.0,
    },
    "audit-su2": {
        "round": [["check", "--group", "su2", "--points", str(m)] for m in (1000, 1500, 2000)],
        "round_s": 5.0, "ref_reps": 15, "drift_exponent": 0.5,
    },
    "simulate-su2": {
        "round": [["simulate", "--group", "su2", "--points", "200",
                   "--realizations", "10000"]],
        "round_s": 2.0, "ref_reps": 20, "drift_exponent": 1.0,
    },
    "witness-son": {
        "round": [["witness", "--group", "son", "--n", "6", "--points", "100",
                   "--trials", "10"]],
        "round_s": 0.4, "ref_reps": 5, "drift_exponent": 1.0,
    },
}

# The metrics BENCHMARK.json gates.  wall_s is printed beside them but not
# gated: it follows the host's speed, which moved medians by up to 50%
# between sets of runs (README.md).
END_TO_END_UNITS = {"calibrated_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _flag(argv: list[str], name: str) -> int:
    return int(argv[argv.index(name) + 1])


def _reading(check, *paths, **kwargs):
    """A check of the JSON outputs at ``paths``, to call once they exist."""
    def run_check():
        docs = []
        for path in paths:
            with open(path) as fh:
                docs.append(json.load(fh))
        return check(*docs, **kwargs)
    return run_check


def _same_bytes(first: str, repeat: str):
    def run_check():
        with open(first, "rb") as a, open(repeat, "rb") as b:
            return checks.check_identical(a.read(), b.read())
    return run_check


def plan(workload: str, seed: int, seconds: float, outdir: str) -> tuple[list, list]:
    """(timed, extra) invocations of one run, each {"argv", "out", "check"};
    ``check()`` returns the problems found in the finished output."""
    spec = WORKLOADS[workload]
    rounds = max(1, round(seconds / spec["round_s"]))
    argvs = [a for _ in range(rounds) for a in spec["round"]]
    seeds = random.Random(f"{workload}/{seed}").sample(range(1, 1 << 63), len(argvs))
    timed, extra = [], []

    def invocation(argv, s, tag):
        out = os.path.join(outdir, f"{tag}.json")
        return {"argv": [*argv, "--seed", str(s), "--no-meta", "--out", out], "out": out}

    def haar(points, s, tag):
        inv = invocation(["haar", "--group", "su2", "--points", str(points)], s, tag)
        inv["check"] = _reading(checks.check_haar, inv["out"], points=points, seed=s)
        extra.append(inv)
        return inv

    for k, (argv, s) in enumerate(zip(argvs, seeds)):
        inv = invocation(argv, s, f"inv{k}")
        if workload == "coeffs-so3":
            inv["check"] = _reading(checks.check_coeffs, inv["out"], lmax=_flag(argv, "--lmax"),
                                    mc_samples=_flag(argv, "--mc-n"), seed=s)
        elif workload == "audit-su2":
            inv["check"] = _reading(checks.check_audit, inv["out"],
                                    points=_flag(argv, "--points"), seed=s)
        elif workload == "simulate-su2":
            pts = haar(_flag(argv, "--points"), s, f"haar{k}")
            inv["check"] = _reading(checks.check_simulate, inv["out"], pts["out"],
                                    realizations=_flag(argv, "--realizations"), seed=s)
        else:
            inv["check"] = _reading(checks.check_witness, inv["out"], n=_flag(argv, "--n"),
                                    points=_flag(argv, "--points"), margin=WITNESS_MARGIN,
                                    seed=s)
        timed.append(inv)

    first = timed[0]
    if workload == "audit-su2":
        # once per run: the decisive eigenvalues again, from the same points
        pts = haar(_flag(first["argv"], "--points"), seeds[0], "haar0")
        shape, values = pts["check"], _reading(checks.check_audit_values, first["out"], pts["out"])
        pts["check"] = lambda: shape() + values()
    repeat = invocation(argvs[0], seeds[0], "repeat0")
    repeat["check"] = _same_bytes(first["out"], repeat["out"])
    extra.append(repeat)
    return timed, extra


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "LEVY_GROUPS_THREADS", "PYTHONSTARTUP")}
    env.update(PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def setup_sample(env: dict) -> tuple[float, float]:
    """(set-up seconds, reference block seconds) of one fresh child."""
    spawned_at = time.perf_counter()
    done = subprocess.run([sys.executable, CHILD, "--setup-only", repr(spawned_at)],
                          env=env, capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise SystemExit(f"set-up child failed:\n{done.stderr}")
    setup_s, ref_s = done.stdout.split()[-2:]
    return float(setup_s), float(ref_s)


def run_child(spec: dict, env: dict, trace: bool, stderr_path: str) -> tuple[dict, float]:
    """Run the working child; returns (its result, its set-up seconds)."""
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + [CHILD, spec["spec_path"]]
    with open(stderr_path, "w") as err:
        spawned_at = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            code = proc.wait(timeout=CHILD_DEADLINE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
    if code != 0:
        with open(stderr_path) as fh:
            raise SystemExit(f"benchmark child exited with {code}:\n{fh.read()[-4000:]}")
    with open(spec["result"]) as fh:
        result = json.load(fh)
    return result, result["ready_at"] - spawned_at


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(RUNS_DIR, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS_DIR)
    try:
        return _run_workload(workload, seed, seconds, trace, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def _run_workload(workload, seed, seconds, trace, outdir) -> dict:
    env = child_env()
    timed, extra = plan(workload, seed, seconds, outdir)
    spec = {"src": SRC, "trace": trace, "ref_reps": WORKLOADS[workload]["ref_reps"],
            "timed": [i["argv"] for i in timed], "extra": [i["argv"] for i in extra],
            "result": os.path.join(outdir, "result.json"),
            "spec_path": os.path.join(outdir, "spec.json")}
    with open(spec["spec_path"], "w") as fh:
        json.dump(spec, fh)
    setups = [] if trace else [setup_sample(env) for _ in range(SETUP_SAMPLES - 1)]
    stderr_path = os.path.join(outdir, "stderr.txt")
    result, setup_s = run_child(spec, env, trace, stderr_path)
    setups.append((setup_s, result["ref_s"][0]))
    with open(stderr_path) as fh:
        stderr = fh.read()

    failed, wrong = 0, False
    invocations = timed + extra
    exits = [r["exit"] for r in result["timed"] + result["extra"]]
    for inv, code in zip(invocations, exits):
        if code != 0:
            failed += 1
            print(f"{workload}: exit {code}: levy-groups {' '.join(inv['argv'])}",
                  file=sys.stderr)
            continue
        try:
            problems = inv["check"]()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            failed += 1
            wrong = True
            print(f"{workload}: wrong output of levy-groups {' '.join(inv['argv'])}:\n  "
                  + "\n  ".join(problems[:10]), file=sys.stderr)
    if failed and stderr.strip() and not trace:
        print(stderr[-4000:], file=sys.stderr)

    refs = result["ref_s"]
    walls = [t["wall_s"] for t in result["timed"]]
    # each invocation at the host speed of the reference blocks around it
    beta = WORKLOADS[workload]["drift_exponent"]
    calibrated = sum(w * (REF_NOMINAL_S / (0.5 * (refs[k] + refs[k + 1]))) ** beta
                     for k, w in enumerate(walls))
    report = {"correct": not wrong, "attempted": len(invocations), "failed": failed}
    if trace:
        import tracer

        report["metrics"] = layer_metrics(result["trace"], len(timed), refs,
                                          tracer.parse_importtime(stderr))
        report["traced"] = (sum(walls), calibrated)
        report["shares"] = self_time_shares(result["trace"]["layers"])
        report["absent"] = result["trace"]["absent"]
        return report
    # set-up at the same fixed host speed, from the reference block each
    # child ran right after its imports
    setup = statistics.median(s * REF_NOMINAL_S / ref for s, ref in setups)
    values = {"calibrated_s": calibrated, "setup_s": setup,
              "peak_rss_mb": result["peak_rss_kb"] / 1024.0}
    report["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    report["wall_s"] = sum(walls)
    report["setup_wall_s"] = statistics.median(s for s, _ in setups)
    return report


# name -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "quadrature.simpson_adaptive.s": "s",
    "quadrature.calls": "count",
    "quadrature.points": "count",
    "quadrature.points_per_s": "1/s",
    "harmonic.alpha_quadrature.self_s": "s",
    "harmonic.alpha_monte_carlo.s": "s",
    "harmonic.mc_pairs_per_s": "1/s",
    "group_core.haar_su2_batch.s": "s",
    "group_core.haar_son_batch.s": "s",
    "group_core.pairwise_distance_matrix.self_s": "s",
    "group_core.pairs": "count",
    "group_core.pairs_per_s": "1/s",
    "group_core.dist_son.calls": "count",
    "kernel_lab.gram_audit.self_s": "s",
    "kernel_lab.sum_zero_basis.s": "s",
    "kernel_lab.find_witness.self_s": "s",
    "kernel_lab.transfer_witness.self_s": "s",
    "kernel_lab.witness_trials": "count",
    "kernel_lab.witness_yield": "ratio",
    "field_sim.build_field.self_s": "s",
    "field_sim.jitter_rung": "count",
    "field_sim.sample_field.s": "s",
    "field_sim.empirical_variogram.s": "s",
    "field_sim.variogram_pairs_per_s": "1/s",
    "canonical.dumps.s": "s",
    "canonical.bytes": "bytes",
    "canonical.mb_per_s": "MB/s",
    "cli.main.self_s": "s",
    "setup.import.numpy_s": "s",
    "setup.import.scipy_s": "s",
    "setup.import.levy_groups_s": "s",
    "host.ref_s": "s",
}


def layer_metrics(trace: dict, n_timed: int, refs: list, imports: dict) -> dict:
    """Per-layer metrics of a traced run, per timed invocation; a layer
    that did not run, or no longer exists, reads 0."""
    layers, counts = trace["layers"], trace["counts"]

    def span(name, key):
        return layers.get(name, {}).get(key, 0.0)

    def rate(count, name):
        busy = span(name, "s")
        return count / busy if busy > 0.0 else 0.0

    trials = layers["kernel_lab.witness_trials"]["count"]
    builds = span("field_sim.build_field", "calls")
    values = {
        "quadrature.points_per_s": rate(counts.get("quadrature.points", 0),
                                        "quadrature.simpson_adaptive"),
        "harmonic.mc_pairs_per_s": rate(counts.get("harmonic.mc_pairs", 0),
                                        "harmonic.alpha_monte_carlo"),
        "group_core.pairs_per_s": rate(counts.get("group_core.pairs", 0),
                                       "group_core.pairwise_distance_matrix"),
        "kernel_lab.witness_yield": counts.get("kernel_lab.certificates", 0) / trials
        if trials else 0.0,
        "field_sim.jitter_rung": counts.get("field_sim.rungs", 0) / builds if builds else 0.0,
        "field_sim.variogram_pairs_per_s": rate(counts.get("field_sim.variogram_rows", 0),
                                                "field_sim.empirical_variogram"),
        "canonical.mb_per_s": rate(counts.get("canonical.bytes", 0) / 1e6, "canonical.dumps"),
        "setup.import.numpy_s": imports["numpy_s"],
        "setup.import.scipy_s": imports["scipy_s"],
        "setup.import.levy_groups_s": imports["levy_groups_s"],
        "host.ref_s": statistics.median(refs),
    }
    per_invocation = {
        "quadrature.calls": counts.get("quadrature.calls", 0),
        "quadrature.points": counts.get("quadrature.points", 0),
        "group_core.pairs": counts.get("group_core.pairs", 0),
        "kernel_lab.witness_trials": trials,
        "canonical.bytes": counts.get("canonical.bytes", 0),
    }
    for name in LAYER_UNITS:
        if name in values:
            continue
        if name in per_invocation:
            total = per_invocation[name]
        else:
            layer, key = name.rsplit(".", 1)
            total = span(layer, key)
        values[name] = total / n_timed
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}


def self_time_shares(layers: dict) -> list[tuple[str, float]]:
    """Each traced layer's share of all self time, largest first."""
    selfs = {name: v["self_s"] for name, v in layers.items() if "self_s" in v}
    total = sum(selfs.values()) or 1.0
    return sorted(((n, s / total) for n, s in selfs.items()), key=lambda x: -x[1])


def print_report(workload: str, report: dict) -> None:
    if "traced" in report:
        line = "traced wall {:.4f} s, calibrated {:.4f} s; self-time shares: ".format(
            *report["traced"]) + ", ".join(f"{n} {s:.1%}" for n, s in report["shares"][:6])
        if report["absent"]:
            line += f"; absent: {', '.join(report['absent'])}"
    else:
        line = "  ".join(f"{k} {v['value']:.6g} {v['unit']}"
                         for k, v in report["metrics"].items())
        line += f"  (wall_s {report['wall_s']:.6g} s, setup wall {report['setup_wall_s']:.4g} s)"
    print(f"{workload}: {line}  attempted {report['attempted']} failed {report['failed']}"
          f"  correct {str(report['correct']).lower()}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "levy_groups", "cli.py")):
        print(f"error: no levy_groups source under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = {}
    for name in names:
        reports[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_report(name, reports[name])
    if len(names) == 1:
        report = reports[names[0]]
        metrics = report["metrics"]
    else:
        report = {"correct": all(r["correct"] for r in reports.values()),
                  "attempted": sum(r["attempted"] for r in reports.values()),
                  "failed": sum(r["failed"] for r in reports.values())}
        metrics = {f"{w}/{k}": v for w, r in reports.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
