"""Outside-in spans over levy_groups for the benchmark's traced run.

Each target function is wrapped from outside and the wrapper is bound in
every levy_groups module namespace that holds the original, so a module
that imported the function by name (``from .quadrature import
simpson_adaptive``) calls the wrapper too.  A span records its name, the
id of the span that was open when it started, and its start and end; a
span's self time is its duration minus that of its direct children.  A
target that no longer exists is listed in ``absent`` and left out.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from collections import defaultdict

PACKAGE = "levy_groups"


def _count_integrand(tracer, args, kwargs):
    """Swap the first callable argument for a counting wrapper: one call,
    and as many points as the argument has elements."""
    def counted(f):
        def integrand(x, *a, **k):
            tracer.counts["quadrature.calls"] += 1
            tracer.counts["quadrature.points"] += getattr(x, "size", 1)
            return f(x, *a, **k)
        return integrand

    for i, a in enumerate(args):
        if callable(a):
            return args[:i] + (counted(a),) + args[i + 1:], kwargs
    for k, v in kwargs.items():
        if callable(v):
            return args, {**kwargs, k: counted(v)}
    return args, kwargs


def _add(counter, value_of):
    def hook(tracer, bound, result):
        value = value_of(bound, result)
        if value is not None:
            tracer.counts[counter] += value
    return hook


def _pairs(bound, result):
    n = getattr(result, "shape", (0,))[0]
    return n * (n - 1) // 2


def _jitter_rung(bound, result):
    start, used = bound.get("jitter"), getattr(result, "jitter_used", None)
    if not (start and used):
        return None
    return round(math.log10(used / start)) + 1


# target -> (hook run before the call on (args, kwargs), hook run after it
# on the bound arguments and the result)
TARGETS = {
    "quadrature.simpson_adaptive": (_count_integrand, None),
    "harmonic.alpha_quadrature": (None, None),
    "harmonic.alpha_monte_carlo": (None, _add("harmonic.mc_pairs",
                                             lambda b, r: b.get("n_samples"))),
    "group_core.haar_su2_batch": (None, None),
    "group_core.haar_son_batch": (None, None),
    "group_core.pairwise_distance_matrix": (None, _add("group_core.pairs", _pairs)),
    "group_core.dist_son": (None, None),
    "kernel_lab.gram_audit": (None, None),
    "kernel_lab.sum_zero_basis": (None, None),
    "kernel_lab.find_witness": (None, _add("kernel_lab.certificates", lambda b, r: 1)),
    "kernel_lab.transfer_witness": (None, None),
    "field_sim.build_field": (None, _add("field_sim.rungs", _jitter_rung)),
    "field_sim.sample_field": (None, None),
    "field_sim.empirical_variogram": (None, _add("field_sim.variogram_rows",
                                                 lambda b, r: len(r))),
    "canonical.dumps": (None, _add("canonical.bytes", lambda b, r: len(r.encode()))),
    "cli.main": (None, None),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent id, start, end, same name open]
        self.stack: list[int] = []
        self.open: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []

    def install(self, targets: dict = TARGETS) -> None:
        wrappers = {}
        for name, (before, after) in targets.items():
            module, func = name.split(".")
            fn = getattr(sys.modules.get(f"{PACKAGE}.{module}"), func, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            wrappers[id(fn)] = (fn, self._wrap(name, fn, before, after))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def _wrap(self, name, fn, before, after):
        signature = inspect.signature(fn) if after else None
        spans, stack, open_ = self.spans, self.stack, self.open

        def wrapper(*args, **kwargs):
            if before:
                args, kwargs = before(self, args, kwargs)
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, open_[name] > 0]
            stack.append(len(spans))
            spans.append(span)
            open_[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                open_[name] -= 1
            if after:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(self, bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> dict:
        """Per name: inclusive seconds ("s", recursion counted once), self
        seconds ("self_s") and span count ("calls"); plus the witness
        trials, counted as Haar batches drawn directly by find_witness."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[1] >= 0:
                child_time[s[1]] += s[3] - s[2]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        trials = 0
        for idx, (name, parent, start, end, recursive) in enumerate(spans):
            entry = out[name]
            if not recursive:
                entry["s"] += end - start
            entry["self_s"] += end - start - child_time[idx]
            entry["calls"] += 1
            if (name.startswith("group_core.haar_") and parent >= 0
                    and spans[parent][0] == "kernel_lab.find_witness"):
                trials += 1
        result = dict(out)
        result["kernel_lab.witness_trials"] = {"count": trials}
        return result


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds spent importing numpy, scipy and levy_groups itself (numpy
    and scipy excluded) from ``python -X importtime`` output."""
    entries = []  # (depth, name, cumulative seconds), in the order printed
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line.split("|")
        depth = len(name) - len(name.lstrip(" "))
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    top = {"numpy": 0.0, "scipy": 0.0, PACKAGE: 0.0}
    inside_package = 0.0
    ancestors: list[tuple[int, str]] = []
    # printed children-first: walking backwards visits each parent first.
    # A numpy or scipy entry counts unless it sits inside numpy or scipy,
    # so numpy modules that scipy pulls in count as scipy; a levy_groups
    # entry counts unless it sits inside levy_groups.
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        root = name.split(".")[0]
        above = {a.split(".")[0] for _, a in ancestors} & set(top)
        if root in top and not above - {PACKAGE} and root not in above:
            top[root] += cumulative
            if root != PACKAGE and PACKAGE in above:
                inside_package += cumulative
        ancestors.append((depth, name))
    return {"numpy_s": top["numpy"], "scipy_s": top["scipy"],
            "levy_groups_s": top[PACKAGE] - inside_package}
