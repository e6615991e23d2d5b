"""Tests of the benchmark itself: each output check passes a real output
and rejects a corrupted one, and the tracer and the metric names hold."""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from levy_groups.cli import main  # noqa: E402


def cli(tmp_path, *argv):
    out = tmp_path / f"{argv[0]}.json"
    assert main([*argv, "--no-meta", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_coefficient_formula_matches_paper():
    assert checks.so3_coefficient(0) == pytest.approx(math.pi / 2 + 2 / math.pi, abs=1e-13)
    assert checks.so3_coefficient(2) == pytest.approx(2 / (9 * math.pi), abs=1e-13)


def test_coeffs_check_rejects_flipped_alpha2(tmp_path):
    doc = cli(tmp_path, "coeffs", "--group", "so3", "--lmax", "4", "--mc-n", "1000",
              "--seed", "3")
    assert checks.check_coeffs(doc, 4, 1000, 3) == []
    doc["rows"][2]["closed"] *= -1.0
    problems = checks.check_coeffs(doc, 4, 1000, 3)
    assert any("l=2: closed" in p and "not > 0" in p for p in problems)


def test_witness_check_rejects_weights_not_summing_to_zero(tmp_path):
    doc = cli(tmp_path, "witness", "--group", "son", "--n", "4", "--points", "30",
              "--seed", "7")
    assert checks.check_witness(doc, 4, 30, 1e-6, 7) == []
    doc["weights"][0] += 1e-6
    assert any("sum to 0" in p for p in checks.check_witness(doc, 4, 30, 1e-6, 7))


def test_witness_check_rejects_point_outside_the_block(tmp_path):
    doc = cli(tmp_path, "witness", "--group", "son", "--n", "4", "--points", "30",
              "--seed", "7")
    g = np.asarray(doc["points"][0]).reshape(4, 4)
    quarter_turn = np.eye(4)
    quarter_turn[2:, 2:] = [[0.0, -1.0], [1.0, 0.0]]  # mixes axes 3 and 4
    doc["points"][0] = list((g @ quarter_turn).ravel())
    problems = checks.check_witness(doc, 4, 30, 1e-6, 7)
    assert any("embedded SO(3) block" in p for p in problems)


def test_simulate_check_rejects_row_shifted_by_ten_sigma(tmp_path):
    doc = cli(tmp_path, "simulate", "--points", "20", "--realizations", "2000", "--seed", "5")
    haar = cli(tmp_path, "haar", "--group", "su2", "--points", "20", "--seed", "5")
    assert checks.check_simulate(doc, haar, 2000, 5) == []
    row = doc["rows"][17]
    row["estimate"] += math.copysign(10.0 * row["stderr"], row["estimate"] - row["distance"])
    assert any("max |z|" in p for p in checks.check_simulate(doc, haar, 2000, 5))


def test_audit_recomputation_agrees_and_rejects_a_changed_eigenvalue(tmp_path):
    doc = cli(tmp_path, "check", "--group", "su2", "--points", "60", "--seed", "2")
    haar = cli(tmp_path, "haar", "--group", "su2", "--points", "60", "--seed", "2")
    assert checks.check_audit(doc, 60, 2) == []
    assert checks.check_audit_values(doc, haar) == []
    doc["max_centered_eig"] += 1e-6
    assert checks.check_audit_values(doc, haar) != []


def test_identical_bytes():
    assert checks.check_identical(b"a", b"a") == []
    assert checks.check_identical(b"a", b"b") != []


def test_tracer_wraps_names_bound_in_other_modules_and_restores(tmp_path):
    modules = {n: m for n, m in sys.modules.items() if n.startswith("levy_groups")}
    saved = {n: dict(vars(m)) for n, m in modules.items()}
    tr = tracer.Tracer()
    try:
        tr.install({**tracer.TARGETS, "group_core.no_such_function": (None, None)})
        cli(tmp_path, "coeffs", "--group", "so3", "--lmax", "2", "--mc-n", "0")
    finally:
        for n, m in modules.items():
            vars(m).update(saved[n])
    layers = tr.summary()
    assert tr.absent == ["group_core.no_such_function"]
    # harmonic binds simpson_adaptive by name; the wrapper saw every call
    assert layers["quadrature.simpson_adaptive"]["calls"] == 3
    assert tr.counts["quadrature.calls"] > 0
    assert tr.counts["quadrature.points"] == tr.counts["quadrature.calls"]
    parents = {tr.spans[s[1]][0] for s in tr.spans if s[0] == "quadrature.simpson_adaptive"}
    assert parents == {"harmonic.alpha_quadrature"}
    for entry in layers.values():
        if "self_s" in entry:
            assert 0.0 <= entry["self_s"] <= entry["s"] + 1e-9


def test_parse_importtime_splits_packages():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |         numpy.linalg",
        "import time:       100 |        110 |       numpy",
        "import time:        20 |         20 |         numpy.fft",
        "import time:       200 |        220 |       scipy.linalg",
        "import time:        30 |        360 |     levy_groups",
        "import time:         5 |        365 |   levy_groups.cli",
    ])
    got = tracer.parse_importtime(text)
    assert got == pytest.approx({"numpy_s": 110e-6, "scipy_s": 220e-6,
                                 "levy_groups_s": 35e-6})


def test_benchmark_json_lists_the_metrics_run_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
