"""Acceptance suite: every exit criterion at its stated tolerance.

One pass/fail line prints per criterion (run `pytest -v -s` to see them
as they complete).  Tolerances are pinned here, not configurable.
"""

import json
import math
import time

import numpy as np
from scipy.stats import kstest

from levy_groups import (
    SO3,
    SU2,
    RngStream,
    build_field,
    empirical_variogram,
    find_witness,
    gram_audit,
    sample_field,
    transfer_witness,
)
from levy_groups.cli import EXIT_OK, main
from levy_groups.group_core import haar_son_batch, haar_su2_batch
from levy_groups.harmonic import (
    alpha_closed,
    alpha_monte_carlo,
    alpha_quadrature,
)
from levy_groups.kernel_lab import WitnessCertificate
from oracles import angle_cdf, trace_cdf_so3

ALPHA2_SO3 = 2.0 / (9.0 * math.pi)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_alpha2_so3_three_ways():
    t0 = time.monotonic()
    closed = alpha_closed(SO3, 2)
    quad = alpha_quadrature(SO3, 2, tol=1e-10)
    estimates, stderrs = alpha_monte_carlo(SO3, 2, 1_000_000, RngStream(0, 2))
    mc, se = estimates[2], stderrs[2]
    elapsed = time.monotonic() - t0
    ok = (
        abs(closed - ALPHA2_SO3) <= 1e-12
        and abs(quad - ALPHA2_SO3) <= 1e-9
        and abs(mc - ALPHA2_SO3) <= 3.0 * se
        and elapsed < 30.0
    )
    report(
        1, ok,
        f"alpha_2(SO3): closed={closed:.12g} quad={quad:.12g} "
        f"mc={mc:.6g}+-{se:.2g} target={ALPHA2_SO3:.12g} ({elapsed:.1f}s)",
    )


def test_criterion_2_so3_coefficient_signs():
    worst = 0.0
    signs_ok = True
    for l in range(1, 51):
        closed = alpha_closed(SO3, l)
        quad = alpha_quadrature(SO3, l, tol=1e-10)
        worst = max(worst, abs(closed - quad))
        if l % 2 == 0:
            signs_ok = signs_ok and closed > 0.0
        else:
            signs_ok = signs_ok and closed <= 0.0
    ok = signs_ok and worst <= 1e-8
    report(
        2, ok,
        f"SO3 signs l<=50 (even>0, odd<=0): {signs_ok}; "
        f"max |closed-quadrature| = {worst:.2e} <= 1e-8",
    )


def test_criterion_3_su2_coefficients():
    alpha1 = alpha_quadrature(SU2, 1, tol=1e-10)
    alpha1_ok = abs(alpha1 - (-16.0 / (9.0 * math.pi))) <= 1e-9
    even_worst = 0.0
    nonpositive = True
    for l in range(1, 51):
        quad = alpha_quadrature(SU2, l, tol=1e-10)
        if l % 2 == 0:
            even_worst = max(even_worst, abs(quad))
        nonpositive = nonpositive and alpha_closed(SU2, l) <= 0.0
        nonpositive = nonpositive and quad <= 1e-9
    ok = alpha1_ok and even_worst <= 1e-9 and nonpositive
    report(
        3, ok,
        f"SU2: alpha_1={alpha1:.12g} (=-16/9pi within 1e-9: {alpha1_ok}); "
        f"max |alpha_even| = {even_worst:.2e} <= 1e-9; all l>=1 nonpositive: {nonpositive}",
    )


def test_criterion_4_density_laws_ks():
    t0 = time.monotonic()
    n = 100_000
    mats = haar_son_batch(3, n, RngStream(10, 0))
    traces = np.trace(mats, axis1=-2, axis2=-1)
    angles = np.arccos(np.clip((traces - 1.0) / 2.0, -1.0, 1.0))
    p_angle = kstest(angles, lambda t: angle_cdf(SO3, t)).pvalue
    p_trace = kstest(traces, trace_cdf_so3).pvalue
    quats = haar_su2_batch(RngStream(10, 1), n)
    theta = np.arccos(np.clip(quats[:, 0], -1.0, 1.0))
    p_su2 = kstest(theta, lambda t: angle_cdf(SU2, t)).pvalue
    elapsed = time.monotonic() - t0
    ok = min(p_angle, p_trace, p_su2) > 0.01 and elapsed < 60.0
    report(
        4, ok,
        f"KS p-values at n=1e5: SO3 angle {p_angle:.3f}, SO3 trace {p_trace:.3f}, "
        f"SU2 angle {p_su2:.3f}; all > 0.01 ({elapsed:.1f}s)",
    )


def test_criterion_5_witness_certificates(tmp_path):
    successes = 0
    first_cert = None
    for seed in range(100):
        out = tmp_path / f"cert{seed}.json"
        code = main([
            "witness", "--group", "so3", "--points", "100", "--trials", "1",
            "--seed", str(seed), "--no-meta", "--out", str(out),
        ])
        if code == EXIT_OK:
            cert = WitnessCertificate.from_json(out.read_text())
            if cert.value > 1e-6 and cert.verify(tol=1e-10):
                successes += 1
                if first_cert is None:
                    first_cert = cert
    transfer_ok = False
    if first_cert is not None:
        moved4 = transfer_witness(first_cert, 4)
        moved7 = transfer_witness(first_cert, 7)
        transfer_ok = (
            abs(moved4.value - first_cert.value) <= 1e-10
            and abs(moved7.value - first_cert.value) <= 1e-10
            and moved4.verify(tol=1e-10)
            and moved7.verify(tol=1e-10)
        )
    ok = successes >= 95 and transfer_ok
    report(
        5, ok,
        f"witness m=100, 1 trial: {successes}/100 seeds self-verifying with "
        f"value > 1e-6; SO(4)/SO(7) transfer preserves value within 1e-10: {transfer_ok}",
    )


def test_criterion_6_su2_positive_definiteness():
    worst_k = 0.0
    worst_c = -math.inf
    equivalence = True
    for seed in range(100):
        rng = RngStream(seed, 6)
        audit = gram_audit(SU2, SU2.sample(rng, 100))
        worst_k = min(worst_k, audit.min_K_eig)
        worst_c = max(worst_c, audit.max_centered_eig)
        equivalence = equivalence and (
            audit.is_positive_semidefinite() == audit.is_restricted_negative()
        )
    ok = worst_k >= -1e-8 and worst_c <= 1e-8 and equivalence
    report(
        6, ok,
        f"100 SU2 audits of 100 points: min_K_eig >= {worst_k:.2e} (>= -1e-8), "
        f"max_centered_eig <= {worst_c:.2e} (<= 1e-8), equivalence always: {equivalence}",
    )


def test_criterion_7_field_law():
    t0 = time.monotonic()
    rng = RngStream(7, 0)
    fs = build_field(SU2, SU2.sample(rng, 50))
    pinned = float(np.abs(sample_field(fs, 10_000, RngStream(7, 1)).values[0]).max()) == 0.0
    # drawn in the law of these realizations' Gram matrix, not from their values
    rows = empirical_variogram(fs, 10_000, RngStream(7, 1))
    covered = sum(
        1 for r in rows if abs(r.estimate - r.distance) <= 3.0 * r.stderr
    )
    coverage = covered / len(rows)
    elapsed = time.monotonic() - t0
    ok = coverage >= 0.95 and pinned and elapsed < 120.0
    report(
        7, ok,
        f"variogram 3-sigma coverage {coverage:.3f} over {len(rows)} pairs "
        f"(>= 0.95); base-point values exactly 0: {pinned} ({elapsed:.1f}s)",
    )


def test_criterion_8_double_integral_identity():
    worst_z = 0.0
    for group in (SU2, SO3):
        for l in range(1, 9):
            estimates, stderrs = alpha_monte_carlo(group, l, 1_000_000, RngStream(0, l))
            est, se = estimates[l], stderrs[l]
            z = abs(est - alpha_closed(group, l)) / se
            worst_z = max(worst_z, z)
    ok = worst_z <= 3.0
    report(
        8, ok,
        f"double Haar integral vs closed form, l=1..8 both groups, n=1e6: "
        f"worst |z| = {worst_z:.2f} <= 3",
    )
