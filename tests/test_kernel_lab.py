import json
import math
import re

import numpy as np
import pytest

from levy_groups import (
    SO3,
    SU2,
    RngStream,
    SU2Element,
    WitnessNotFoundError,
    dist_su2,
    find_witness,
    gram_audit,
    group_named,
    lemma_equivalence_check,
    transfer_witness,
)
from levy_groups.kernel_lab import WitnessCertificate, sum_zero_basis


def su2_points(seed, m, stream=0):
    return SU2.sample(RngStream(seed, stream), m)


def so3_points(seed, m, stream=0):
    return SO3.sample(RngStream(seed, stream), m)


def su2_dist(x, y):
    """dist_su2 of two quadruple rows."""
    return dist_su2(SU2Element.from_vector(x), SU2Element.from_vector(y))


# ---------------------------------------------------------------------------
# kernel values
# ---------------------------------------------------------------------------

def test_kernel_vanishes_at_base_point():
    e = SU2.identity
    pts = np.vstack([e, SU2.sample(RngStream(40, 0), 5)])
    k = gram_audit(SU2, pts, x0=e).K
    assert np.abs(k[0]).max() == pytest.approx(0.0, abs=1e-15)


def test_kernel_diagonal_is_distance_to_base():
    # 1e-7 band: arccos near a unit dot product resolves d(x,x) only to
    # about sqrt(machine eps)
    rng = RngStream(41, 0)
    x0 = SU2.sample(rng, 1)[0]
    x = SU2.sample(rng, 5)
    k = gram_audit(SU2, x, x0=x0).K
    for i in range(5):
        assert k[i, i] == pytest.approx(su2_dist(x[i], x0), abs=1e-7)


def test_kernel_antipodal_equatorial_configuration():
    # x = -e (antipodal), y on the equator: K = (pi + pi/2 - pi/2)/2
    e = SU2.identity
    x = -e
    y = np.array([0.0, 1.0, 0.0, 0.0])
    assert su2_dist(y, e) == pytest.approx(math.pi / 2)
    assert su2_dist(x, y) == pytest.approx(math.pi / 2)
    k = gram_audit(SU2, np.stack([x, y]), x0=e).K
    assert k[0, 1] == pytest.approx(math.pi / 2, abs=1e-12)


def test_kernel_symmetry():
    rng = RngStream(42, 0)
    x, y, x0 = SU2.sample(rng, 3)
    k = gram_audit(SU2, np.stack([x, y]), x0=x0).K
    assert np.array_equal(k, k.T)
    want = 0.5 * (su2_dist(x, x0) + su2_dist(y, x0) - su2_dist(x, y))
    assert k[0, 1] == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

def test_sum_zero_basis_properties():
    b = sum_zero_basis(7)
    assert np.abs(b.T @ b - np.eye(6)).max() < 1e-14
    assert np.abs(b.sum(axis=0)).max() < 1e-14


def test_two_point_audit_has_negative_top_eigenvalue():
    pts = su2_points(43, 2)
    audit = gram_audit(SU2, pts)
    d = su2_dist(pts[0], pts[1])
    # the only sum-zero direction gives exactly -d
    assert audit.max_centered_eig == pytest.approx(-d, abs=1e-12)
    assert audit.max_centered_eig < 0.0


def test_degenerate_audit_all_points_identical():
    audit = gram_audit(SU2, np.tile(SU2.identity, (3, 1)))
    assert np.abs(audit.D).max() == 0.0
    assert audit.max_centered_eig == pytest.approx(0.0, abs=1e-15)
    assert audit.min_K_eig == pytest.approx(0.0, abs=1e-15)


def test_su2_kernel_is_positive_definite_at_scale():
    audit = gram_audit(SU2, su2_points(44, 200))
    assert audit.min_K_eig >= -1e-8
    assert audit.max_centered_eig <= 1e-8
    assert audit.is_positive_semidefinite()
    assert audit.is_restricted_negative()


def test_audit_base_point_row_vanishes_when_x0_included():
    e = SU2.identity
    pts = np.vstack([e, su2_points(45, 5)])
    audit = gram_audit(SU2, pts, x0=e)
    assert np.abs(audit.K[0, :]).max() < 1e-12
    assert np.abs(audit.K[:, 0]).max() < 1e-12


def test_audit_rejects_bad_input():
    with pytest.raises(ValueError, match="at least 2 points"):
        gram_audit(SU2, su2_points(46, 1))
    pts = su2_points(46, 3)
    pts[1] = math.nan
    with pytest.raises(ValueError, match="non-finite distance"):
        gram_audit(SU2, pts)


def test_quadratic_form_bounded_by_top_eigenvalue():
    pts = so3_points(47, 30)
    audit = gram_audit(SO3, pts)
    gen = RngStream(47, 1).generator
    for _ in range(20):
        xi = gen.standard_normal(30)
        xi -= xi.mean()
        xi /= np.linalg.norm(xi)
        assert xi @ audit.D @ xi <= audit.max_centered_eig + 1e-9


def test_lemma_equivalence_su2_and_so3():
    for seed in range(5):
        assert lemma_equivalence_check(SU2, su2_points(seed, 40))
    for seed in range(5):
        assert lemma_equivalence_check(SO3, so3_points(seed, 30))


def test_lemma_equivalence_two_points_any_group():
    assert lemma_equivalence_check(SU2, su2_points(48, 2))
    assert lemma_equivalence_check(SO3, so3_points(48, 2))
    so5 = group_named("son", 5)
    assert lemma_equivalence_check(so5, so5.sample(RngStream(48, 2), 2))


def test_base_point_choice_is_immaterial_for_psd_on_su2():
    # bi-invariance: the kernel stays PSD for any base point
    pts = su2_points(49, 50)
    rng = RngStream(49, 1)
    for _ in range(3):
        audit = gram_audit(SU2, pts, x0=SU2.sample(rng, 1)[0])
        assert audit.is_positive_semidefinite()


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def test_find_witness_so3():
    cert = find_witness("so3", m=100, trials=10, rng=RngStream(50, 0))
    assert cert.group == "so3"
    assert cert.value > 1e-6
    assert abs(float(np.sum(cert.weights))) < 1e-12
    assert cert.verify(tol=1e-10)
    assert cert.quadratic_form() == pytest.approx(cert.value, abs=1e-10)


def test_find_witness_su2_fails():
    with pytest.raises(WitnessNotFoundError):
        find_witness("su2", m=100, trials=10, rng=RngStream(51, 0))


def test_find_witness_validates_arguments():
    rng = RngStream(0, 0)
    with pytest.raises(ValueError):
        find_witness("so3", m=3, trials=1, rng=rng)
    with pytest.raises(ValueError):
        find_witness("so3", m=10, trials=0, rng=rng)
    with pytest.raises(ValueError):
        find_witness("son", m=10, trials=1, rng=rng)  # missing n
    with pytest.raises(ValueError):
        find_witness("son", m=10, trials=1, rng=rng, n=3)
    with pytest.raises(ValueError):
        find_witness("u2", m=10, trials=1, rng=rng)


def test_find_witness_son_transfers_from_so3():
    cert5 = find_witness("son", m=60, trials=10, rng=RngStream(52, 0), n=5)
    assert cert5.group == "son"
    assert cert5.n == 5
    assert cert5.method == "transfer"
    assert cert5.value > 1e-6
    assert cert5.verify(tol=1e-10)
    # same seed on SO(3) alone gives the same quadratic-form value
    cert3 = find_witness("so3", m=60, trials=10, rng=RngStream(52, 0))
    assert abs(cert5.value - cert3.value) < 1e-10


def test_transfer_preserves_value():
    cert = find_witness("so3", m=80, trials=10, rng=RngStream(53, 0))
    for n in [4, 7]:
        moved = transfer_witness(cert, n)
        assert moved.n == n
        assert moved.points.shape == (80, n, n)
        assert abs(moved.value - cert.value) < 1e-10
        assert moved.verify(tol=1e-10)


def test_transfer_scales_bilinearly():
    cert = find_witness("so3", m=40, trials=10, rng=RngStream(54, 0))
    scaled = transfer_witness(cert, 4, scale=2.5)
    assert scaled.value == pytest.approx(2.5 * cert.value, rel=1e-12)
    # and rescaling an unscaled transfer reproduces it
    moved = transfer_witness(cert, 4)
    assert moved.quadratic_form(scale=2.5) == pytest.approx(scaled.value, rel=1e-12)


def test_transfer_rejects_bad_targets():
    cert = find_witness("so3", m=20, trials=10, rng=RngStream(55, 0))
    with pytest.raises(ValueError):
        transfer_witness(cert, 3)
    moved = transfer_witness(cert, 4)
    with pytest.raises(ValueError):
        transfer_witness(moved, 5)


def test_witness_success_rate_one_trial():
    # the defect is macroscopic: a single trial at m = 100 almost always wins
    found = 0
    for seed in range(20):
        try:
            find_witness("so3", m=100, trials=1, rng=RngStream(seed, 3))
            found += 1
        except WitnessNotFoundError:
            pass
    assert found >= 19


# ---------------------------------------------------------------------------
# certificate serialization
# ---------------------------------------------------------------------------

def test_certificate_json_round_trip():
    cert = find_witness("so3", m=20, trials=10, rng=RngStream(56, 0))
    text = cert.to_json()
    doc = json.loads(text)
    assert doc["kind"] == "witness"
    assert doc["group"] == "so3"
    assert doc["n"] == 3
    assert len(doc["points"]) == 20
    assert len(doc["points"][0]) == 9
    assert doc["seed"] == {"seed": 56, "stream": 0}
    back = WitnessCertificate.from_json(text)
    assert back.verify(tol=1e-10)
    assert back.value == cert.value
    assert np.array_equal(back.weights, cert.weights)
    assert np.array_equal(back.points, cert.points)


def test_certificate_json_is_stable():
    cert = find_witness("so3", m=30, trials=10, rng=RngStream(57, 0))
    assert cert.to_json() == cert.to_json()
    keys = list(json.loads(cert.to_json()).keys())
    assert keys == [
        "schema_version", "kind", "group", "n", "m", "points", "weights",
        "value", "seed", "method", "scale", "tool_version",
    ]


def test_tampered_certificate_fails_verification():
    cert = find_witness("so3", m=15, trials=10, rng=RngStream(58, 0))
    doc = json.loads(cert.to_json())
    doc["value"] = doc["value"] + 0.5
    assert not WitnessCertificate.from_json(json.dumps(doc)).verify()
    doc = json.loads(cert.to_json())
    doc["weights"][0] += 0.25  # breaks the sum-zero constraint
    assert not WitnessCertificate.from_json(json.dumps(doc)).verify()


def _set(key, value):
    def mutate(doc):
        doc[key] = value
    return mutate


def _set_in(key, index, value):
    def mutate(doc):
        doc[key][index] = value
    return mutate


# name -> (mutation of a valid certificate document, expected error text)
MALFORMED = {
    "missing-key": (lambda doc: doc.pop("n"), "missing n"),
    "unknown-group": (_set("group", "u7"), "group 'u7' does not match n = 3"),
    "son-with-n-3": (_set("group", "son"), "group 'son' does not match n = 3"),
    "so3-with-n-4": (_set("n", 4), "group 'so3' does not match n = 4"),
    "n-not-integer": (_set("n", "3"), "n and m must be integers"),
    "wrong-m": (_set("m", 14), "points must be m = 14 rows"),
    "weights-short": (lambda doc: doc["weights"].pop(), "weights must be m = 15 numbers"),
    "point-row-short": (lambda doc: doc["points"][3].pop(),
                        "points must be m = 15 rows of n^2 = 9"),
    "all-rows-short": (lambda doc: [row.pop() for row in doc["points"]],
                       "points must be m = 15 rows of n^2 = 9"),
    "nan-point": (lambda doc: doc["points"][1].__setitem__(4, math.nan),
                  "points has non-finite"),
    "inf-weight": (_set_in("weights", 2, math.inf), "weights has non-finite"),
    "nan-value": (_set("value", math.nan), "value has non-finite"),
    "list-value": (_set("value", [1.0]), "value must be a number"),
    "negative-scale": (_set("scale", -1.0), "scale must be positive"),
    "zero-scale": (_set("scale", 0.0), "scale must be positive"),
    "bad-seed": (_set("seed", 56), "seed must be"),
    "not-orthogonal": (lambda doc: doc["points"][0].__setitem__(0, 2.0),
                       "points: matrix is not orthogonal"),
    # negating the first row keeps the point orthogonal and makes det = -1
    "reflection": (lambda doc: doc["points"][2].__setitem__(
        slice(0, 3), [-v for v in doc["points"][2][:3]]), "points: det(g) = "),
    "string-value": (_set("value", "0.5"), "value must be a number"),
    "bool-value": (_set("value", True), "value must be a number"),
    "string-scale": (_set("scale", "1"), "scale must be a number"),
    "string-weight": (lambda doc: doc["weights"].__setitem__(0, str(doc["weights"][0])),
                      "weights must be m = 15 numbers"),
    "string-point": (lambda doc: doc["points"][0].__setitem__(0, str(doc["points"][0][0])),
                     "points must be m = 15 rows of n^2 = 9"),
    "bogus-method": (_set("method", "bogus"), "method must be 'eigenvector' or 'transfer'"),
    "schema-version-9": (_set("schema_version", "9"), "schema_version must be '1'"),
    "kind-coeffs": (_set("kind", "coeffs"), "kind must be 'witness'"),
    "integer-tool-version": (_set("tool_version", 1), "tool_version must be a string"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_certificate_is_rejected_naming_the_field(case):
    mutate, needle = MALFORMED[case]
    doc = json.loads(find_witness("so3", m=15, trials=10, rng=RngStream(58, 0)).to_json())
    WitnessCertificate.from_json(json.dumps(doc))  # the unmutated document parses
    mutate(doc)
    with pytest.raises(ValueError, match=re.escape(needle)):
        WitnessCertificate.from_json(json.dumps(doc))
