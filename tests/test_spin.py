import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from septenary.algebra import mv_mul, mv_norm, plane_leg, quadric_defect
from septenary.errors import DegenerateInput
from septenary.spin import (
    _reflect,
    GHZ_SCALE,
    ROLE_SIGNS,
    SQRT_HALF,
    detector,
    make_pair_general,
    make_pair_ghz,
    make_pair_planar,
    measure,
    recover_source_axis,
    spin_state,
)


def test_planar_pair_axis_examples():
    assert make_pair_planar((1.0, 0.0, 0.0)) == (
        (SQRT_HALF, 0.0, 0.0), (-0.0, SQRT_HALF, 0.0))
    assert make_pair_planar((0.0, 1.0, 0.0)) == (
        (0.0, SQRT_HALF, 0.0), (-SQRT_HALF, 0.0, 0.0))


def test_planar_pair_orthogonality_is_bitwise():
    rng = np.random.default_rng(2)
    for _ in range(500):
        t = rng.uniform(-math.pi, math.pi)
        (rx, ry, _), (dx, dy, _) = make_pair_planar(
            (math.cos(t), math.sin(t), 0.0))
        # the dual leg reuses the scaled components, so the dot product is
        # rx*(-ry) + ry*rx which cancels exactly in floating point
        assert rx * dx + ry * dy == 0.0


def test_planar_pair_rejects_off_plane_and_bad_norms():
    with pytest.raises(DegenerateInput):
        make_pair_planar((1.0, 0.0, 1e-300))
    with pytest.raises(DegenerateInput):
        make_pair_planar((0.5, 0.0, 0.0))
    with pytest.raises(DegenerateInput):
        make_pair_planar((0.0, 0.0, 0.0))
    # unit to 1e-6 but not to the 1e-12 the legs are held to
    with pytest.raises(DegenerateInput, match="0.8000001"):
        make_pair_planar((0.6, 0.8000001, 0.0))


@pytest.mark.parametrize("role", ["A", "B", "C", "D"])
def test_role_pairs_split_xy_from_z(role):
    rng = np.random.default_rng(4)
    sx, sy, sz = ROLE_SIGNS[role]
    for _ in range(50):
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        n_r, n_d = make_pair_ghz(a, role)
        assert n_r == pytest.approx(
            (sx * a[0] * GHZ_SCALE, sy * a[1] * GHZ_SCALE, 0.0), abs=1e-15)
        assert n_d == pytest.approx(
            (0.0, 0.0, sz * a[2] * GHZ_SCALE), abs=1e-15)
        rr = sum(v * v for v in n_r)
        dd = sum(v * v for v in n_d)
        assert rr + dd == pytest.approx(SQRT_HALF, abs=1e-12)


def test_role_pair_example_pole():
    assert make_pair_ghz((0.0, 0.0, 1.0), "A") == (
        (-0.0, 0.0, 0.0), (0.0, 0.0, -GHZ_SCALE))


@pytest.mark.parametrize("role", ["A", "B", "C", "D"])
def test_role_pair_refuses_a_near_unit_direction(role):
    # unit to 1e-6 but not to the 1e-12 the legs are held to
    with pytest.raises(DegenerateInput, match="0.8000001"):
        make_pair_ghz((0.6, 0.8000001, 0.0), role)


def test_unknown_role_refuses():
    with pytest.raises(ValueError):
        make_pair_ghz((0.0, 0.0, 1.0), "E")


def test_general_pair_is_orthonormal_and_deterministic():
    rng = np.random.default_rng(8)
    for _ in range(200):
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        p = make_pair_general(a)
        assert p == make_pair_general(a)
        nr, nd = map(np.array, p)
        assert float(nr @ nr) == pytest.approx(0.5, abs=1e-12)
        assert float(nd @ nd) == pytest.approx(0.5, abs=1e-12)
        assert abs(float(nr @ nd)) <= 1e-12
    # a direction unit only to 1e-6 is normalised, not refused
    nr, nd = map(np.array, make_pair_general((0.6, 0.8000001, 0.0)))
    assert float(nr @ nr) == pytest.approx(0.5, abs=1e-12)
    assert float(nd @ nd) == pytest.approx(0.5, abs=1e-12)


def test_general_pair_falls_back_near_the_reference_axis():
    _, n_d = make_pair_general((1.0, 0.0, 0.0))
    # Gram-Schmidt against x-hat degenerates, so the y reference is used
    assert n_d == pytest.approx((0.0, SQRT_HALF, 0.0), abs=1e-12)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_general_pair_stays_orthonormal_near_the_x_axis(sign):
    # the x residual shrinks with the angle off +-x and its rounding with
    # it; the legs must stay orthonormal to 1e-12 all the way in
    rng = np.random.default_rng(43)
    dirs = [(0.9999999996253763, 2.2002019329397417e-05,
             1.6283697568285344e-05)]
    for angle in np.geomspace(1e-7, 1e-1, 25):
        for phi in rng.uniform(-math.pi, math.pi, 20):
            dirs.append((math.cos(angle), math.sin(angle) * math.cos(phi),
                         math.sin(angle) * math.sin(phi)))
    for d in dirs:
        nr, nd = map(np.array, make_pair_general((sign * d[0], d[1], d[2])))
        assert abs(float(nr @ nd)) <= 1e-12
        assert abs(float(nr @ nr) - 0.5) <= 1e-12
        assert abs(float(nd @ nd) - 0.5) <= 1e-12


# ---------------------------------------------------------------------------

def test_detector_element_layout_and_sphere_membership():
    legs = make_pair_planar((0.6, 0.8, 0.0))
    det = detector(legs)
    c = det.coeffs
    (rx, ry, rz), (dx, dy, dz) = legs
    assert np.array_equal(c, [0.0, rz, ry, rx, dx, dy, dz, 0.0])
    assert det.lam == 1
    assert mv_norm(det) == pytest.approx(1.0, abs=1e-12)
    assert quadric_defect(det) == 0.0


def test_spin_state_scales_by_the_coin():
    det = detector(make_pair_planar((1.0, 0.0, 0.0)))
    up = spin_state(det, 1)
    down = spin_state(det, -1)
    assert np.array_equal(up.coeffs, det.coeffs)
    assert np.array_equal(down.coeffs, -det.coeffs)
    assert down.lam == -1
    for st in (up, down):
        sq = mv_mul(st, st)
        assert np.all(sq.coeffs[1:] == 0.0)
        assert sq.coeffs[0] == pytest.approx(-1.0, abs=1e-12)
    for bad in (0, 1.5):
        with pytest.raises(ValueError):
            spin_state(det, bad)


@pytest.mark.parametrize("lam", [1, -1])
def test_measure_returns_the_signed_coin(lam):
    det = detector(make_pair_planar((0.8, -0.6, 0.0)))
    assert measure(det, lam, "first") == lam
    assert measure(det, lam, "second") == -lam
    assert measure(det, lam, "first") * measure(det, lam, "second") == -1


def test_measure_validates_inputs():
    det = detector(make_pair_planar((1.0, 0.0, 0.0)))
    with pytest.raises(ValueError):
        measure(det, 1, "left")
    for bad in (2, -1.9):
        with pytest.raises(ValueError):
            measure(det, bad, "first")
    role_det = detector(make_pair_ghz((0.0, 0.0, 1.0), "A"))
    # role elements are scaled for the four-party identities, not unit norm
    assert mv_norm(role_det) != pytest.approx(1.0, abs=1e-6)
    with pytest.raises(DegenerateInput):
        measure(role_det, 1, "first")


# ---------------------------------------------------------------------------

def _reflected_axis(b, s):
    """Plane leg of the element recover_source_axis transports back."""
    return plane_leg(_reflect(b, s)[1].coeffs)


def test_reflection_formula():
    rng = np.random.default_rng(19)
    for _ in range(200):
        b = rng.standard_normal(3)
        b /= np.linalg.norm(b)
        s = rng.standard_normal(3)
        s /= np.linalg.norm(s)
        got = _reflected_axis(b, s)
        want = 2.0 * float(b @ s) * b - s
        assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_reflection_special_cases():
    b = np.array([0.0, 0.0, 1.0])
    assert_allclose(_reflected_axis(b, b), b, rtol=0.0, atol=1e-15)
    s = np.array([1.0, 0.0, 0.0])
    assert_allclose(_reflected_axis(b, s), -s, rtol=0.0, atol=1e-15)


def test_source_axis_round_trip():
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(300):
        b = rng.standard_normal(3)
        b /= np.linalg.norm(b)
        s = rng.standard_normal(3)
        s /= np.linalg.norm(s)
        back = recover_source_axis(b, s)
        worst = max(worst, float(np.max(np.abs(back - s))))
    assert worst <= 1e-12


def test_axis_helpers_reject_degenerate_vectors():
    with pytest.raises(DegenerateInput):
        recover_source_axis((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    with pytest.raises(DegenerateInput):
        recover_source_axis((1.0, 0.0, 0.0), (0.0, 2.0, 0.0))
