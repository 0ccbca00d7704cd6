import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from septenary import spin
from septenary.algebra import (
    E_VOL, E_X, SCALAR, mv_mul, mv_norm, plane_leg, quadric_defect,
)
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
    (rx, ry, rz), (dx, dy, dz) = legs
    assert det.shape == (8,)
    assert np.array_equal(det, [0.0, rz, ry, rx, dx, dy, dz, 0.0])
    assert mv_norm(det) == pytest.approx(1.0, abs=1e-12)
    assert quadric_defect(det) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_detector_refuses_non_finite_legs(bad):
    legs = ((SQRT_HALF, 0.0, 0.0), (0.0, SQRT_HALF, bad))
    with pytest.raises(ValueError, match="finite"):
        detector(legs)
    with pytest.raises(ValueError, match="finite"):
        detector([make_pair_planar((1.0, 0.0, 0.0)), legs])


def test_detector_refuses_legs_of_the_wrong_shape():
    for legs in ((1.0, 0.0, 0.0), ((1.0, 0.0), (0.0, 1.0)),
                 np.zeros((2, 2, 2, 3))):
        with pytest.raises(ValueError, match="legs"):
            detector(legs)


def test_spin_state_scales_by_the_coin():
    # the source of a trial is lam D, squared under the tag lam
    det = detector(make_pair_planar((1.0, 0.0, 0.0)))
    for lam in (1, -1):
        st = lam * det
        sq = mv_mul(st, st, lam)
        assert np.all(sq[1:] == 0.0)
        assert sq[SCALAR] == pytest.approx(-1.0, abs=1e-12)
    for bad in (0, 1.5):
        with pytest.raises(ValueError):
            mv_mul(bad * det, bad * det, bad)


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
    for bad in (2, -1.9, "1"):
        with pytest.raises(ValueError):
            measure(det, bad, "first")
    # per-row coins belong to a stack
    with pytest.raises(ValueError):
        measure(det, np.array([1]), "first")
    role_det = detector(make_pair_ghz((0.0, 0.0, 1.0), "A"))
    # role elements are scaled for the four-party identities, not unit norm
    assert mv_norm(role_det) != pytest.approx(1.0, abs=1e-6)
    with pytest.raises(DegenerateInput):
        measure(role_det, 1, "first")


# ---------------------------------------------------------------------------

def _reflected_axis(b, s):
    """Plane leg of the element recover_source_axis transports back."""
    return plane_leg(_reflect(np.array([b]), np.array([s]))[1][0])


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


# ---------------------------------------------------------------------------
# non-finite directions

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constructors_refuse_non_finite_directions(bad):
    for a in ((bad, 0.0, 0.0), (0.6, bad, 0.0)):
        with pytest.raises(DegenerateInput):
            make_pair_planar(a)
    for a in ((bad, 0.0, 0.0), (0.0, 0.6, bad)):
        with pytest.raises(DegenerateInput):
            make_pair_general(a)
        for role in "ABCD":
            with pytest.raises(DegenerateInput):
                make_pair_ghz(a, role)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_source_recovery_refuses_non_finite_axes(bad):
    unit = (1.0, 0.0, 0.0)
    with pytest.raises(DegenerateInput, match="detector axis"):
        recover_source_axis((bad, 0.0, 0.0), unit)
    with pytest.raises(DegenerateInput, match="source axis"):
        recover_source_axis(unit, (0.0, bad, 0.0))


# ---------------------------------------------------------------------------
# stacks

def _planar_rows(rng, n):
    t = rng.uniform(-math.pi, math.pi, n)
    return detector([make_pair_planar((math.cos(a), math.sin(a), 0.0))
                     for a in t])


def test_detector_rows_are_the_detectors():
    # a stack of settings gives each row the bits of its one-row call
    rng = np.random.default_rng(51)
    legs = [make_pair_general(a / np.linalg.norm(a))
            for a in rng.standard_normal((20, 3))]
    rows = detector(legs)
    assert rows.shape == (20, 8)
    assert rows.tobytes() == detector(np.array(legs)).tobytes()
    for row, leg in zip(rows, legs):
        assert row.tobytes() == detector(leg).tobytes()


def test_row_outcomes_are_measure():
    rng = np.random.default_rng(52)
    dets = _planar_rows(rng, 200)
    lams = rng.choice([1, -1], size=200)
    for side in ("first", "second"):
        got = measure(dets, lams, side)
        want = [measure(d, int(lam), side) for d, lam in zip(dets, lams)]
        assert all(type(w) is int for w in want)
        assert got.shape == (200,)
        assert got.tolist() == want
        # one coin for every row is the array of that coin
        for lam in (1, -1):
            assert measure(dets, lam, side).tolist() == [
                measure(d, lam, side) for d in dets]


def _transport_reference(b, s):
    """The transport written element by element through mv_mul."""
    xb = detector((b, (0.0, 0.0, 0.0)))
    xs = detector((s, (0.0, 0.0, 0.0)))
    y = mv_mul(-xb, mv_mul(xs, xb, 1), 1)
    return plane_leg(mv_mul(xb, mv_mul(y, -xb, 1), 1))


def test_row_transport_is_the_scalar_transport_bitwise():
    rng = np.random.default_rng(53)
    b, s = rng.standard_normal((2, 200, 3))
    b /= np.linalg.norm(b, axis=1)[:, None]
    s /= np.linalg.norm(s, axis=1)[:, None]
    rows = recover_source_axis(b, s)
    assert rows.shape == (200, 3)
    for got, bi, si in zip(rows, b, s):
        want = _transport_reference(bi, si)
        assert got.tobytes() == want.tobytes()
        assert recover_source_axis(bi, si).tobytes() == want.tobytes()


@pytest.mark.parametrize("side", ["first", "second"])
def test_row_outcomes_refuse_one_bad_row(side):
    rng = np.random.default_rng(54)
    dets = _planar_rows(rng, 9)
    lams = rng.choice([1, -1], size=9)
    assert len(measure(dets, lams, side)) == 9
    scaled = dets.copy()
    scaled[4] *= 1.001
    with pytest.raises(DegenerateInput, match="unit-norm"):
        measure(scaled, lams, side)
    # unit norm, but the volume blade squares to +1, so the outcome sits
    # at the opposite sign of its limit
    drifting = dets.copy()
    drifting[6] = 0.0
    drifting[6, E_VOL] = 1.0
    with pytest.raises(DegenerateInput, match="drifted"):
        measure(drifting, lams, side)


def test_row_transport_refuses_one_leaking_row(monkeypatch):
    rng = np.random.default_rng(55)
    b, s = rng.standard_normal((2, 9, 3))
    b /= np.linalg.norm(b, axis=1)[:, None]
    s /= np.linalg.norm(s, axis=1)[:, None]
    assert recover_source_axis(b, s).shape == (9, 3)
    axis_rows = spin._axis_rows

    def leaky(u, what):
        rows = axis_rows(u, what)
        if what == "source axis":
            rows[5, E_X] = 0.25     # a leg outside the planes
        return rows

    monkeypatch.setattr(spin, "_axis_rows", leaky)
    with pytest.raises(DegenerateInput, match="leaked"):
        recover_source_axis(b, s)


def test_row_transport_refuses_one_non_unit_row():
    b = np.array([[1.0, 0.0, 0.0]] * 5)
    s = np.array([[0.0, 1.0, 0.0]] * 5)
    s[3] = (0.0, 1.5, 0.0)
    with pytest.raises(DegenerateInput, match="source axis"):
        recover_source_axis(b, s)


def _unit_directions(rng, n):
    a = rng.standard_normal((n, 3))
    a /= np.linalg.norm(a, axis=1)[:, None]
    # rows near +-x take the y-axis fallback of the general constructor
    a[:4] = [(1.0, 0.0, 0.0), (-math.cos(1e-5), math.sin(1e-5), 0.0),
             (0.9999999996253763, 2.2002019329397417e-05,
              1.6283697568285344e-05), (0.0, 0.0, 1.0)]
    return a


def _planar_directions(rng, n):
    t = rng.uniform(-math.pi, math.pi, n)
    return np.stack([np.cos(t), np.sin(t), np.zeros(n)], axis=1)


def _assert_rows_are_the_one_row_calls(make, dirs):
    legs = make(dirs)
    assert isinstance(legs, np.ndarray) and legs.shape == (len(dirs), 2, 3)
    for row, a in zip(legs, dirs):
        one = make(a)
        assert type(one) is tuple and all(type(leg) is tuple for leg in one)
        assert row.tobytes() == np.array(one).tobytes()


def test_constructor_rows_are_the_one_row_constructions():
    rng = np.random.default_rng(56)
    dirs = _unit_directions(rng, 60)
    _assert_rows_are_the_one_row_calls(make_pair_general, dirs)
    for role in "ABCD":
        _assert_rows_are_the_one_row_calls(
            lambda a: make_pair_ghz(a, role), dirs)
    _assert_rows_are_the_one_row_calls(make_pair_planar,
                                       _planar_directions(rng, 60))


@pytest.mark.parametrize("bad", [(0.0, 0.6, 0.0), (math.nan, 0.0, 0.0),
                                 (0.0, 0.0, 0.0), (0.6, 0.8000001, 0.0)])
def test_constructor_stacks_refuse_one_bad_row(bad):
    rng = np.random.default_rng(57)
    dirs = _unit_directions(rng, 9)
    planar = _planar_directions(rng, 9)
    dirs[5] = planar[5] = bad
    with pytest.raises(DegenerateInput):
        make_pair_planar(planar)
    for role in "ABCD":
        with pytest.raises(DegenerateInput):
            make_pair_ghz(dirs, role)
    if bad != (0.6, 0.8000001, 0.0):
        # the general constructor normalises a direction unit to 1e-6
        with pytest.raises(DegenerateInput):
            make_pair_general(dirs)


def test_planar_stack_refuses_one_row_off_the_plane():
    dirs = _planar_directions(np.random.default_rng(58), 9)
    make_pair_planar(dirs)
    dirs[7] = (0.6, 0.8, 1e-300)
    with pytest.raises(DegenerateInput, match="z-free"):
        make_pair_planar(dirs)


def test_constructors_refuse_directions_of_the_wrong_shape():
    for a in ((1.0, 0.0), np.zeros((2, 2, 3))):
        for make in (make_pair_planar, make_pair_general,
                     lambda a: make_pair_ghz(a, "A")):
            with pytest.raises(ValueError, match="direction"):
                make(a)
