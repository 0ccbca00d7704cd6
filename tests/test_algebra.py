import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from septenary.algebra import (
    BLADE_NAMES,
    Multivector,
    basis_product,
    commutator,
    from_dual_quaternion,
    is_on_s7,
    mul_batch,
    mv_mul,
    mv_norm,
    mv_reverse,
    quadric_defect,
    scalar_part,
    to_dual_quaternion,
)
from septenary.errors import OrientationMismatch

from frozen import PRODUCT_TABLE

coeff = st.floats(min_value=-10.0, max_value=10.0,
                  allow_nan=False, allow_infinity=False)
coeffs8 = st.tuples(*[coeff] * 8)
orientation = st.sampled_from([1, -1])


def _expected_blade(mu, nu, lam):
    """Frozen table entry as an eight-vector."""
    out = np.zeros(8)
    if mu == 0 and nu == 0:
        out[0] = 1.0
    elif mu == 0:
        out[nu] = 1.0
    elif nu == 0:
        out[mu] = 1.0
    else:
        sign, blade, lam_power = PRODUCT_TABLE[(mu, nu)]
        out[blade] = sign * (lam ** lam_power)
    return out


# ---------------------------------------------------------------------------
# the table itself

def test_all_64_products_match_frozen_table_both_orientations():
    for lam in (1, -1):
        for mu in range(8):
            for nu in range(8):
                got = basis_product(mu, nu, lam)
                want = _expected_blade(mu, nu, lam)
                assert np.array_equal(got.coeffs, want), (
                    "%s * %s at %+d" % (BLADE_NAMES[mu], BLADE_NAMES[nu], lam))
                assert got.lam == lam


def test_products_of_blades_stay_single_blades():
    for lam in (1, -1):
        for mu in range(8):
            for nu in range(8):
                c = basis_product(mu, nu, lam).coeffs
                assert np.count_nonzero(c) == 1
                assert abs(c[np.nonzero(c)][0]) == 1.0


def test_blade_squares():
    for lam in (1, -1):
        for k in range(1, 7):
            assert basis_product(k, k, lam).coeffs[0] == -1.0
        assert basis_product(7, 7, lam).coeffs[0] == 1.0
        assert basis_product(0, 0, lam).coeffs[0] == 1.0


def test_basis_product_rejects_bad_indices():
    with pytest.raises(ValueError):
        basis_product(8, 0)
    with pytest.raises(ValueError):
        basis_product(0, -1)
    with pytest.raises(ValueError):
        basis_product(0, 0, lam=2)


def test_all_basis_triples_associate_exactly():
    # 512 triples per orientation; every value involved is 0 or +-1 so the
    # float comparison below is exact
    for lam in (1, -1):
        blades = [Multivector.basis(i, lam) for i in range(8)]
        for x in blades:
            for y in blades:
                xy = mv_mul(x, y)
                for z in blades:
                    left = mv_mul(xy, z)
                    right = mv_mul(x, mv_mul(y, z))
                    assert np.array_equal(left.coeffs, right.coeffs)


# ---------------------------------------------------------------------------
# dense-element properties

@settings(max_examples=200)
@given(coeffs8, coeffs8, coeffs8, orientation)
def test_associativity_on_dense_elements(a, b, c, lam):
    x, y, z = (Multivector(v, lam) for v in (a, b, c))
    left = mv_mul(mv_mul(x, y), z)
    right = mv_mul(x, mv_mul(y, z))
    scale = max(1.0, mv_norm(x) * mv_norm(y) * mv_norm(z))
    assert np.max(np.abs(left.coeffs - right.coeffs)) <= 1e-12 * scale


@settings(max_examples=200)
@given(coeffs8, coeffs8, orientation)
def test_scalar_part_is_the_signed_pairing(a, b, lam):
    x, y = Multivector(a, lam), Multivector(b, lam)
    signs = np.array([1, -1, -1, -1, -1, -1, -1, 1], dtype=float)
    want = float(np.sum(signs * x.coeffs * y.coeffs))
    assert scalar_part(mv_mul(x, y)) == pytest.approx(want, abs=1e-12)
    # the scalar slot of a product never sees the orientation sign
    x2, y2 = Multivector(a, -lam), Multivector(b, -lam)
    assert scalar_part(mv_mul(x2, y2)) == scalar_part(mv_mul(x, y))


@settings(max_examples=200)
@given(coeffs8, coeffs8, orientation)
def test_reversal_is_an_antiautomorphism(a, b, lam):
    x, y = Multivector(a, lam), Multivector(b, lam)
    lhs = mv_reverse(mv_mul(x, y))
    rhs = mv_mul(mv_reverse(y), mv_reverse(x))
    assert_allclose(lhs.coeffs, rhs.coeffs, rtol=0.0, atol=1e-12)


@settings(max_examples=200)
@given(coeffs8, orientation)
def test_reverse_pairing_gives_the_squared_norm(a, lam):
    x = Multivector(a, lam)
    got = scalar_part(mv_mul(x, mv_reverse(x)))
    assert got == pytest.approx(mv_norm(x) ** 2, rel=1e-12, abs=1e-12)


def test_grade_involution_intertwines_the_orientations():
    rng = np.random.default_rng(42)
    flip = np.array([1, -1, -1, -1, -1, -1, -1, -1], dtype=float)
    for _ in range(200):
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        minus = mv_mul(Multivector(a, -1), Multivector(b, -1)).coeffs
        plus = mv_mul(Multivector(flip * a, 1), Multivector(flip * b, 1)).coeffs
        assert_allclose(minus, flip * plus, rtol=0.0, atol=1e-12)


def test_commutator_is_antisymmetric_and_scalar_free():
    rng = np.random.default_rng(7)
    for lam in (1, -1):
        x = Multivector(rng.standard_normal(8), lam)
        y = Multivector(rng.standard_normal(8), lam)
        c = commutator(x, y)
        d = commutator(y, x)
        assert_allclose(c.coeffs, -d.coeffs, rtol=0.0, atol=1e-12)
        two_c = mv_mul(x, y) - mv_mul(y, x)
        assert_allclose(two_c.coeffs, 2.0 * c.coeffs, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# the dual-quaternion view

def _qmul(p, q):
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    )


def test_split_product_matches_quaternion_pairs():
    # at +1 the algebra is a split dual quaternion algebra: the coupling
    # unit squares to +1, so zr = xr yr + xd yd and zd = xr yd + xd yr
    rng = np.random.default_rng(13)
    for _ in range(100):
        x = Multivector(rng.standard_normal(8), 1)
        y = Multivector(rng.standard_normal(8), 1)
        dx, dy = to_dual_quaternion(x), to_dual_quaternion(y)
        zr = np.add(_qmul(dx.q_r, dy.q_r), _qmul(dx.q_d, dy.q_d))
        zd = np.add(_qmul(dx.q_r, dy.q_d), _qmul(dx.q_d, dy.q_r))
        z = to_dual_quaternion(mv_mul(x, y))
        assert_allclose(z.q_r, zr, rtol=0.0, atol=1e-12)
        assert_allclose(z.q_d, zd, rtol=0.0, atol=1e-12)


@settings(max_examples=100)
@given(coeffs8, orientation)
def test_dual_quaternion_round_trip_is_exact(a, lam):
    x = Multivector(a, lam)
    back = from_dual_quaternion(to_dual_quaternion(x), lam)
    assert np.array_equal(back.coeffs, x.coeffs)
    assert back.lam == lam


# ---------------------------------------------------------------------------
# orientation handling

def test_mixed_orientation_operations_refuse():
    x = Multivector.basis(1, 1)
    y = Multivector.basis(1, -1)
    with pytest.raises(OrientationMismatch):
        mv_mul(x, y)
    with pytest.raises(OrientationMismatch):
        _ = x + y
    with pytest.raises(OrientationMismatch):
        _ = x - y


def test_reoriented_flips_the_nonscalar_slots():
    x = Multivector([2.0, 1, -1, 3, 0.5, 0, 7, -2], 1)
    y = x.reoriented(-1)
    assert y.lam == -1
    assert y.coeffs[0] == x.coeffs[0]
    assert np.array_equal(y.coeffs[1:], -x.coeffs[1:])
    # same tag is a plain copy, double flip is the identity
    assert np.array_equal(x.reoriented(1).coeffs, x.coeffs)
    assert np.array_equal(y.reoriented(1).coeffs, x.coeffs)


def test_orientation_tag_validation():
    with pytest.raises(ValueError):
        Multivector(np.zeros(8), 0)
    with pytest.raises(ValueError):
        Multivector.basis(3, lam=5)


def test_rejects_non_finite_coefficients():
    bad = [0.0] * 8
    bad[3] = float("nan")
    with pytest.raises(ValueError):
        Multivector(bad, 1)


def test_dict_round_trip_keeps_tag_and_coeffs():
    x = Multivector([1, 2, 3, 4, 5, 6, 7, 8], -1)
    d = x.to_dict()
    assert d["orientation"] == -1
    y = Multivector.from_dict(d)
    assert y == x


def test_equality_and_scalar_multiplication():
    x = Multivector.basis(2, 1)
    assert 2.0 * x == x * 2.0
    assert (2.0 * x).coeffs[2] == 2.0
    assert x != Multivector.basis(2, -1)
    assert hash(x) == hash(Multivector.basis(2, 1))


# ---------------------------------------------------------------------------
# batched product and exact cancellation

def test_mul_batch_agrees_with_mv_mul():
    # one kernel serves both forms, so every row is bitwise equal
    rng = np.random.default_rng(99)
    xs = rng.standard_normal((64, 8))
    ys = rng.standard_normal((64, 8))
    for lam in (1, -1):
        batched = mul_batch(xs, ys, lam)
        for i in range(64):
            one = mv_mul(Multivector(xs[i], lam), Multivector(ys[i], lam))
            assert np.array_equal(batched[i], one.coeffs)


def test_batched_squares_of_middle_slot_elements_cancel_the_rotation_slots():
    rng = np.random.default_rng(5)
    xs = np.zeros((200, 8))
    xs[:, 1:7] = rng.standard_normal((200, 6))
    for lam in (1, -1):
        sq = mul_batch(xs, xs, lam)
        assert np.all(sq[:, 1:7] == 0.0)


def test_squares_of_middle_slot_elements_cancel_the_rotation_slots():
    # the rotation-type cross terms of X*X are antisymmetric and mv_mul
    # sums each {mu, nu} pair in one expression, so slots 1..6 come out
    # bitwise zero for any element carried by the six middle slots; slot 7
    # keeps the symmetric pairing of the two halves
    rng = np.random.default_rng(5)
    for lam in (1, -1):
        for _ in range(200):
            c = np.zeros(8)
            c[1:7] = rng.standard_normal(6)
            x = Multivector(c, lam)
            sq = mv_mul(x, x)
            assert np.all(sq.coeffs[1:7] == 0.0)
            assert sq.coeffs[0] == pytest.approx(
                -float(np.dot(c[1:7], c[1:7])), rel=1e-12)
            pairing = c[1] * c[6] + c[2] * c[5] + c[3] * c[4]
            assert sq.coeffs[7] == pytest.approx(2.0 * lam * pairing,
                                                 rel=1e-12, abs=1e-15)


def test_planar_pair_squares_are_exactly_scalar():
    # for pair-built settings the slot 7 pairing is made of products that
    # cancel bitwise (x*(-y) against y*x), so the whole non-scalar part of
    # the square is exactly zero, which criterion-style conservation tests
    # rely on
    from septenary.spin import detector, make_pair_planar

    rng = np.random.default_rng(5)
    for lam in (1, -1):
        for _ in range(200):
            t = rng.uniform(-math.pi, math.pi)
            det = detector(make_pair_planar((math.cos(t), math.sin(t), 0.0)))
            n = Multivector(lam * det.element.coeffs, lam)
            sq = mv_mul(n, n)
            assert np.all(sq.coeffs[1:] == 0.0)
            assert sq.coeffs[0] == pytest.approx(-1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# norm composition on the closed quadric

def _quadric_unit(rng, lam):
    """Unit element whose halves pair to zero under the given orientation.

    The pairing that closes under multiplication flips the sign of the
    scalar-times-volume term with the orientation: solve the pairing for
    slot 0 and normalise.
    """
    while True:
        c = rng.standard_normal(8)
        if abs(c[7]) < 0.1:
            continue
        s = 1.0 if lam == 1 else -1.0
        c[0] = s * (c[1] * c[6] + c[2] * c[5] + c[3] * c[4]) / c[7]
        c /= np.linalg.norm(c)
        return Multivector(c, lam)


def test_norm_composes_on_the_quadric_at_plus_one():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(500):
        x = _quadric_unit(rng, 1)
        y = _quadric_unit(rng, 1)
        assert is_on_s7(x) and is_on_s7(y)
        p = mv_mul(x, y)
        worst = max(worst, abs(mv_norm(p) - 1.0), abs(quadric_defect(p)))
    assert worst <= 1e-10


def test_norm_composes_at_minus_one_with_the_involuted_pairing():
    # under the -1 orientation the closed locus is the involution image of
    # the +1 locus: the slot0*slot7 term enters with the opposite sign.
    # Elements with no slot0/slot7 content (all physical settings) lie on
    # both loci, which is why the engine never needs the second form.
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(500):
        x = _quadric_unit(rng, -1)
        y = _quadric_unit(rng, -1)
        p = mv_mul(x, y)
        c = p.coeffs
        inv_defect = c[0] * c[7] + c[1] * c[6] + c[2] * c[5] + c[3] * c[4]
        worst = max(worst, abs(mv_norm(p) - 1.0), abs(inv_defect))
    assert worst <= 1e-10


def test_norm_is_multiplicative_not_just_preserved():
    rng = np.random.default_rng(31)
    for _ in range(200):
        x = _quadric_unit(rng, 1)
        y = _quadric_unit(rng, 1)
        sx, sy = rng.uniform(0.1, 3.0, 2)
        p = mv_mul(sx * x, sy * y)
        assert mv_norm(p) == pytest.approx(sx * sy, rel=1e-10)


def test_is_on_s7_needs_both_conditions():
    # unit norm, nonzero pairing
    unit_off_quadric = Multivector(
        np.array([1.0, 1.0, 0, 0, 0, 0, 1.0, 0]) / math.sqrt(3.0), 1)
    assert mv_norm(unit_off_quadric) == pytest.approx(1.0, abs=1e-12)
    assert not is_on_s7(unit_off_quadric)
    # zero pairing, wrong norm
    on_quadric_not_unit = Multivector([0, 2.0, 0, 0, 0, 0, 0, 0], 1)
    assert quadric_defect(on_quadric_not_unit) == 0.0
    assert not is_on_s7(on_quadric_not_unit)
    # both satisfied
    assert is_on_s7(Multivector([0, 1.0, 0, 0, 0, 0, 0, 0], 1))
