import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from septenary.algebra import (
    B_XY,
    BLADE_NAMES,
    E_VOL,
    E_Z,
    PRODUCT_TENSOR,
    SCALAR,
    Multivector,
    _product,
    basis_product,
    mv_mul,
    mv_norm,
    place_legs,
    plane_leg,
    quadric_defect,
    scalar_part,
    term_plan,
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
        blades = [Multivector(np.eye(8)[i], lam) for i in range(8)]
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


def test_grade_involution_intertwines_the_orientations():
    rng = np.random.default_rng(42)
    flip = np.array([1, -1, -1, -1, -1, -1, -1, -1], dtype=float)
    for _ in range(200):
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        minus = mv_mul(Multivector(a, -1), Multivector(b, -1)).coeffs
        plus = mv_mul(Multivector(flip * a, 1), Multivector(flip * b, 1)).coeffs
        assert_allclose(minus, flip * plus, rtol=0.0, atol=1e-12)


def test_commutator_is_antisymmetric_and_scalar_free():
    # the scalar row is symmetric in its factors term by term, so xy - yx
    # has an exactly zero scalar part; for elements carried by the six
    # middle slots (every pair-built element) the volume slot is symmetric
    # too and slots 1..6 change sign bitwise with the order
    rng = np.random.default_rng(7)
    for lam in (1, -1):
        for _ in range(100):
            a, b = rng.standard_normal((2, 8))
            xy = mv_mul(Multivector(a, lam), Multivector(b, lam)).coeffs
            yx = mv_mul(Multivector(b, lam), Multivector(a, lam)).coeffs
            assert xy[SCALAR] == yx[SCALAR]
            a[[SCALAR, E_VOL]] = b[[SCALAR, E_VOL]] = 0.0
            xy = mv_mul(Multivector(a, lam), Multivector(b, lam)).coeffs
            yx = mv_mul(Multivector(b, lam), Multivector(a, lam)).coeffs
            assert xy[SCALAR] == yx[SCALAR] and xy[E_VOL] == yx[E_VOL]
            assert np.array_equal(xy[1:7], -yx[1:7])


# ---------------------------------------------------------------------------
# the split-dual-quaternion structure

def _qmul(p, q):
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    )


def _halves(x):
    """The two quaternion halves (w, x, y, z) of an element, read by slot:
    slots 0..3 in order, then -slot 7 and slots 6, 5, 4."""
    c = x.coeffs
    return (c[0], c[1], c[2], c[3]), (-c[7], c[6], c[5], c[4])


def test_split_product_matches_quaternion_pairs():
    # at +1 the algebra is a split dual quaternion algebra: the coupling
    # unit squares to +1, so zr = xr yr + xd yd and zd = xr yd + xd yr
    rng = np.random.default_rng(13)
    for _ in range(100):
        x = Multivector(rng.standard_normal(8), 1)
        y = Multivector(rng.standard_normal(8), 1)
        (xr, xd), (yr, yd) = _halves(x), _halves(y)
        zr = np.add(_qmul(xr, yr), _qmul(xd, yd))
        zd = np.add(_qmul(xr, yd), _qmul(xd, yr))
        z_r, z_d = _halves(mv_mul(x, y))
        assert_allclose(z_r, zr, rtol=0.0, atol=1e-12)
        assert_allclose(z_d, zd, rtol=0.0, atol=1e-12)


def test_plane_product_is_minus_dot_plus_reversed_cross():
    # the planes dual to u and v multiply to -(u.v) plus the plane of
    # v x u at +1, as (Iu)(Iv) = -u.v - I(u x v) requires, and of u x v at
    # -1; nothing leaks into the legs or the volume slot
    rng = np.random.default_rng(21)
    for lam in (1, -1):
        for _ in range(100):
            u, v = rng.standard_normal((2, 3))
            x = Multivector(place_legs(np.zeros(8), u, (0.0, 0.0, 0.0)), lam)
            y = Multivector(place_legs(np.zeros(8), v, (0.0, 0.0, 0.0)), lam)
            prod = mv_mul(x, y).coeffs
            assert np.all(prod[4:] == 0.0)
            assert prod[SCALAR] == pytest.approx(-float(u @ v), rel=1e-12,
                                                 abs=1e-12)
            assert_allclose(plane_leg(prod), lam * np.cross(v, u),
                            rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# orientation handling

def test_mixed_orientation_operations_refuse():
    x = Multivector(np.eye(8)[1], 1)
    y = Multivector(np.eye(8)[1], -1)
    with pytest.raises(OrientationMismatch):
        mv_mul(x, y)
    with pytest.raises(OrientationMismatch):
        mv_mul(y, x)


def test_orientation_tag_validation():
    with pytest.raises(ValueError):
        Multivector(np.zeros(8), 0)
    with pytest.raises(ValueError):
        Multivector(np.eye(8)[3], lam=5)
    # a tag is checked before it is converted, so nothing is truncated to +-1
    for bad in (1.5, -1.9, "1"):
        with pytest.raises(ValueError):
            Multivector(np.zeros(8), bad)
        with pytest.raises(ValueError):
            basis_product(1, 2, bad)


def test_rejects_non_finite_coefficients():
    bad = [0.0] * 8
    bad[3] = float("nan")
    with pytest.raises(ValueError):
        Multivector(bad, 1)


def test_equality_and_hash_follow_the_tag_and_the_coefficients():
    # elements compare by value; they wrap a mutable coefficient array, so
    # they are not hashable
    x = Multivector(np.eye(8)[2], 1)
    assert x == Multivector(np.eye(8)[2], 1)
    with pytest.raises(TypeError):
        hash(x)
    assert x != Multivector(np.eye(8)[2], -1)
    assert x != Multivector(2.0 * np.eye(8)[2], 1)
    # a zero of either sign is equal
    zero, minus_zero = Multivector([0.0] * 8), Multivector([-0.0] + [0.0] * 7)
    assert zero == minus_zero
    with pytest.raises(TypeError):
        hash(zero)
    with pytest.raises(TypeError):
        {zero, minus_zero}


# ---------------------------------------------------------------------------
# pruned products and exact cancellation

def test_products_equal_the_exact_tensor_contraction():
    # on small integers every product and sum is exact, so the kernel must
    # give the contraction with the product tensor bit for bit, up to the
    # sign of a zero; rows cancel to exact zeros of either sign
    rng = np.random.default_rng(7)
    for _ in range(400):
        lam = int(rng.choice([1, -1]))
        za, zb = (tuple(np.flatnonzero(rng.random(8) < rng.random()).tolist())
                  for _ in range(2))
        xs, ys = rng.integers(-2, 3, size=(2, 8, 16)).astype(np.float64)
        xs[list(za)] = 0.0
        ys[list(zb)] = 0.0
        want = np.einsum("rmn,mk,nk->rk", PRODUCT_TENSOR[lam], xs, ys)
        full = np.empty((8, 16))
        _product(xs, ys, term_plan(lam), full)
        assert np.array_equal(full, want)
        a = [None if i in za else xs[i] for i in range(8)]
        b = [None if i in zb else ys[i] for i in range(8)]
        for scalar_only in (False, True):
            out = ["unwritten"] * 8
            _product(a, b, term_plan(lam, za, zb, scalar_only), out)
            for rho in range(8):
                if scalar_only and rho != SCALAR:
                    assert out[rho] == "unwritten"
                elif out[rho] is None:
                    assert np.all(want[rho] == 0.0)
                else:
                    assert np.array_equal(out[rho], want[rho])


def test_planar_factors_alternate_between_two_slot_sets():
    planar_zeros = (SCALAR, B_XY, E_Z, E_VOL)
    rng = np.random.default_rng(3)
    a, b = ([None if i in planar_zeros else v for i, v in enumerate(r)]
            for r in rng.standard_normal((2, 8)))
    for lam in (1, -1):
        out = [0.0] * 8
        _product(a, b, term_plan(lam, planar_zeros, planar_zeros), out)
        survivors = tuple(i for i, v in enumerate(out) if v is not None)
        assert survivors == planar_zeros


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
            n = Multivector(lam * det.coeffs, lam)
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
        for z in (x, y):
            assert abs(mv_norm(z) - 1.0) <= 1e-12
            assert abs(quadric_defect(z)) <= 1e-12
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
        p = mv_mul(Multivector(sx * x.coeffs, 1), Multivector(sy * y.coeffs, 1))
        assert mv_norm(p) == pytest.approx(sx * sy, rel=1e-10)

