import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from septenary.algebra import (
    B_XY,
    E_VOL,
    E_Z,
    PRODUCT_TENSOR,
    SCALAR,
    _product,
    mv_mul,
    mv_norm,
    place_legs,
    plane_leg,
    quadric_defect,
    term_plan,
)

from frozen import PRODUCT_TABLE

coeff = st.floats(min_value=-10.0, max_value=10.0,
                  allow_nan=False, allow_infinity=False)
coeffs8 = st.tuples(*[coeff] * 8)
orientation = st.sampled_from([1, -1])


def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


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

def _blade_product(mu, nu, lam):
    """The shipped product of two basis blades, rows of the identity."""
    return mv_mul(np.eye(8)[mu], np.eye(8)[nu], lam)


def test_all_64_products_match_frozen_table_both_orientations():
    for lam in (1, -1):
        for mu in range(8):
            for nu in range(8):
                got = _blade_product(mu, nu, lam)
                want = _expected_blade(mu, nu, lam)
                assert got.shape == (8,)
                assert np.array_equal(got, want), (mu, nu, lam)


def test_products_of_blades_stay_single_blades():
    for lam in (1, -1):
        for mu in range(8):
            for nu in range(8):
                c = _blade_product(mu, nu, lam)
                assert np.count_nonzero(c) == 1
                assert abs(c[np.nonzero(c)][0]) == 1.0


def test_blade_squares():
    for lam in (1, -1):
        for k in range(1, 7):
            assert _blade_product(k, k, lam)[SCALAR] == -1.0
        assert _blade_product(7, 7, lam)[SCALAR] == 1.0
        assert _blade_product(0, 0, lam)[SCALAR] == 1.0


def test_all_basis_triples_associate_exactly():
    # 512 triples per orientation; every value involved is 0 or +-1 so the
    # float comparison below is exact
    for lam in (1, -1):
        blades = np.eye(8)
        for x in blades:
            for y in blades:
                xy = mv_mul(x, y, lam)
                for z in blades:
                    left = mv_mul(xy, z, lam)
                    right = mv_mul(x, mv_mul(y, z, lam), lam)
                    assert np.array_equal(left, right)


# ---------------------------------------------------------------------------
# dense-element properties

@settings(max_examples=200)
@given(coeffs8, coeffs8, coeffs8, orientation)
def test_associativity_on_dense_elements(a, b, c, lam):
    x, y, z = (np.array(v) for v in (a, b, c))
    left = mv_mul(mv_mul(x, y, lam), z, lam)
    right = mv_mul(x, mv_mul(y, z, lam), lam)
    scale = max(1.0, mv_norm(x) * mv_norm(y) * mv_norm(z))
    assert np.max(np.abs(left - right)) <= 1e-12 * scale


@settings(max_examples=200)
@given(coeffs8, coeffs8, orientation)
def test_scalar_part_is_the_signed_pairing(a, b, lam):
    x, y = np.array(a), np.array(b)
    signs = np.array([1, -1, -1, -1, -1, -1, -1, 1], dtype=float)
    want = float(np.sum(signs * x * y))
    got = mv_mul(x, y, lam)[SCALAR]
    assert got == pytest.approx(want, abs=1e-12)
    assert _bits(mv_mul(x, y, lam, scalar_only=True)) == _bits(got)
    # the scalar slot of a product never sees the orientation sign
    assert mv_mul(x, y, -lam)[SCALAR] == got


def test_grade_involution_intertwines_the_orientations():
    rng = np.random.default_rng(42)
    flip = np.array([1, -1, -1, -1, -1, -1, -1, -1], dtype=float)
    for _ in range(200):
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        minus = mv_mul(a, b, -1)
        plus = mv_mul(flip * a, flip * b, 1)
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
            xy, yx = mv_mul(a, b, lam), mv_mul(b, a, lam)
            assert xy[SCALAR] == yx[SCALAR]
            a[[SCALAR, E_VOL]] = b[[SCALAR, E_VOL]] = 0.0
            xy, yx = mv_mul(a, b, lam), mv_mul(b, a, lam)
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


def _halves(c):
    """The two quaternion halves (w, x, y, z) of an element, read by slot:
    slots 0..3 in order, then -slot 7 and slots 6, 5, 4."""
    return (c[0], c[1], c[2], c[3]), (-c[7], c[6], c[5], c[4])


def test_split_product_matches_quaternion_pairs():
    # at +1 the algebra is a split dual quaternion algebra: the coupling
    # unit squares to +1, so zr = xr yr + xd yd and zd = xr yd + xd yr
    rng = np.random.default_rng(13)
    for _ in range(100):
        x, y = rng.standard_normal((2, 8))
        (xr, xd), (yr, yd) = _halves(x), _halves(y)
        zr = np.add(_qmul(xr, yr), _qmul(xd, yd))
        zd = np.add(_qmul(xr, yd), _qmul(xd, yr))
        z_r, z_d = _halves(mv_mul(x, y, 1))
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
            x = place_legs(np.zeros(8), u, (0.0, 0.0, 0.0))
            y = place_legs(np.zeros(8), v, (0.0, 0.0, 0.0))
            prod = mv_mul(x, y, lam)
            assert np.all(prod[4:] == 0.0)
            assert prod[SCALAR] == pytest.approx(-float(u @ v), rel=1e-12,
                                                 abs=1e-12)
            assert_allclose(plane_leg(prod), lam * np.cross(v, u),
                            rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# orientation handling

def test_orientation_tag_validation():
    x = np.eye(8)[3]
    stack = np.ones((3, 8))
    for bad in (0, 5):
        with pytest.raises(ValueError):
            mv_mul(x, x, bad)
        with pytest.raises(ValueError):
            mv_mul(stack, stack, bad)
    # a tag is checked before it is converted, so nothing is truncated to +-1
    for bad in (1.5, -1.9, "1"):
        with pytest.raises(ValueError):
            mv_mul(x, x, bad)
    # per-row tags belong to a stack; a row takes one tag, which may be a
    # numpy scalar or a 0-d array
    with pytest.raises(ValueError):
        mv_mul(x, x, np.array([1]))
    for tag in (np.int64(-1), np.array(-1)):
        assert _bits(mv_mul(x, x, tag)) == _bits(mv_mul(x, x, -1))


def test_rejects_non_finite_coefficients():
    for bad in (math.nan, math.inf, -math.inf):
        row = np.zeros(8)
        row[3] = bad
        stack = np.ones((4, 8))
        stack[2, 5] = bad
        for x, tags in ((row, (1, -1)),
                        (stack, (1, -1, np.array([1, -1, -1, 1])))):
            for lam in tags:
                with pytest.raises(ValueError, match="finite"):
                    mv_mul(x, np.ones_like(x), lam)
                with pytest.raises(ValueError, match="finite"):
                    mv_mul(np.ones_like(x), x, lam, scalar_only=True)


def test_products_refuse_operands_that_are_not_rows_or_stacks():
    for x, y in ((np.ones(7), np.ones(7)), (np.ones(8), np.ones((1, 8))),
                 (np.ones((3, 8)), np.ones((4, 8))),
                 (np.ones((2, 3, 8)), np.ones((2, 3, 8))),
                 (np.ones((3, 9)), np.ones((3, 9))), (1.0, 1.0)):
        with pytest.raises(ValueError, match="rows"):
            mv_mul(x, y, 1)


# ---------------------------------------------------------------------------
# pruned products and exact cancellation

def test_products_equal_the_exact_tensor_contraction():
    # on small integers every product and sum is exact, so the kernel must
    # give the contraction with the +1 tensor bit for bit, up to the sign
    # of a zero, and the mirror product that with the -1 tensor; rows
    # cancel to exact zeros of either sign
    rng = np.random.default_rng(7)
    for _ in range(400):
        lam = int(rng.choice([1, -1]))
        za, zb = (tuple(np.flatnonzero(rng.random(8) < rng.random()).tolist())
                  for _ in range(2))
        xs, ys = rng.integers(-2, 3, size=(2, 8, 16)).astype(np.float64)
        xs[list(za)] = 0.0
        ys[list(zb)] = 0.0
        tagged = np.einsum("rmn,mk,nk->rk", PRODUCT_TENSOR[lam], xs, ys)
        assert np.array_equal(mv_mul(xs.T, ys.T, lam), tagged.T)
        want = np.einsum("rmn,mk,nk->rk", PRODUCT_TENSOR[1], xs, ys)
        full = np.empty((8, 16))
        _product(xs, ys, term_plan(), full)
        assert np.array_equal(full, want)
        a = [None if i in za else xs[i] for i in range(8)]
        b = [None if i in zb else ys[i] for i in range(8)]
        for scalar_only in (False, True):
            out = ["unwritten"] * 8
            _product(a, b, term_plan(za, zb, scalar_only), out)
            for rho in range(8):
                if scalar_only and rho != SCALAR:
                    assert out[rho] == "unwritten"
                elif out[rho] is None:
                    assert np.all(want[rho] == 0.0)
                else:
                    assert np.array_equal(out[rho], want[rho])


@pytest.mark.parametrize("tags", ["+1", "-1", "mixed"])
def test_row_products_are_bitwise_mv_mul(tags):
    # a stack call gives each row the bits of the one-row call on it
    rng = np.random.default_rng({"+1": 41, "-1": 42, "mixed": 43}[tags])
    n = 300
    x, y = rng.standard_normal((2, n, 8))
    # structural zeros of either sign, so the sign of a zero is pinned too
    x[rng.random((n, 8)) < 0.2] = 0.0
    y[rng.random((n, 8)) < 0.2] = -0.0
    lams = {"+1": np.ones(n, dtype=np.int64),
            "-1": -np.ones(n, dtype=np.int64),
            "mixed": rng.choice([1, -1], size=n)}[tags]
    full = mv_mul(x, y, lams)
    scalar = mv_mul(x, y, lams, scalar_only=True)
    assert full.shape == (n, 8) and scalar.shape == (n,)
    for i in range(n):
        want = mv_mul(x[i], y[i], int(lams[i]))
        assert want.shape == (8,)
        assert _bits(full[i]) == _bits(want)
        one = mv_mul(x[i], y[i], int(lams[i]), scalar_only=True)
        assert _bits(one) == _bits(want[SCALAR]) == _bits(scalar[i])
    if tags != "mixed":
        # one tag for every row gives the same rows as the per-row array
        tag = int(lams[0])
        assert _bits(mv_mul(x, y, tag)) == _bits(full)
        assert _bits(mv_mul(x, y, tag, scalar_only=True)) == _bits(scalar)


def test_row_products_refuse_a_bad_tag():
    x = np.ones((3, 8))
    # a (3, 1) column of good tags is refused too: mirror signs built from
    # it would broadcast the stack to a (3, 3, 8) result without an error
    for bad in (0, 2, np.array([1, -1, 0]), np.array([1, -1]),
                np.array([[1], [-1], [1]])):
        with pytest.raises(ValueError):
            mv_mul(x, x, bad)


def test_row_norms_and_pairings_are_the_scalar_ones():
    # a stack, of any leading shape, gives each row the bits of its row
    rng = np.random.default_rng(44)
    rows = rng.standard_normal((50, 8))
    rows[rng.random((50, 8)) < 0.2] = -0.0
    norms, pairing = mv_norm(rows), quadric_defect(rows)
    assert norms.shape == pairing.shape == (50,)
    for r, nrm, q in zip(rows, norms, pairing):
        assert isinstance(mv_norm(r), float)
        assert _bits(mv_norm(r)) == _bits(nrm)
        assert _bits(quadric_defect(r)) == _bits(q)
    cube = rows.reshape(5, 10, 8)
    assert _bits(mv_norm(cube)) == _bits(norms)
    assert _bits(quadric_defect(cube)) == _bits(pairing)


def test_norm_rounds_each_row_once_in_any_slot_order():
    # the squares 1 and six times 2**-54 sum exactly to 1 + 1.5 * 2**-52,
    # which rounds to 1 + 2**-51 and has the root 1 + 2**-52; a sum
    # rounded term by term from the left stays at 1
    row = np.array([1.0] + [2.0 ** -27] * 6 + [0.0])
    stack = np.array([np.roll(row, k) for k in range(8)])
    assert mv_norm(row) == 1.0 + 2.0 ** -52
    assert (mv_norm(stack) == 1.0 + 2.0 ** -52).all()


def test_planar_factors_alternate_between_two_slot_sets():
    planar_zeros = (SCALAR, B_XY, E_Z, E_VOL)
    rng = np.random.default_rng(3)
    a, b = ([None if i in planar_zeros else v for i, v in enumerate(r)]
            for r in rng.standard_normal((2, 8)))
    out = [0.0] * 8
    _product(a, b, term_plan(planar_zeros, planar_zeros), out)
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
            sq = mv_mul(c, c, lam)
            assert np.all(sq[1:7] == 0.0)
            assert sq[SCALAR] == pytest.approx(
                -float(np.dot(c[1:7], c[1:7])), rel=1e-12)
            pairing = c[1] * c[6] + c[2] * c[5] + c[3] * c[4]
            assert sq[E_VOL] == pytest.approx(2.0 * lam * pairing,
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
            n = lam * det
            sq = mv_mul(n, n, lam)
            assert np.all(sq[1:] == 0.0)
            assert sq[SCALAR] == pytest.approx(-1.0, abs=1e-12)


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
        return c


def test_norm_composes_on_the_quadric_at_plus_one():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(500):
        x = _quadric_unit(rng, 1)
        y = _quadric_unit(rng, 1)
        for z in (x, y):
            assert abs(mv_norm(z) - 1.0) <= 1e-12
            assert abs(quadric_defect(z)) <= 1e-12
        p = mv_mul(x, y, 1)
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
        c = mv_mul(x, y, -1)
        inv_defect = c[0] * c[7] + c[1] * c[6] + c[2] * c[5] + c[3] * c[4]
        worst = max(worst, abs(mv_norm(c) - 1.0), abs(inv_defect))
    assert worst <= 1e-10


def test_norm_is_multiplicative_not_just_preserved():
    rng = np.random.default_rng(31)
    for _ in range(200):
        x = _quadric_unit(rng, 1)
        y = _quadric_unit(rng, 1)
        sx, sy = rng.uniform(0.1, 3.0, 2)
        p = mv_mul(sx * x, sy * y, 1)
        assert mv_norm(p) == pytest.approx(sx * sy, rel=1e-10)

