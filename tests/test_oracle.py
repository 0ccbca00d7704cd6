import ast
import math
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from septenary.algebra import E_VOL, SCALAR, mv_mul, place_legs
from septenary.errors import ArityUnsupported, EmptyInput
from septenary.oracle import (
    _cross,
    _pair_product_parts,
    chsh_bound,
    epr_expectation,
    ghz_direction_expectation,
    ghz_expectation,
    ghz_role_scalar_part,
    nfold_scalar_part,
)
from septenary.spin import (
    detector,
    make_pair_general,
    make_pair_ghz,
    make_pair_planar,
)

ROOT2 = math.sqrt(2.0)


def test_the_oracle_imports_nothing_from_the_package_but_its_errors():
    # an independent reference must not share code with what it checks
    import septenary.oracle

    tree = ast.parse(Path(septenary.oracle.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
    assert {n for n in names
            if n.startswith((".", "septenary"))} == {".errors"}


def _unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _planar(rng):
    t = rng.uniform(-math.pi, math.pi)
    return np.array([math.cos(t), math.sin(t), 0.0])


def _chain_scalar(pairs, lam):
    elems = lam * detector(pairs)
    return reduce(lambda x, y: mv_mul(x, y, lam), elems)[SCALAR]


# ---------------------------------------------------------------------------
# chain closed forms

@pytest.mark.parametrize("lam", [1, -1])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_closed_forms_match_direct_chains(n, lam):
    rng = np.random.default_rng(100 + n)
    worst = 0.0
    for _ in range(1000):
        pairs = [make_pair_general(_unit(rng)) for _ in range(n)]
        worst = max(worst, abs(nfold_scalar_part(pairs)
                               - _chain_scalar(pairs, lam)))
    assert worst <= 1e-10


@pytest.mark.parametrize("lam", [1, -1])
def test_closed_forms_hold_for_mixed_constructors(lam):
    rng = np.random.default_rng(55)
    for _ in range(200):
        pairs = [
            make_pair_planar(_planar(rng)),
            make_pair_general(_unit(rng)),
            make_pair_ghz(_unit(rng), "B"),
            make_pair_planar(_planar(rng)),
        ]
        for n in (2, 3, 4):
            assert nfold_scalar_part(pairs[:n]) == pytest.approx(
                _chain_scalar(pairs[:n], lam), abs=1e-12)


def test_two_pair_scalar_is_minus_cos_for_planar_settings():
    rng = np.random.default_rng(61)
    for _ in range(300):
        ta = rng.uniform(-math.pi, math.pi)
        tb = rng.uniform(-math.pi, math.pi)
        pa = make_pair_planar((math.cos(ta), math.sin(ta), 0.0))
        pb = make_pair_planar((math.cos(tb), math.sin(tb), 0.0))
        got = nfold_scalar_part([pa, pb])
        assert got == pytest.approx(epr_expectation(tb - ta), abs=1e-12)


def test_three_pair_scalar_vanishes_for_planar_settings():
    # all legs share the xy plane, so every triple cross term is normal to
    # it and the scalar dies; the general construction does not do this
    rng = np.random.default_rng(67)
    for _ in range(100):
        pairs = [make_pair_planar(_planar(rng)) for _ in range(3)]
        assert nfold_scalar_part(pairs) == pytest.approx(0.0, abs=1e-12)
    general = [make_pair_general(_unit(rng)) for _ in range(3)]
    assert abs(nfold_scalar_part(general)) > 0.0


def test_chain_arity_errors():
    rng = np.random.default_rng(3)
    with pytest.raises(EmptyInput):
        nfold_scalar_part([])
    for n in (1, 5):
        pairs = [make_pair_general(_unit(rng)) for _ in range(n)]
        with pytest.raises(ArityUnsupported):
            nfold_scalar_part(pairs)


def _mixed_chains(rng, n):
    """(n, 4, 2, 3) legs of four settings per row, one of each constructor
    and one more general setting."""
    t = rng.uniform(-math.pi, math.pi, n)
    planar = np.stack([np.cos(t), np.sin(t), np.zeros(n)], axis=1)
    dirs = rng.standard_normal((3, n, 3))
    dirs /= np.linalg.norm(dirs, axis=2)[..., None]
    return np.stack([make_pair_planar(planar), make_pair_general(dirs[0]),
                     make_pair_ghz(dirs[1], "B"), make_pair_general(dirs[2])],
                    axis=1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_closed_forms_are_the_one_chain_forms(n):
    chains = _mixed_chains(np.random.default_rng(110 + n), 80)[:, :n]
    got = nfold_scalar_part(chains)
    assert got.shape == (80,)
    for value, pairs in zip(got, chains):
        one = nfold_scalar_part([tuple(map(tuple, p)) for p in pairs.tolist()])
        assert type(one) is float
        assert np.float64(one).tobytes() == value.tobytes()


def test_stacked_pair_parts_are_the_one_pair_parts():
    chains = _mixed_chains(np.random.default_rng(114), 40)
    alpha, u, v, w = _pair_product_parts(chains[:, 1], chains[:, 3])
    for i, (p1, p2) in enumerate(zip(chains[:, 1], chains[:, 3])):
        one = _pair_product_parts(p1, p2)
        for got, want in zip((alpha[i], u[:, i], v[:, i], w[i]), one):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_closed_forms_refuse_legs_of_the_wrong_shape():
    with pytest.raises(ValueError, match="stack"):
        nfold_scalar_part(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="stack"):
        nfold_scalar_part(np.zeros((1, 2, 2, 2, 3)))


# ---------------------------------------------------------------------------
# pair products

@pytest.mark.parametrize("lam", [1, -1])
def test_pair_product_splits_into_the_closed_form_parts(lam):
    # N1 N2 = -alpha - lam (u on the planes + v on the legs) + lam w e1234:
    # the dots are its symmetric part and the crosses, which change sign
    # with the order, its antisymmetric part
    rng = np.random.default_rng(83)
    for _ in range(200):
        p1 = make_pair_general(_unit(rng))
        p2 = make_pair_general(_unit(rng))
        n1, n2 = lam * detector([p1, p2])
        alpha, u, v, w = _pair_product_parts(p1, p2)
        want = -lam * place_legs(np.zeros(8), u, v)
        want[SCALAR], want[E_VOL] = -alpha, lam * w
        assert_allclose(mv_mul(n1, n2, lam), want, rtol=0.0, atol=1e-12)
    # perpendicular planar settings: the half commutator has norm
    # sin(90 deg) = 1, off the scalar and volume slots
    n1, n2 = (lam * detector(make_pair_planar(d))
              for d in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
    half = 0.5 * (mv_mul(n1, n2, lam) - mv_mul(n2, n1, lam))
    assert half[SCALAR] == 0.0 and half[E_VOL] == 0.0
    assert np.linalg.norm(half) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# four-party expectations

def test_ghz_expectation_reference_points():
    eq = [math.pi / 2] * 4
    assert ghz_expectation(eq, [0.0] * 4) == pytest.approx(-1.0, abs=1e-15)
    assert ghz_expectation(eq, [math.pi, 0, 0, 0]) == pytest.approx(1.0, abs=1e-15)
    assert ghz_expectation([0.0] * 4, [0.3, 1.0, -2.0, 0.7]) == pytest.approx(
        1.0, abs=1e-15)
    with pytest.raises(ArityUnsupported):
        ghz_expectation([0.0] * 3, [0.0] * 4)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_epr_expectation_refuses_a_non_finite_angle(bad):
    # cos gives NaN for nan and a bare domain error for inf
    with pytest.raises(ValueError, match="must be finite"):
        epr_expectation(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("slot", ["theta", "phi"])
def test_ghz_expectation_refuses_a_non_finite_angle(slot, bad):
    thetas, phis = [math.pi / 2] * 4, [0.0] * 4
    (thetas if slot == "theta" else phis)[2] = bad
    with pytest.raises(ValueError, match="must be finite"):
        ghz_expectation(thetas, phis)


def test_component_form_matches_the_spherical_form():
    rng = np.random.default_rng(91)
    for _ in range(300):
        th = rng.uniform(0.0, math.pi, 4)
        ph = rng.uniform(-math.pi, math.pi, 4)
        dirs = [np.array([math.sin(t) * math.cos(p),
                          math.sin(t) * math.sin(p),
                          math.cos(t)]) for t, p in zip(th, ph)]
        assert ghz_direction_expectation(*dirs) == pytest.approx(
            ghz_expectation(th, ph), abs=1e-12)


def test_role_grouped_product_reaches_the_closed_form():
    rng = np.random.default_rng(97)
    for _ in range(100):
        dirs = [_unit(rng) for _ in range(4)]
        pairs = [make_pair_ghz(d, r) for d, r in zip(dirs, "ABCD")]
        assert ghz_role_scalar_part(pairs) == pytest.approx(
            ghz_direction_expectation(*dirs), abs=1e-10)
    with pytest.raises(ArityUnsupported):
        ghz_role_scalar_part(pairs[:3])


def test_raw_role_chain_cannot_reach_the_closed_form():
    """The grouped evaluation is not a convenience, it is load-bearing.

    The plain ordered product of the four role elements has norm at most
    1/2 by the composition identity (each pair of role elements multiplies
    to an element of norm 1/sqrt(2) squared), so its scalar cannot track a
    closed form that reaches +-1. The all-z settings show the factor-2 gap
    exactly.
    """
    rng = np.random.default_rng(101)
    for _ in range(200):
        dirs = [_unit(rng) for _ in range(4)]
        pairs = [make_pair_ghz(d, r) for d, r in zip(dirs, "ABCD")]
        elems = [detector(p) for p in pairs]
        raw = reduce(lambda x, y: mv_mul(x, y, 1), elems)[SCALAR]
        assert abs(raw) <= 0.5 + 1e-12
    pole = [np.array([0.0, 0.0, 1.0])] * 4
    pairs = [make_pair_ghz(d, r) for d, r in zip(pole, "ABCD")]
    elems = [detector(p) for p in pairs]
    raw = reduce(lambda x, y: mv_mul(x, y, 1), elems)[SCALAR]
    assert raw == pytest.approx(0.5, abs=1e-12)
    assert ghz_direction_expectation(*pole) == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# four-term combination

def _four_term(x, xp, y, yp):
    """S = E(x,y) + E(x,y') + E(x',y) - E(x',y'), each E the singlet
    correlation at the angle between the two settings."""
    e = lambda p, q: epr_expectation(math.acos(max(-1.0, min(1.0, p @ q))))
    return e(x, y) + e(x, yp) + e(xp, y) - e(xp, yp)


def test_chsh_bound_reference_configurations():
    x = np.array([1.0, 0.0, 0.0])
    assert chsh_bound(x, x, _unit(np.random.default_rng(1)), x) == pytest.approx(
        2.0, abs=1e-12)
    deg = math.radians
    a = np.array([1.0, 0.0, 0.0])
    ap = np.array([math.cos(deg(90)), math.sin(deg(90)), 0.0])
    b = np.array([math.cos(deg(45)), math.sin(deg(45)), 0.0])
    bp = np.array([math.cos(deg(-45)), math.sin(deg(-45)), 0.0])
    assert chsh_bound(a, ap, b, bp) == pytest.approx(2.0 * ROOT2, abs=1e-12)
    # b' a quarter turn the other way: the combination vanishes, and so
    # does its envelope
    bp = np.array([math.cos(deg(135)), math.sin(deg(135)), 0.0])
    assert chsh_bound(a, ap, b, bp) == pytest.approx(0.0, abs=1e-6)
    # the quadruple that exposed the order of the crosses: S = -2, where
    # crossing (y', y) gave an envelope of 0
    x, y = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    assert _four_term(x, y, y, x) == pytest.approx(-2.0, abs=1e-12)
    assert chsh_bound(x, y, y, x) == pytest.approx(2.0 * ROOT2, abs=1e-12)


def test_chsh_bound_range_on_random_settings():
    rng = np.random.default_rng(103)
    for _ in range(2000):
        vals = [_unit(rng) for _ in range(4)]
        got = chsh_bound(*vals)
        assert 0.0 <= got <= 2.0 * ROOT2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", range(4))
def test_chsh_bound_refuses_a_non_finite_setting(slot, bad):
    # the radicand clamp would turn a NaN into a finite bound
    settings = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0])]
    settings[slot] = np.array([bad, 0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        chsh_bound(*settings)


def test_matched_value_never_beats_the_bound_on_planar_grids():
    # the combination chsh_scan reports, with the minus on the (x', y')
    # pair; the cross-product bound majorises it pointwise and touches it
    # on a dense subset of the grid
    e = lambda d: -math.cos(math.radians(d))
    vec = lambda d: np.array([math.cos(math.radians(d)),
                              math.sin(math.radians(d)), 0.0])
    touched = 0
    for a in range(0, 360, 30):
        for ap in range(0, 360, 30):
            for b in range(0, 360, 30):
                for bp in range(0, 360, 30):
                    s = e(b - a) + e(bp - a) + e(b - ap) - e(bp - ap)
                    bound = chsh_bound(vec(a), vec(ap), vec(b), vec(bp))
                    assert abs(s) <= bound + 1e-9
                    if abs(abs(s) - bound) < 1e-9:
                        touched += 1
    assert touched > 100


def test_matched_value_never_beats_the_bound_off_plane():
    # with the crosses in the order (y', y) about one in six of these
    # quadruples broke the envelope
    rng = np.random.default_rng(107)
    for _ in range(5000):
        x, xp, y, yp = (_unit(rng) for _ in range(4))
        assert abs(_four_term(x, xp, y, yp)) <= chsh_bound(x, xp, y, yp) + 1e-9


# ---------------------------------------------------------------------------
# sensitivity growth with chain length

def test_perturbation_sensitivity_grows_with_chain_length():
    """Longer chains amplify a fixed-size perturbation of one setting."""
    delta = 1e-3

    def max_sensitivity(n):
        g = np.random.default_rng(11)
        worst = 0.0
        for _ in range(400):
            dirs = [_unit(g) for _ in range(n)]
            base = [make_pair_general(d) for d in dirs]
            moved = dirs[0] + delta * g.standard_normal(3)
            moved /= np.linalg.norm(moved)
            pert = [make_pair_general(moved)] + base[1:]
            worst = max(worst, abs(nfold_scalar_part(pert)
                                   - nfold_scalar_part(base)))
        return worst

    s2, s3, s4 = (max_sensitivity(n) for n in (2, 3, 4))
    # O(delta) response in every case
    assert s2 < 10 * delta and s4 < 10 * delta
    assert s2 < s3 < s4


@pytest.mark.parametrize("scale", [1.0, 1e-170, 1e-310, 1e160, 1e300])
def test_cross_is_bitwise_numpy_cross(scale):
    # tiny scales round to subnormals and zero, huge ones overflow to inf
    # and nan; the bits must still agree
    rng = np.random.default_rng(17)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for _ in range(2000):
            a, b = rng.standard_normal((2, 3)) * scale
            assert np.array_equal(_cross(a, b), np.cross(a, b),
                                  equal_nan=True)
