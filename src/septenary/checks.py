"""Built-in consistency suites behind the ``check`` subcommand.

Each suite draws its own deterministic stream, so running a subset gives
the same verdicts as running everything. The product-table suite works in
integers and must pass at any tolerance including zero; the rest compare
floating defects against the requested tolerance. ``samples`` scales the
random iteration counts; even at 1 every suite still executes.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence

from .algebra import (
    E_VOL, PRODUCT_TENSOR, Multivector, mv_mul, mv_norm, quadric_defect,
)
from .conformal import stereo_phi, stereo_psi
from .engine import paired_product
from .oracle import nfold_scalar_part
from .spin import (
    detector, make_pair_general, make_pair_ghz, make_pair_planar, measure,
    pair_coefficients, recover_source_axis,
)

CheckResult = namedtuple("CheckResult", "name passed detail")

DEFAULT_TOL = 1e-9
DEFAULT_SAMPLES = 300
_SUITE_SEED = 20260814


def _unit3(gen: Generator) -> np.ndarray:
    while True:
        v = gen.standard_normal(3)
        r = np.linalg.norm(v)
        if r > 1e-6:
            return v / r


def _unit2(gen: Generator) -> np.ndarray:
    while True:
        v = gen.standard_normal(2)
        r = np.linalg.norm(v)
        if r > 1e-6:
            return np.array([v[0] / r, v[1] / r, 0.0])


def _quadric_unit(gen: Generator) -> Multivector:
    """Random unit element on the orientation +1 product-closed quadric."""
    while True:
        c = gen.standard_normal(8)
        if abs(c[7]) < 0.1:
            continue
        c[0] = (c[1] * c[6] + c[2] * c[5] + c[3] * c[4]) / c[7]
        c /= np.linalg.norm(c)
        return Multivector(tuple(c), 1)


def _random_mv(gen: Generator, lam: int) -> Multivector:
    return Multivector(tuple(gen.standard_normal(8)), lam)


# ---------------------------------------------------------------------------

def _suite_product_table(tol, samples, gen) -> CheckResult:
    for lam in (1, -1):
        t = PRODUCT_TENSOR[lam]  # t[rho, mu, nu]: blade rho in (mu * nu)
        eye = np.zeros((8, 8), dtype=t.dtype)
        np.fill_diagonal(eye, 1)
        if not (t[:, 0, :] == eye).all() or not (t[:, :, 0] == eye).all():
            return CheckResult("product-table", False,
                               "identity row or column broken")
        for k in range(1, 7):
            sq = t[:, k, k]
            if sq[0] != -1 or sq[1:].any():
                return CheckResult("product-table", False,
                                   "square of basis %d is not -1" % k)
        sq = t[:, E_VOL, E_VOL]
        if sq[0] != 1 or sq[1:].any():
            return CheckResult("product-table", False,
                               "square of the null volume blade is not +1")
        w = t.astype(np.int64)
        lhs = np.einsum("rmn,srk->mnks", w, w)
        rhs = np.einsum("rnk,smr->mnks", w, w)
        if not (lhs == rhs).all():
            return CheckResult("product-table", False,
                               "basis associativity broken at orientation %+d"
                               % lam)
    return CheckResult(
        "product-table", True,
        "squares, identity and all 512 basis triples exact, both orientations")


def _suite_associativity(tol, samples, gen) -> CheckResult:
    worst = 0.0
    for _ in range(samples):
        lam = 1 if gen.random() > 0.5 else -1
        x, y, z = (_random_mv(gen, lam) for _ in range(3))
        left = mv_mul(mv_mul(x, y), z)
        right = mv_mul(x, mv_mul(y, z))
        worst = max(worst, max(abs(a - b) for a, b in
                               zip(left.coeffs, right.coeffs)))
    return CheckResult("associativity", worst <= tol,
                       "max defect %.3e over %d random triples"
                       % (worst, samples))


def _suite_norm_composition(tol, samples, gen) -> CheckResult:
    worst = 0.0
    for _ in range(samples):
        x = _quadric_unit(gen)
        y = _quadric_unit(gen)
        p = mv_mul(x, y)
        worst = max(worst, abs(mv_norm(p) - 1.0), abs(quadric_defect(p)))
    return CheckResult(
        "norm-composition", worst <= tol,
        "max norm/closure defect %.3e over %d unit products"
        % (worst, samples))


def _suite_conservation(tol, samples, gen) -> CheckResult:
    worst = 0.0
    for _ in range(samples):
        a = _unit2(gen)
        b = _unit2(gen)
        lam = 1 if gen.random() > 0.5 else -1
        da = detector(make_pair_planar(a))
        db = detector(make_pair_planar(b))
        prod = paired_product([da, db], lam)
        delta = math.atan2(b[1], b[0]) - math.atan2(a[1], a[0])
        worst = max(worst, abs(prod.coeffs[0] + math.cos(delta)))
        out = measure(da, lam, "first") * measure(db, lam, "second")
        if out != -1:
            return CheckResult("conservation", False,
                               "paired outcomes did not cancel")
    return CheckResult(
        "conservation", worst <= tol,
        "outcomes cancel, scalar tracks -cos within %.3e" % worst)


def _suite_source_recovery(tol, samples, gen) -> CheckResult:
    worst = 0.0
    for _ in range(samples):
        b = _unit3(gen)
        s = _unit3(gen)
        got = recover_source_axis(b, s)
        worst = max(worst, float(np.max(np.abs(got - s))))
    return CheckResult("source-recovery", worst <= tol,
                       "max axis error %.3e over %d round trips"
                       % (worst, samples))


def _suite_sphere_maps(tol, samples, gen) -> CheckResult:
    worst = 0.0
    exact0 = stereo_psi(np.zeros(3)).tolist() == [0.0, 0.0, 0.0, -1.0]
    for _ in range(samples):
        x = gen.standard_normal(3) * 10.0 ** gen.uniform(-3, 3)
        up = stereo_phi(x)
        down = stereo_psi(x)
        worst = max(worst, abs(np.linalg.norm(down) - 1.0))
        worst = max(worst, float(np.max(np.abs(up[:3] - down[:3]))))
        worst = max(worst, abs((up[3] - 1.0) - down[3]))
    ok = exact0 and worst <= tol
    return CheckResult("sphere-maps", ok,
                       "unit norm and shifted-pole agreement within %.3e"
                       % worst)


def _suite_chain_forms(tol, samples, gen) -> CheckResult:
    worst = 0.0
    for _ in range(samples):
        lam = 1 if gen.random() > 0.5 else -1
        pairs = [make_pair_general(_unit3(gen)) for _ in range(4)]
        for n in (2, 3, 4):
            closed = nfold_scalar_part(pairs[:n])
            elems = [Multivector(lam * pair_coefficients(p), lam)
                     for p in pairs[:n]]
            acc = elems[0]
            for e in elems[1:]:
                acc = mv_mul(acc, e)
            worst = max(worst, abs(closed - acc.coeffs[0]))
    return CheckResult("chain-forms", worst <= tol,
                       "closed forms match chains within %.3e" % worst)


def _suite_outcome_maps(tol, samples, gen) -> CheckResult:
    worst = 0.0
    target = 2.0 ** -0.5
    for _ in range(samples):
        lam = 1 if gen.random() > 0.5 else -1
        det = detector(make_pair_planar(_unit2(gen)))
        if measure(det, lam, "first") != lam:
            return CheckResult("outcome-maps", False,
                               "first-side outcome is not the coin")
        if measure(det, lam, "second") != -lam:
            return CheckResult("outcome-maps", False,
                               "second-side outcome is not the flipped coin")
    for role in "ABCD":
        for _ in range(max(1, samples // 4)):
            p = make_pair_ghz(_unit3(gen), role)
            rr = sum(v * v for v in p.n_r)
            dd = sum(v * v for v in p.n_d)
            worst = max(worst, abs(rr + dd - target))
    return CheckResult("outcome-maps", worst <= tol,
                       "outcomes exact, role norms within %.3e" % worst)


SUITES = (
    ("product-table", _suite_product_table),
    ("associativity", _suite_associativity),
    ("norm-composition", _suite_norm_composition),
    ("conservation", _suite_conservation),
    ("source-recovery", _suite_source_recovery),
    ("sphere-maps", _suite_sphere_maps),
    ("chain-forms", _suite_chain_forms),
    ("outcome-maps", _suite_outcome_maps),
)

SUITE_NAMES = tuple(name for name, _ in SUITES)


def run_checks(names=None, tol: float = DEFAULT_TOL,
               samples: int = DEFAULT_SAMPLES) -> list:
    """Run the requested suites (all by default) and return their results."""
    wanted = SUITE_NAMES if not names else tuple(names)
    unknown = [n for n in wanted if n not in SUITE_NAMES]
    if unknown:
        raise ValueError("unknown suite(s): %s" % ", ".join(unknown))
    if samples < 1:
        raise ValueError("samples must be at least 1")
    # written so that nan is refused too
    if not tol >= 0.0:
        raise ValueError("tolerance must be non-negative, got %r" % (tol,))
    results = []
    for index, (name, fn) in enumerate(SUITES):
        if name not in wanted:
            continue
        gen = Generator(PCG64(SeedSequence(_SUITE_SEED, spawn_key=(index,))))
        results.append(fn(float(tol), int(samples), gen))
    return results
