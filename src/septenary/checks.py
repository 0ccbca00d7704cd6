"""Built-in consistency suites behind the ``check`` subcommand.

Each suite draws its own deterministic stream, so running a subset gives
the same verdicts as running everything. The product-table suite works in
integers and must pass at any tolerance including zero; the rest compare
floating defects against the requested tolerance. ``samples`` scales the
random iteration counts; even at 1 every suite still executes.

The draws stay per sample: one sample at a time, in the same order and
through the same rejection loops as a scalar loop would take them. A suite
stacks them into chunks of ``_CHUNK`` rows and runs each chunk through
the stack forms of ``algebra.mv_mul`` (one ``_product`` call per tag
present), of the outcome map and of the similarity transport in ``spin``.
Each row is bitwise what the one-row call gives, so the report does not
depend on the chunk size, and memory does not grow with ``samples``. Norms
go through ``algebra.mv_norm``, whose exactly rounded sum keeps the report
independent of the BLAS kernels the host CPU selects. The closed forms of
``oracle`` and the reference cosines stay per-sample scalar evaluations:
they are the independent path.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence

from .algebra import E_VOL, PRODUCT_TENSOR, mv_mul, mv_norm, quadric_defect
from .conformal import stereo_phi, stereo_psi
from .oracle import nfold_scalar_part
from .spin import (
    detector, make_pair_general, make_pair_ghz, make_pair_planar, measure,
    recover_source_axis,
)

CheckResult = namedtuple("CheckResult", "name passed detail")

DEFAULT_TOL = 1e-9
DEFAULT_SAMPLES = 300
_SUITE_SEED = 20260814
# rows per chunk of stacked draws: large enough that the kernel's per-call
# cost is spread thin, small enough that memory stays flat in samples
_CHUNK = 128


def _chunks(samples: int):
    """The sizes of the consecutive chunks that cover samples rows."""
    for start in range(0, samples, _CHUNK):
        yield min(_CHUNK, samples - start)


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


def _quadric_unit(gen: Generator) -> np.ndarray:
    """Coefficients of a random unit element on the orientation +1
    product-closed quadric."""
    while True:
        c = gen.standard_normal(8)
        if abs(c[7]) < 0.1:
            continue
        c[0] = (c[1] * c[6] + c[2] * c[5] + c[3] * c[4]) / c[7]
        c /= mv_norm(c)
        return c


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
    for n in _chunks(samples):
        lams = np.empty(n, dtype=np.int64)
        x, y, z = factors = np.empty((3, n, 8))
        for i in range(n):
            lams[i] = 1 if gen.random() > 0.5 else -1
            for f in factors:
                f[i] = gen.standard_normal(8)
        left = mv_mul(mv_mul(x, y, lams), z, lams)
        right = mv_mul(x, mv_mul(y, z, lams), lams)
        worst = max(worst, float(np.abs(left - right).max()))
    return CheckResult("associativity", worst <= tol,
                       "max defect %.3e over %d random triples"
                       % (worst, samples))


def _suite_norm_composition(tol, samples, gen) -> CheckResult:
    worst = 0.0
    for n in _chunks(samples):
        x, y = np.empty((2, n, 8))
        for i in range(n):
            x[i] = _quadric_unit(gen)
            y[i] = _quadric_unit(gen)
        p = mv_mul(x, y, 1)
        worst = max(worst, float(np.abs(mv_norm(p) - 1.0).max()),
                    float(np.abs(quadric_defect(p)).max()))
    return CheckResult(
        "norm-composition", worst <= tol,
        "max norm/closure defect %.3e over %d unit products"
        % (worst, samples))


def _suite_conservation(tol, samples, gen) -> CheckResult:
    worst = 0.0
    for n in _chunks(samples):
        lams = np.empty(n, dtype=np.int64)
        minus_cos = np.empty(n)
        legs = []
        for i in range(n):
            a = _unit2(gen)
            b = _unit2(gen)
            lams[i] = 1 if gen.random() > 0.5 else -1
            legs += make_pair_planar(a), make_pair_planar(b)
            delta = math.atan2(b[1], b[0]) - math.atan2(a[1], a[0])
            minus_cos[i] = math.cos(delta)
        da, db = detector(legs).reshape(n, 2, 8).transpose(1, 0, 2)
        # the pair product of engine.paired_product: detector a first under
        # a +1 coin, the order reversed under a -1 coin
        plus = (lams > 0)[:, None]
        prod = mv_mul(np.where(plus, da, db), np.where(plus, db, da), lams,
                      scalar_only=True)
        worst = max(worst, float(np.abs(prod + minus_cos).max()))
        out = measure(da, lams, "first") * measure(db, lams, "second")
        if (out != -1).any():
            return CheckResult("conservation", False,
                               "paired outcomes did not cancel")
    return CheckResult(
        "conservation", worst <= tol,
        "outcomes cancel, scalar tracks -cos within %.3e" % worst)


def _suite_source_recovery(tol, samples, gen) -> CheckResult:
    worst = 0.0
    for n in _chunks(samples):
        b, s = np.empty((2, n, 3))
        for i in range(n):
            b[i] = _unit3(gen)
            s[i] = _unit3(gen)
        got = recover_source_axis(b, s)
        worst = max(worst, float(np.abs(got - s).max()))
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
    for n in _chunks(samples):
        lams = np.empty(n, dtype=np.int64)
        closed = np.empty((n, 3))
        legs = []
        for i in range(n):
            lams[i] = 1 if gen.random() > 0.5 else -1
            pairs = [make_pair_general(_unit3(gen)) for _ in range(4)]
            legs += pairs
            closed[i] = [nfold_scalar_part(pairs[:k]) for k in (2, 3, 4)]
        # the sources lam D of the four settings of each row
        elems = lams[:, None, None] * detector(legs).reshape(n, 4, 8)
        acc = elems[:, 0]
        for k in (1, 2, 3):
            acc = mv_mul(acc, elems[:, k], lams)
            gap = np.abs(closed[:, k - 1] - acc[:, 0])
            worst = max(worst, float(gap.max()))
    return CheckResult("chain-forms", worst <= tol,
                       "closed forms match chains within %.3e" % worst)


def _suite_outcome_maps(tol, samples, gen) -> CheckResult:
    worst = 0.0
    target = 2.0 ** -0.5
    for n in _chunks(samples):
        lams = np.empty(n, dtype=np.int64)
        legs = []
        for i in range(n):
            lams[i] = 1 if gen.random() > 0.5 else -1
            legs.append(make_pair_planar(_unit2(gen)))
        det = detector(legs)
        if (measure(det, lams, "first") != lams).any():
            return CheckResult("outcome-maps", False,
                               "first-side outcome is not the coin")
        if (measure(det, lams, "second") != -lams).any():
            return CheckResult("outcome-maps", False,
                               "second-side outcome is not the flipped coin")
    for role in "ABCD":
        for _ in range(max(1, samples // 4)):
            n_r, n_d = make_pair_ghz(_unit3(gen), role)
            rr = sum(v * v for v in n_r)
            dd = sum(v * v for v in n_d)
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
