"""Built-in consistency suites behind the ``check`` subcommand.

Each suite draws its own deterministic stream, so running a subset gives
the same verdicts as running everything. The product-table suite works in
integers and must pass at any tolerance including zero; the rest compare
floating defects against the requested tolerance. ``samples`` scales the
random iteration counts; even at 1 every suite still executes.

A stacked suite draws each chunk of up to ``_CHUNK`` samples with one
``standard_normal`` call, one row per sample, and evaluates the chunk at
once. Every random number is a normal: a coin is the sign of one column,
a direction is its row normalised, a sphere-map scale is ``10 ** (2 z)``.
No draw is rejected and redrawn, and the generator fills the stream row
by row, so the rows a suite sees do not depend on the chunk size. The
evaluation normalises the draws, builds the settings with the stack forms
of the ``spin`` constructors, and runs ``algebra.mv_mul`` (one
``_product`` call, per-row tags included), the outcome map, the similarity
transport, the sphere charts and the closed forms of ``oracle``, which
stay the independent path. Each row is bitwise what the one-row call
gives, so the report does not depend on the chunk size, and memory does
not grow with ``samples``. Every norm and dot on the way is written out
component by component, and element norms go through ``algebra.mv_norm``,
whose sum is exactly rounded; so no BLAS or SIMD kernel that the host CPU
selects reaches the report's bits.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .algebra import E_VOL, PRODUCT_TENSOR, mv_mul, mv_norm, quadric_defect
from .conformal import stereo_phi, stereo_psi
from .engine import batch_stream
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


def _draws(gen: np.random.Generator, samples: int, width: int):
    """Chunks of up to ``_CHUNK`` rows of ``width`` standard normals, one
    generator call each; the stream fills them row by row, so the rows do
    not depend on the chunk size."""
    for start in range(0, samples, _CHUNK):
        yield gen.standard_normal((min(_CHUNK, samples - start), width))


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """The directions of the rows of an (n, 2) or (n, 3) stack, as an
    (n, 3) stack with z zero for (n, 2). Each norm is written out."""
    x, y, z = list(v.T) + [np.zeros(len(v))] * (3 - v.shape[1])
    r = np.sqrt((x * x + y * y) + z * z)
    return np.stack([x / r, y / r, z / r], axis=1)


def _quadric_rows(c: np.ndarray) -> np.ndarray:
    """Random unit elements on the orientation +1 product-closed quadric,
    one per row of an (n, 8) stack of normals. The volume slot is pushed
    0.1 away from zero, so that the scalar slot solved from it is finite."""
    c = c.copy()
    c[:, 7] += np.copysign(0.1, c[:, 7])
    c[:, 0] = (c[:, 1] * c[:, 6] + c[:, 2] * c[:, 5]
               + c[:, 3] * c[:, 4]) / c[:, 7]
    return c / mv_norm(c)[:, None]


# ---------------------------------------------------------------------------

def _suite_product_table(tol, samples, gen) -> tuple:
    for lam in (1, -1):
        t = PRODUCT_TENSOR[lam]  # t[rho, mu, nu]: blade rho in (mu * nu)
        eye = np.zeros((8, 8), dtype=t.dtype)
        np.fill_diagonal(eye, 1)
        if not (t[:, 0, :] == eye).all() or not (t[:, :, 0] == eye).all():
            return False, "identity row or column broken"
        for k in range(1, 7):
            sq = t[:, k, k]
            if sq[0] != -1 or sq[1:].any():
                return False, "square of basis %d is not -1" % k
        sq = t[:, E_VOL, E_VOL]
        if sq[0] != 1 or sq[1:].any():
            return False, "square of the null volume blade is not +1"
        w = t.astype(np.int64)
        lhs = np.einsum("rmn,srk->mnks", w, w)
        rhs = np.einsum("rnk,smr->mnks", w, w)
        if not (lhs == rhs).all():
            return (False,
                    "basis associativity broken at orientation %+d" % lam)
    return (True,
            "squares, identity and all 512 basis triples exact, both "
            "orientations")


def _suite_associativity(tol, samples, gen) -> tuple:
    worst = 0.0
    for r in _draws(gen, samples, 25):
        lams = np.where(r[:, 0] > 0, 1, -1)
        x, y, z = r[:, 1:9], r[:, 9:17], r[:, 17:]
        left = mv_mul(mv_mul(x, y, lams), z, lams)
        right = mv_mul(x, mv_mul(y, z, lams), lams)
        worst = max(worst, float(np.abs(left - right).max()))
    return (worst <= tol,
            "max defect %.3e over %d random triples" % (worst, samples))


def _suite_norm_composition(tol, samples, gen) -> tuple:
    worst = 0.0
    for r in _draws(gen, samples, 16):
        p = mv_mul(_quadric_rows(r[:, :8]), _quadric_rows(r[:, 8:]), 1)
        worst = max(worst, float(np.abs(mv_norm(p) - 1.0).max()),
                    float(np.abs(quadric_defect(p)).max()))
    return (worst <= tol,
            "max norm/closure defect %.3e over %d unit products"
            % (worst, samples))


def _suite_conservation(tol, samples, gen) -> tuple:
    worst = 0.0
    for r in _draws(gen, samples, 5):
        lams = np.where(r[:, 0] > 0, 1, -1)
        a, b = _unit_rows(r[:, 1:3]), _unit_rows(r[:, 3:])
        minus_cos = np.array([
            math.cos(math.atan2(by, bx) - math.atan2(ay, ax))
            for (ax, ay, _), (bx, by, _) in zip(a.tolist(), b.tolist())])
        da, db = detector(make_pair_planar(a)), detector(make_pair_planar(b))
        # the pair product of engine.paired_product; its scalar row does not
        # depend on the order of the factors, so the coin's order is left out
        prod = mv_mul(da, db, lams, scalar_only=True)
        worst = max(worst, float(np.abs(prod + minus_cos).max()))
        out = measure(da, lams, "first") * measure(db, lams, "second")
        if (out != -1).any():
            return False, "paired outcomes did not cancel"
    return (worst <= tol,
            "outcomes cancel, scalar tracks -cos within %.3e" % worst)


def _suite_source_recovery(tol, samples, gen) -> tuple:
    worst = 0.0
    for r in _draws(gen, samples, 6):
        b, s = _unit_rows(r[:, :3]), _unit_rows(r[:, 3:])
        worst = max(worst, float(np.abs(recover_source_axis(b, s) - s).max()))
    return (worst <= tol,
            "max axis error %.3e over %d round trips" % (worst, samples))


def _suite_sphere_maps(tol, samples, gen) -> tuple:
    worst = 0.0
    exact0 = stereo_psi(np.zeros(3)).tolist() == [0.0, 0.0, 0.0, -1.0]
    for r in _draws(gen, samples, 4):
        x = r[:, :3] * 10.0 ** (2.0 * r[:, 3:])
        up, down = stereo_phi(x), stereo_psi(x)
        d0, d1, d2, d3 = down.T
        norm = np.sqrt(((d0 * d0 + d1 * d1) + d2 * d2) + d3 * d3)
        worst = max(worst, float(np.abs(norm - 1.0).max()),
                    float(np.abs(up[:, :3] - down[:, :3]).max()),
                    float(np.abs((up[:, 3] - 1.0) - d3).max()))
    ok = exact0 and worst <= tol
    return ok, "unit norm and shifted-pole agreement within %.3e" % worst


def _suite_chain_forms(tol, samples, gen) -> tuple:
    worst = 0.0
    for r in _draws(gen, samples, 13):
        lams = np.where(r[:, 0] > 0, 1, -1)
        legs = make_pair_general(_unit_rows(r[:, 1:].reshape(-1, 3)))
        # the sources lam D of the four settings of each row
        elems = lams[:, None, None] * detector(legs).reshape(-1, 4, 8)
        legs = legs.reshape(-1, 4, 2, 3)
        acc = elems[:, 0]
        for k in (1, 2, 3):
            acc = mv_mul(acc, elems[:, k], lams)
            gap = np.abs(nfold_scalar_part(legs[:, :k + 1]) - acc[:, 0])
            worst = max(worst, float(gap.max()))
    return worst <= tol, "closed forms match chains within %.3e" % worst


def _suite_outcome_maps(tol, samples, gen) -> tuple:
    worst = 0.0
    target = 2.0 ** -0.5
    for r in _draws(gen, samples, 3):
        lams = np.where(r[:, 0] > 0, 1, -1)
        det = detector(make_pair_planar(_unit_rows(r[:, 1:])))
        if (measure(det, lams, "first") != lams).any():
            return False, "first-side outcome is not the coin"
        if (measure(det, lams, "second") != -lams).any():
            return False, "second-side outcome is not the flipped coin"
    for role in "ABCD":
        for r in _draws(gen, max(1, samples // 4), 3):
            (rx, ry, rz), (dx, dy, dz) = np.moveaxis(
                make_pair_ghz(_unit_rows(r), role), 0, -1)
            rr = (rx * rx + ry * ry) + rz * rz
            dd = (dx * dx + dy * dy) + dz * dz
            worst = max(worst, float(np.abs(rr + dd - target).max()))
    return worst <= tol, "outcomes exact, role norms within %.3e" % worst


# each suite returns (passed, detail), which run_checks names
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
    # an infinite tolerance would pass every floating suite
    if not math.isfinite(tol):
        raise ValueError("tolerance must be finite, got %r" % (tol,))
    if tol < 0.0:
        raise ValueError("tolerance must be non-negative, got %r" % (tol,))
    results = []
    for index, (name, fn) in enumerate(SUITES):
        if name not in wanted:
            continue
        gen = batch_stream(_SUITE_SEED, index)
        results.append(CheckResult(name, *fn(float(tol), int(samples), gen)))
    return results
