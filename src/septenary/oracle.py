"""Closed-form predictions the trial engine is tested against.

Everything here is an independent evaluation path: plain vector algebra
(dots and crosses of the pair legs), no products in the eight-slot algebra.
The engine and these forms are compared in the test suite; the
quantum-mechanical predictions for the two experiments are the same
expressions, so no separate reference is needed.

A setting arrives as its legs (n_r, n_d) and is unpacked here. The module
imports nothing from the package but its errors, so the reference shares
no code with the algebra and the embedding it checks.

Notation used throughout: for two pairs (a_r, a_d), (b_r, b_d) define

    alpha = a_r.b_r + a_d.b_d        u = a_r x b_r + a_d x b_d
    w     = a_r.b_d + a_d.b_r        v = a_r x b_d + a_d x b_r

The product of the two embedded source elements is then
-alpha - lam * embed(u, v, w), which drives all chain scalars below.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ArityUnsupported, EmptyInput

Vec = np.ndarray
Legs = tuple  # a setting (n_r, n_d): two 3-vectors


def _legs(pair: Legs) -> tuple[Vec, Vec]:
    n_r, n_d = pair
    return (np.asarray(n_r, dtype=np.float64),
            np.asarray(n_d, dtype=np.float64))


def epr_expectation(theta: float) -> float:
    """Two-party correlation at separation angle theta (radians)."""
    return -math.cos(theta)


def ghz_expectation(thetas: Sequence[float], phis: Sequence[float]) -> float:
    """Four-party correlation for polar angles thetas and azimuths phis.

    All angles in radians. For four equatorial settings (theta = pi/2) this
    reduces to -cos(phi_a + phi_b - phi_c - phi_d).
    """
    t = [float(x) for x in thetas]
    p = [float(x) for x in phis]
    if len(t) != 4 or len(p) != 4:
        raise ArityUnsupported("four polar and four azimuthal angles required")
    return (math.cos(t[0]) * math.cos(t[1]) * math.cos(t[2]) * math.cos(t[3])
            - math.sin(t[0]) * math.sin(t[1]) * math.sin(t[2]) * math.sin(t[3])
            * math.cos(p[0] + p[1] - p[2] - p[3]))


def ghz_direction_expectation(a, b, c, d) -> float:
    """Component form of ghz_expectation for four unit directions."""
    a, b, c, d = (np.asarray(v, dtype=np.float64).reshape(3) for v in (a, b, c, d))
    return float(
        a[2] * b[2] * c[2] * d[2]
        - a[1] * b[1] * c[1] * d[1]
        - a[0] * b[1] * c[0] * d[1]
        - a[1] * b[0] * c[1] * d[0]
        - a[0] * b[0] * c[0] * d[0]
        + a[0] * b[0] * c[1] * d[1]
        - a[0] * b[1] * c[1] * d[0]
        - a[1] * b[0] * c[0] * d[1]
        + a[1] * b[1] * c[0] * d[0]
    )


def ghz_role_scalar_part(pairs: Sequence[Legs]) -> float:
    """Four-party scalar for role-mapped pairs, evaluated two by two.

    The chain is grouped as (N_a N_b)(N_c N_d) and the six surviving dot
    products are combined after identifying the r-leg and d-leg blocks, the
    step that is specific to the role sign patterns. For pairs produced by
    make_pair_ghz this equals ghz_direction_expectation of the underlying
    directions; a raw four-fold product of the same elements does not get
    there (its scalar is norm-bounded by 1/2), see the oracle tests.
    """
    if len(pairs) != 4:
        raise ArityUnsupported("role evaluation is defined for four pairs")
    (ar, ad), (br, bd), (cr, cd), (dr, dd) = (_legs(p) for p in pairs)
    return float(2.0 * (
        (ar @ br) * (cr @ dr) + (ad @ bd) * (cd @ dd)
        - (ar @ cr) * (br @ dr) + (br @ cr) * (ar @ dr)
        + (bd @ cd) * (ad @ dd) - (ad @ cd) * (bd @ dd)
    ))


def _cross(a: Vec, b: Vec) -> Vec:
    """np.cross of two 3-vectors without its dispatch cost.

    The same products and differences in the same order, so bitwise equal.
    """
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))


def _pair_product_parts(p1: Legs, p2: Legs):
    ar, ad = _legs(p1)
    br, bd = _legs(p2)
    alpha = float(ar @ br + ad @ bd)
    u = _cross(ar, br) + _cross(ad, bd)
    v = _cross(ar, bd) + _cross(ad, br)
    w = float(ar @ bd + ad @ br)
    return alpha, u, v, w


def nfold_scalar_part(pairs: Sequence[Legs]) -> float:
    """Scalar part of the source-element chain over the given pairs.

    Closed forms cover two, three and four factors; the value matches the
    direct product chain in the written order for either coin sign (the
    orientation enters the coefficients and the structure constants once
    each, so it drops out of every chain scalar and no sign is taken).
    Other counts raise ArityUnsupported. The four-factor form keeps the
    w1*w2 cross-dot term; it vanishes identically for planar and role-mapped
    pairs but not for general ones, and without it the chain equality would
    break there.
    """
    n = len(pairs)
    if n == 0:
        raise EmptyInput("no pairs given")
    if not 2 <= n <= 4:
        raise ArityUnsupported("chain scalars are defined for two to four pairs")
    if n == 2:
        alpha, _, _, _ = _pair_product_parts(pairs[0], pairs[1])
        return -alpha
    if n == 3:
        (ar, ad), (br, bd), (cr, cd) = (_legs(p) for p in pairs)
        return float(ar @ (_cross(br, cr) + _cross(bd, cd))
                     + ad @ (_cross(br, cd) + _cross(bd, cr)))
    a1, u1, v1, w1 = _pair_product_parts(pairs[0], pairs[1])
    a2, u2, v2, w2 = _pair_product_parts(pairs[2], pairs[3])
    return float(a1 * a2 - u1 @ u2 - v1 @ v2 + w1 * w2)


def chsh_bound(x, xp, y, yp) -> float:
    """Upper envelope of the four-term combination for unit settings.

    2 * sqrt(1 - (x cross xp).(yp cross y)); ranges over [0, 2*sqrt(2)].
    The inner term is a dot of two cross products of unit vectors, so it
    lies in [-1, 1] analytically; the radicand is clamped to [0, 2] to keep
    rounding dust from ever pushing the result past the ceiling.
    """
    x, xp, y, yp = (np.asarray(v, dtype=np.float64).reshape(3)
                    for v in (x, xp, y, yp))
    inner = float(_cross(x, xp) @ _cross(yp, y))
    return 2.0 * math.sqrt(min(2.0, max(0.0, 1.0 - inner)))

