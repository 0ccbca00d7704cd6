"""Closed-form predictions the trial engine is tested against.

Everything here is an independent evaluation path: plain vector algebra
(dots and crosses of the pair legs), no products in the eight-slot algebra.
The engine and these forms are compared in the test suite; the
quantum-mechanical predictions for the two experiments are the same
expressions, so no separate reference is needed.

A setting arrives as its legs (n_r, n_d) and is unpacked here. The module
imports nothing from the package but its errors, so the reference shares
no code with the algebra and the embedding it checks. The chain closed
forms take one chain of settings or an (n, k, 2, 3) stack of chains; dots
and crosses are written out component by component, so a row's value is
bitwise that of its one-chain call whatever the stack and the BLAS kernel.

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

Legs = tuple  # a setting (n_r, n_d): two 3-vectors


def _legs(pair) -> tuple[np.ndarray, np.ndarray]:
    """The legs of one setting (2, 3) or of an (n, 2, 3) stack, each held
    component first: a (3,) vector or a (3, n) stack of them."""
    p = np.asarray(pair, dtype=np.float64)
    return p[..., 0, :].T, p[..., 1, :].T


def _dot(a, b):
    """a.b of component-first 3-vectors, written out so that a row's bits
    depend neither on the stack nor on the BLAS kernel."""
    return (a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]


def _cross(a, b) -> np.ndarray:
    """np.cross of component-first 3-vectors: the same products and
    differences in the same order, so bitwise equal."""
    return np.array((a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]))


def epr_expectation(theta: float) -> float:
    """Two-party correlation at separation angle theta (radians); a
    non-finite theta raises ValueError."""
    if not math.isfinite(theta):
        raise ValueError("theta must be finite, got %r" % (theta,))
    return -math.cos(theta)


def ghz_expectation(thetas: Sequence[float], phis: Sequence[float]) -> float:
    """Four-party correlation for polar angles thetas and azimuths phis.

    All angles in radians. For four equatorial settings (theta = pi/2) this
    reduces to -cos(phi_a + phi_b - phi_c - phi_d). Counts other than four
    raise ArityUnsupported, a non-finite angle ValueError.
    """
    t = [float(x) for x in thetas]
    p = [float(x) for x in phis]
    if len(t) != 4 or len(p) != 4:
        raise ArityUnsupported("four polar and four azimuthal angles required")
    bad = [x for x in t + p if not math.isfinite(x)]
    if bad:
        raise ValueError("angles must be finite, got %r" % bad[0])
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
        _dot(ar, br) * _dot(cr, dr) + _dot(ad, bd) * _dot(cd, dd)
        - _dot(ar, cr) * _dot(br, dr) + _dot(br, cr) * _dot(ar, dr)
        + _dot(bd, cd) * _dot(ad, dd) - _dot(ad, cd) * _dot(bd, dd)
    ))


def _pair_product_parts(p1, p2):
    """alpha, u, v and w of two settings, or of two (n, 2, 3) stacks of
    them row by row; u and v are held component first."""
    ar, ad = _legs(p1)
    br, bd = _legs(p2)
    alpha = _dot(ar, br) + _dot(ad, bd)
    u = _cross(ar, br) + _cross(ad, bd)
    v = _cross(ar, bd) + _cross(ad, br)
    w = _dot(ar, bd) + _dot(ad, br)
    return alpha, u, v, w


def nfold_scalar_part(pairs):
    """Scalar part of the source-element chain over the given pairs.

    pairs is a sequence of k settings, which gives a float, or an
    (n, k, 2, 3) stack of n chains, which gives the (n,) array of their
    scalars, each row bitwise what its one-chain call gives. Closed forms
    cover two, three and four factors; the value matches the
    direct product chain in the written order for either coin sign (the
    orientation enters the coefficients and the structure constants once
    each, so it drops out of every chain scalar and no sign is taken).
    Other counts raise ArityUnsupported. The four-factor form keeps the
    w1*w2 cross-dot term; it vanishes identically for planar and role-mapped
    pairs but not for general ones, and without it the chain equality would
    break there.
    """
    if len(pairs) == 0:
        raise EmptyInput("no pairs given")
    p = np.asarray(pairs, dtype=np.float64)
    if p.ndim not in (3, 4) or p.shape[-2:] != (2, 3):
        raise ValueError("pairs must be k settings (n_r, n_d) or an "
                         "(n, k, 2, 3) stack, got shape %s" % (p.shape,))
    n = p.shape[-3]
    if not 2 <= n <= 4:
        raise ArityUnsupported("chain scalars are defined for two to four pairs")
    factors = [p[..., i, :, :] for i in range(n)]
    if n == 2:
        alpha, _, _, _ = _pair_product_parts(*factors)
        value = -alpha
    elif n == 3:
        (ar, ad), (br, bd), (cr, cd) = (_legs(f) for f in factors)
        value = (_dot(ar, _cross(br, cr) + _cross(bd, cd))
                 + _dot(ad, _cross(br, cd) + _cross(bd, cr)))
    else:
        a1, u1, v1, w1 = _pair_product_parts(factors[0], factors[1])
        a2, u2, v2, w2 = _pair_product_parts(factors[2], factors[3])
        value = a1 * a2 - _dot(u1, u2) - _dot(v1, v2) + w1 * w2
    return float(value) if p.ndim == 3 else value


def chsh_bound(x, xp, y, yp) -> float:
    """Upper envelope of the four-term combination for unit settings.

    2 * sqrt(1 - (x cross xp).(y cross yp)) bounds |S| for
    S = E(x,y) + E(x,yp) + E(xp,y) - E(xp,yp), E the singlet correlation
    -x.y, which is the combination chsh_scan reports; it ranges over
    [0, 2*sqrt(2)]. The inner term is a dot of two cross products of unit
    vectors, so it lies in [-1, 1] analytically; the radicand is clamped to
    [0, 2] to keep rounding dust from ever pushing the result past the
    ceiling. A setting with a non-finite component raises ValueError, where
    the clamp would turn its NaN into a finite bound.
    """
    x, xp, y, yp = (np.asarray(v, dtype=np.float64).reshape(3)
                    for v in (x, xp, y, yp))
    if not np.isfinite((x, xp, y, yp)).all():
        raise ValueError("settings must be finite")
    inner = float(_dot(_cross(x, xp), _cross(y, yp)))
    return 2.0 * math.sqrt(min(2.0, max(0.0, 1.0 - inner)))

