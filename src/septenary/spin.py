"""Setting and source elements built from paired direction vectors.

A measurement setting is its legs, the tuple (n_r, n_d) of two 3-vectors.
``detector`` is its one embedding into the algebra, through the slot map
of ``algebra.place_legs``: n_r onto the planes dual to its axes, n_d onto
the legs along them, the scalar and volume slots zero. Three constructors
return legs:

* make_pair_planar: for a unit direction a in the xy plane, n_r = a / sqrt(2)
  and n_d is a rotated a quarter turn counter-clockwise, same scaling. The
  rotation reuses the already scaled components bitwise, which is what lets
  squares of these elements cancel exactly (see mv_mul).
* make_pair_ghz: one of four fixed sign patterns per party role, all scaled
  by 2**-0.25, with the z component moved to the n_d leg. These legs feed
  the four-party closed-form identities; their embedded elements are not
  unit norm and are not meant for outcome extraction.
* make_pair_general: any unit 3-vector, with n_d built by deterministic
  Gram-Schmidt against the x axis, or against the y axis within about
  0.01 rad of +-x, where the x residual is too short to keep n_d
  orthogonal to 1e-12. The trial engine uses the planar constructor; the
  ``check`` chain-forms suite draws its settings through this one.

The planar and role constructors refuse a direction whose legs miss their
squared norms by more than 1e-12, a tighter bound than the 1e-6 unit test
every direction passes first.

A detector D is the embedded setting, an element under the +1 tag. A trial
re-tags it with its coin lam and leaves its coefficients alone. A source
(spin state) is the element lam D under the tag lam, so the pair-product
closed forms hold for either sign of the coin.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import (
    R_SLOTS, Multivector, _check_lam, mv_mul, mv_norm, place_legs, plane_leg,
    scalar_part,
)
from .errors import DegenerateInput

SQRT_HALF = math.sqrt(0.5)
GHZ_SCALE = 2.0 ** -0.25

# per-role sign pattern applied to (x, y, z) before scaling
ROLE_SIGNS = {
    "A": (-1.0, 1.0, -1.0),
    "B": (1.0, 1.0, 1.0),
    "C": (1.0, 1.0, 1.0),
    "D": (1.0, -1.0, -1.0),
}


def _check_unit(a: np.ndarray, what: str) -> None:
    n = float(np.linalg.norm(a))
    if n < 1e-9:
        raise DegenerateInput("%s is numerically zero" % what)
    if abs(n - 1.0) > 1e-6:
        raise DegenerateInput("%s must be unit length, got norm %.3g" % (what, n))


def planar_legs(x, y) -> tuple[tuple, tuple]:
    """Legs (n_r, n_d) of the planar pair for the unit direction (x, y, 0).

    n_r = (x, y, 0) / sqrt(2), and n_d is its quarter-turn, built from the
    scaled components themselves so the orthogonality holds bitwise:
    (1, 0) gives n_d = (0, 1, 0) / sqrt(2), (0, 1) gives (-1, 0, 0) / sqrt(2).
    x and y may be floats or equally shaped arrays.
    """
    rx, ry = x * SQRT_HALF, y * SQRT_HALF
    return (rx, ry, 0.0), (-ry, rx, 0.0)


def _check_square(sq: float, want: float, a: np.ndarray, what: str) -> None:
    # _check_unit allows 1e-6; the legs of a setting are held to 1e-12
    if abs(sq - want) > 1e-12:
        raise DegenerateInput("%s %r is not unit length to 1e-12"
                              % (what, tuple(a.tolist())))


def make_pair_planar(a) -> tuple[tuple, tuple]:
    """Legs of the setting for a unit direction in the xy plane (see
    planar_legs)."""
    a = np.asarray(a, dtype=np.float64).reshape(3)
    if a[2] != 0.0:
        raise DegenerateInput("planar pair needs a z-free direction")
    _check_unit(a, "planar direction")
    legs = planar_legs(a[0], a[1])
    for leg in legs:
        _check_square(float(np.dot(leg, leg)), 0.5, a, "planar direction")
    return legs


def make_pair_ghz(a, role: str) -> tuple[tuple, tuple]:
    """Role-mapped legs for the four-party identities.

    The xy part of the direction lands in n_r and the z part in n_d, each
    component multiplied by the role's sign and by 2**-0.25. Role A with
    a = (0,0,1) gives n_r = 0 and n_d = (0, 0, -2**-0.25).
    """
    if role not in ROLE_SIGNS:
        raise ValueError("role must be one of A, B, C, D")
    a = np.asarray(a, dtype=np.float64).reshape(3)
    _check_unit(a, "ghz direction")
    sx, sy, sz = ROLE_SIGNS[role]
    n_r = (sx * a[0] * GHZ_SCALE, sy * a[1] * GHZ_SCALE, 0.0)
    n_d = (0.0, 0.0, sz * a[2] * GHZ_SCALE)
    _check_square(float(np.dot(n_r, n_r)) + float(np.dot(n_d, n_d)),
                  SQRT_HALF, a, "ghz direction")
    return n_r, n_d


_X_AXIS = np.array([1.0, 0.0, 0.0])
_Y_AXIS = np.array([0.0, 1.0, 0.0])


def make_pair_general(a) -> tuple[tuple, tuple]:
    """Legs of the setting for an arbitrary unit direction.

    n_d comes from Gram-Schmidt of the x axis against a. Its orthogonality
    to a degrades as eps / n, n the norm of the residual, so where n is not
    above 1e-2 (a within about 0.01 rad of +-x) the y axis is used instead,
    whose residual there is near 1. The construction is deterministic.
    """
    a = np.asarray(a, dtype=np.float64).reshape(3)
    _check_unit(a, "direction")
    ahat = a / np.linalg.norm(a)
    d = _X_AXIS - (_X_AXIS @ ahat) * ahat
    n = float(np.linalg.norm(d))
    if n <= 1e-2:
        d = _Y_AXIS - (_Y_AXIS @ ahat) * ahat
        n = float(np.linalg.norm(d))
    d = d / n
    return tuple(ahat * SQRT_HALF), tuple(d * SQRT_HALF)


def detector(legs) -> Multivector:
    """The setting (n_r, n_d) embedded in the algebra, under the +1 tag: its
    legs in their slots (see algebra.place_legs), scalar and volume zero."""
    n_r, n_d = legs
    return Multivector(place_legs(np.zeros(8), n_r, n_d), +1)


def spin_state(det: Multivector, lam: int) -> Multivector:
    """The source element for one trial: the detector scaled by the coin."""
    lam = _check_lam(lam)
    return Multivector(lam * det.coeffs, lam)


def measure(det: Multivector, lam: int, side: str) -> int:
    """Deterministic outcome of one wing at the source-aligned limit.

    side='first' evaluates the scalar of -D (lam D) and returns +lam;
    side='second' evaluates (lam D) D and returns -lam. The float product is
    checked against the exact value before the integer is returned.
    """
    if side not in ("first", "second"):
        raise ValueError("side must be 'first' or 'second'")
    lam = _check_lam(lam)
    d = Multivector(det.coeffs, lam)
    if abs(mv_norm(d) - 1.0) > 1e-9:
        raise DegenerateInput(
            "outcome extraction needs a unit-norm detector element"
        )
    n = spin_state(det, lam)
    if side == "first":
        value = scalar_part(mv_mul(-d, n))
        expected = lam
    else:
        value = scalar_part(mv_mul(n, d))
        expected = -lam
    if abs(value - expected) > 1e-9:
        raise DegenerateInput(
            "outcome drifted from its limit: got %.17g, wanted %+d"
            % (value, expected)
        )
    return expected


def _axis_element(u, what: str) -> Multivector:
    u = np.asarray(u, dtype=np.float64).reshape(3)
    _check_unit(u, what)
    return detector((u, (0.0, 0.0, 0.0)))


def _reflect(b, s) -> tuple[Multivector, Multivector]:
    """The detector plane xb and the reflected element -xb * xs * xb,
    whose plane leg is 2 (b.s) b - s."""
    xb = _axis_element(b, "detector axis")
    xs = _axis_element(s, "source axis")
    return xb, mv_mul(-xb, mv_mul(xs, xb))


def recover_source_axis(b, s) -> np.ndarray:
    """Round trip through the similarity transform along a detector axis.

    Conjugating the reflected element by the detector plane undoes the
    reflection, so the returned axis equals s up to rounding. All four
    products run through the real algebra; nothing is symbolically
    cancelled.
    """
    xb, y = _reflect(b, s)
    z = mv_mul(xb, mv_mul(y, -xb))
    leak = float(np.abs(np.delete(z.coeffs, R_SLOTS)).max())
    if leak > 1e-9:
        raise DegenerateInput("similarity transport leaked outside the planes")
    return plane_leg(z.coeffs)
