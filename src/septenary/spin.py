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

Each constructor takes one direction, which gives the plain tuple of two
3-tuples, or an (n, 3) stack of them, which gives the (n, 2, 3) array of
their legs. Norms and dots are written out component by component, so a
row's legs are bitwise those of its one-row call whatever the stack and
the BLAS kernel. Every row is held to the checks on its own: the planar
and role constructors refuse a direction whose legs miss their squared
norms by more than 1e-12, a tighter bound than the 1e-6 unit test every
direction passes first, and the planar one a direction off the xy plane.

A detector D is the embedded setting, an (8,) coefficient row. A trial
multiplies it under the tag of its coin lam and leaves its coefficients
alone. A source (spin state) is the row lam D under the tag lam, so the
pair-product closed forms hold for either sign of the coin.

The embedding, the outcome map and the similarity transport are each
defined once, by ``detector``, ``measure`` and ``recover_source_axis``.
Each takes one setting or a stack of them and runs its products through
``algebra.mv_mul``, so a one-row call gives the bits of the same row of a
stack call. Every row of a stack is held to the checks on its own, so one
bad row raises DegenerateInput.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import (
    R_SLOTS, _check_lam, mv_mul, mv_norm, place_legs, plane_leg,
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


def _norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (n, 3) stack, written out so that
    a row's bits depend neither on the stack nor on the BLAS kernel."""
    x, y, z = a[:, 0], a[:, 1], a[:, 2]
    return np.sqrt((x * x + y * y) + z * z)


def _first_bad(ok: np.ndarray):
    """Index of the first row that is not ok, or None."""
    bad = np.flatnonzero(~ok)
    return int(bad[0]) if len(bad) else None


def _check_unit(a: np.ndarray, what: str) -> None:
    """Refuse an (n, 3) stack of directions with a row that is not unit
    length. The bounds are written so that nan and inf fail them."""
    n = _norms(a)
    k = _first_bad(np.abs(n - 1.0) <= 1e-6)
    if k is None:
        return
    if n[k] < 1e-9:
        raise DegenerateInput("%s is numerically zero" % what)
    raise DegenerateInput("%s must be unit length, got norm %.3g"
                          % (what, n[k]))


def _check_square(sq: np.ndarray, want: float, a: np.ndarray,
                  what: str) -> None:
    # _check_unit allows 1e-6; the legs of a setting are held to 1e-12
    k = _first_bad(np.abs(sq - want) <= 1e-12)
    if k is not None:
        raise DegenerateInput("%s %r is not unit length to 1e-12"
                              % (what, tuple(a[k].tolist())))


def _directions(a) -> tuple[np.ndarray, bool]:
    """A direction (3,) or an (n, 3) stack of them as an (n, 3) stack, and
    whether one row was given."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape[-1:] != (3,) or a.ndim > 2:
        raise ValueError("a direction must be a 3-vector or an (n, 3) stack, "
                         "got shape %s" % (a.shape,))
    return a.reshape(-1, 3), a.ndim == 1


def _setting(n_r, n_d, one: bool):
    """The legs as an (n, 2, 3) stack, or as the plain tuple (n_r, n_d) of
    3-tuples for one row. Each component of n_r and n_d is an (n,) column
    or a float, and n_r's first is a column."""
    legs = np.empty((len(n_r[0]), 2, 3))
    for i, leg in enumerate((n_r, n_d)):
        for j, v in enumerate(leg):
            legs[:, i, j] = v
    if one:
        n_r, n_d = legs[0].tolist()
        return tuple(n_r), tuple(n_d)
    return legs


def planar_legs(x, y) -> tuple[tuple, tuple]:
    """Legs (n_r, n_d) of the planar pair for the unit direction (x, y, 0).

    n_r = (x, y, 0) / sqrt(2), and n_d is its quarter-turn, built from the
    scaled components themselves so the orthogonality holds bitwise:
    (1, 0) gives n_d = (0, 1, 0) / sqrt(2), (0, 1) gives (-1, 0, 0) / sqrt(2).
    x and y may be floats or equally shaped arrays.
    """
    rx, ry = x * SQRT_HALF, y * SQRT_HALF
    return (rx, ry, 0.0), (-ry, rx, 0.0)


def make_pair_planar(a):
    """Legs of the setting for a unit direction in the xy plane (see
    planar_legs), or the (n, 2, 3) legs of an (n, 3) stack of them."""
    a, one = _directions(a)
    if not (a[:, 2] == 0.0).all():
        raise DegenerateInput("planar pair needs a z-free direction")
    _check_unit(a, "planar direction")
    n_r, n_d = planar_legs(a[:, 0], a[:, 1])
    for x, y, _ in (n_r, n_d):
        _check_square(x * x + y * y, 0.5, a, "planar direction")
    return _setting(n_r, n_d, one)


def make_pair_ghz(a, role: str):
    """Role-mapped legs for the four-party identities.

    The xy part of the direction lands in n_r and the z part in n_d, each
    component multiplied by the role's sign and by 2**-0.25. Role A with
    a = (0,0,1) gives n_r = 0 and n_d = (0, 0, -2**-0.25). An (n, 3) stack
    of directions gives the (n, 2, 3) legs, all under the one role.
    """
    if role not in ROLE_SIGNS:
        raise ValueError("role must be one of A, B, C, D")
    a, one = _directions(a)
    _check_unit(a, "ghz direction")
    sx, sy, sz = ROLE_SIGNS[role]
    rx, ry = sx * a[:, 0] * GHZ_SCALE, sy * a[:, 1] * GHZ_SCALE
    dz = sz * a[:, 2] * GHZ_SCALE
    _check_square((rx * rx + ry * ry) + dz * dz, SQRT_HALF, a,
                  "ghz direction")
    return _setting((rx, ry, 0.0), (0.0, 0.0, dz), one)


def _residual(ahat: np.ndarray, axis: int) -> tuple[tuple, np.ndarray]:
    """The Gram-Schmidt residual of a unit axis against each row of ahat,
    as a tuple of three columns, and the residuals' norms."""
    c = ahat[:, axis]
    d = [float(i == axis) - c * ahat[:, i] for i in range(3)]
    x, y, z = d
    return d, np.sqrt((x * x + y * y) + z * z)


def make_pair_general(a):
    """Legs of the setting for an arbitrary unit direction, or the
    (n, 2, 3) legs of an (n, 3) stack of them.

    n_d comes from Gram-Schmidt of the x axis against a. Its orthogonality
    to a degrades as eps / n, n the norm of the residual, so where n is not
    above 1e-2 (a within about 0.01 rad of +-x) the y axis is used instead,
    whose residual there is near 1. The construction is deterministic and
    runs row by row.
    """
    a, one = _directions(a)
    _check_unit(a, "direction")
    ahat = a / _norms(a)[:, None]
    d, n = _residual(ahat, 0)
    near_x = n <= 1e-2
    if near_x.any():
        dy, ny = _residual(ahat, 1)
        d = [np.where(near_x, v, u) for u, v in zip(d, dy)]
        n = np.where(near_x, ny, n)
    return _setting([v * SQRT_HALF for v in ahat.T],
                    [v / n * SQRT_HALF for v in d], one)


def detector(legs) -> np.ndarray:
    """The setting (n_r, n_d) embedded in the algebra: its legs in their
    slots (see algebra.place_legs), scalar and volume zero, as an (8,) row.

    A sequence of n settings, or an (n, 2, 3) array of them, gives the
    (n, 8) stack of their rows. Legs that are not finite are refused.
    """
    legs = np.asarray(legs, dtype=np.float64)
    if legs.shape[-2:] != (2, 3) or legs.ndim > 3:
        raise ValueError("legs must be (n_r, n_d) or a sequence of them, "
                         "got shape %s" % (legs.shape,))
    if not np.isfinite(legs).all():
        raise ValueError("detector legs must be finite")
    rows = np.zeros(legs.shape[:-2] + (8,))
    place_legs(rows.T, legs[..., 0, :].T, legs[..., 1, :].T)
    return rows


def measure(det, lam, side: str):
    """Deterministic outcome of one wing at the source-aligned limit.

    side='first' evaluates the scalar of -D (lam D) and returns +lam;
    side='second' evaluates (lam D) D and returns -lam. The float product is
    checked against the exact value before the integer is returned.

    det is one (8,) detector row under the coin lam, which gives an int, or
    an (n, 8) stack under one coin or an (n,) array of them, which gives an
    (n,) int array. Each row is held to the checks on its own: a row whose
    norm is not 1 to 1e-9, or whose product drifts from its limit by more
    than 1e-9, raises DegenerateInput.
    """
    if side not in ("first", "second"):
        raise ValueError("side must be 'first' or 'second'")
    if np.ndim(lam) == 0:
        lam = _check_lam(lam)
    det = np.asarray(det, dtype=np.float64)
    if not (np.abs(mv_norm(det) - 1.0) <= 1e-9).all():
        raise DegenerateInput(
            "outcome extraction needs a unit-norm detector element"
        )
    lams = lam * np.ones(det.shape[:-1], dtype=np.int64)
    source = lams[..., None] * det
    if side == "first":
        value = mv_mul(-det, source, lams, scalar_only=True)
        expected = lams
    else:
        value = mv_mul(source, det, lams, scalar_only=True)
        expected = -lams
    drift = np.flatnonzero(~(np.abs(value - expected) <= 1e-9))
    if len(drift):
        k = drift[0]
        raise DegenerateInput(
            "outcome drifted from its limit: got %.17g, wanted %+d"
            % (np.ravel(value)[k], np.ravel(expected)[k])
        )
    return expected if expected.ndim else int(expected)


def _axis_rows(u: np.ndarray, what: str) -> np.ndarray:
    _check_unit(_directions(u)[0], what)
    return detector(np.stack([u, np.zeros_like(u)], axis=-2))


def _reflect(b: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For axes b and s, (3,) or (n, 3): the detector planes xb and the
    reflected elements -xb * xs * xb, whose plane legs are 2 (b.s) b - s."""
    xb = _axis_rows(b, "detector axis")
    xs = _axis_rows(s, "source axis")
    return xb, mv_mul(-xb, mv_mul(xs, xb, 1), 1)


def recover_source_axis(b, s) -> np.ndarray:
    """Round trip through the similarity transform along a detector axis.

    Conjugating the reflected element by the detector plane undoes the
    reflection, so the returned axis equals s up to rounding. All four
    products run through the real algebra; nothing is symbolically
    cancelled. b and s are unit (3,) axes, or (n, 3) stacks of them
    transported row by row; any row that is not unit, or whose transport
    leaks outside the planes by more than 1e-9, raises DegenerateInput.
    """
    xb, y = _reflect(np.asarray(b, dtype=np.float64),
                     np.asarray(s, dtype=np.float64))
    z = mv_mul(xb, mv_mul(y, -xb, 1), 1)
    leak = np.abs(np.delete(z, R_SLOTS, axis=-1)).max(axis=-1)
    if not (leak <= 1e-9).all():
        raise DegenerateInput("similarity transport leaked outside the planes")
    return plane_leg(z)
