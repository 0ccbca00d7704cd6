"""Eight-component geometric algebra with an orientation-tagged basis.

The algebra lives on eight basis blades, indexed 0..7:

    0: 1            scalar
    1: e12          xy rotation plane
    2: e31          zx rotation plane
    3: e23          yz rotation plane
    4: e14          x leg of the added fourth direction
    5: e24          y leg
    6: e34          z leg
    7: e1234        volume times the fourth direction

An element is its row of eight coefficients, an (8,) array; a stack of n
elements is an (n, 8) array. Every product is taken under an orientation
sign ``lam`` (+1 or -1), passed beside the coefficients: one int for every
row, or an (n,) array of per-row tags. The sign fixes the handedness of the
non-scalar basis blades: the -1 basis is the +1 basis with blades 1..7
negated. So there is one product table, that of +1, and the -1 product is
its mirror, x *_{-1} y = M (M x *_{+1} M y) with M = diag(1, -1, ..., -1);
M leaves the scalar part alone. The scalar part of x is ``x[..., 0]``.

Structurally this is a split dual quaternion algebra: slots 0..3 multiply as
one quaternion, slots 4..7 as a second, and the two halves couple through a
unit that squares to +1 (slot 7 alone squares to +1, slots 1..6 to -1).

The +1 product is driven by two integer tensors: an antisymmetric one on
the rotation-type triples and a symmetric one coupling each plane to its
opposite leg through slot 7.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

SCALAR, B_XY, B_ZX, B_YZ, E_X, E_Y, E_Z, E_VOL = range(8)

# Slots of a direction pair (n_r, n_d): the x, y, z components of the plane
# leg n_r go to the planes dual to those axes, the x, y, z components of the
# fourth-direction leg n_d to the legs along them.
R_SLOTS = (B_YZ, B_ZX, B_XY)
D_SLOTS = (E_X, E_Y, E_Z)

# antisymmetric structure triples, value +1 in the order written
_F_TRIPLES = ((1, 2, 3), (2, 4, 6), (3, 6, 5), (4, 1, 5))
# fully symmetric structure triples, value -1
_L_TRIPLES = ((1, 7, 6), (2, 5, 7), (3, 4, 7))


def _build_structure():
    f = np.zeros((8, 8, 8), dtype=np.int8)
    for a, b, c in _F_TRIPLES:
        for (i, j, k), s in (
            ((a, b, c), 1), ((b, c, a), 1), ((c, a, b), 1),
            ((b, a, c), -1), ((a, c, b), -1), ((c, b, a), -1),
        ):
            f[i, j, k] = s
    l = np.zeros((8, 8, 8), dtype=np.int8)
    for trip in _L_TRIPLES:
        for p in itertools.permutations(trip):
            l[p] = -1
    return f, l


def _build_tensor() -> np.ndarray:
    """T[rho, mu, nu] = coefficient of blade rho in (blade mu * blade nu)."""
    f, l = _build_structure()
    t = np.zeros((8, 8, 8), dtype=np.int8)
    t[0, 0, 0] = 1
    for k in range(1, 8):
        t[k, 0, k] = 1
        t[k, k, 0] = 1
        t[0, k, k] = 1 if k == 7 else -1
    for mu in range(1, 8):
        for nu in range(1, 8):
            for rho in range(1, 8):
                c = f[mu, nu, rho] + (-1 if rho == 7 else 1) * l[mu, nu, rho]
                if c:
                    t[rho, mu, nu] += c
    return t


# M, the mirror signs of the -1 orientation, negates blades 1..7; the -1
# table is the +1 table with M on all three indices
_MIRROR = np.array([1] + [-1] * 7, dtype=np.int8)
PRODUCT_TENSOR = {+1: _build_tensor()}
PRODUCT_TENSOR[-1] = (PRODUCT_TENSOR[+1] * _MIRROR[:, None, None]
                      * _MIRROR[:, None] * _MIRROR)


@functools.cache
def term_plan(zeros_a=(), zeros_b=(), scalar_only: bool = False) -> tuple:
    """Plan of the +1 product when the slots in zeros_a of the left factor
    and those in zeros_b of the right one are structurally zero. The -1
    product runs it on mirrored operands (see ``mv_mul``); mirroring moves
    no zero, so one plan serves both tags.

    The plan is a tuple of rows (rho, groups), one per wanted row rho, its
    surviving groups (sign, i, j, inner, k, l) in the written term order. A
    group is a[i] * b[j], plus or minus a[k] * b[l] as inner is +1 or -1
    (0: no second term), added to the row or subtracted from it as sign is
    +1 or -1. Outside the scalar row a group is the pair of cross terms of
    one blade pair {mu, nu}. A row with no surviving group comes back as
    None.

    With scalar_only the plan lists the scalar row alone. Plans are cached,
    so a caller fetches one per pattern and passes it to every product.
    """
    t = PRODUCT_TENSOR[+1]
    # the written groups of each row as ((s, mu, nu), ...) terms: the
    # scalar row term by term, every other row pair by pair, so that the
    # antisymmetric cross terms of a product X * X cancel bitwise instead
    # of leaving rounding dust
    written = [[((int(t[0, k, k]), k, k),) for k in range(8)]]
    for rho in range(1, 8):
        written.append([((1, 0, rho), (1, rho, 0))] + [
            ((int(t[rho, mu, nu]), mu, nu), (int(t[rho, nu, mu]), nu, mu))
            for mu in range(1, 8) for nu in range(mu + 1, 8)
            if t[rho, mu, nu] or t[rho, nu, mu]])
    rows = []
    for rho in (SCALAR,) if scalar_only else range(8):
        groups = []
        for grp in written[rho]:
            terms = [(s, i, j) for s, i, j in grp
                     if i not in zeros_a and j not in zeros_b]
            if not terms:
                continue
            (s, i, j), *rest = terms
            (s2, k, l), = rest or ((0, 0, 0),)
            groups.append((s, i, j, s * s2, k, l))
        rows.append((rho, tuple(groups)))
    return tuple(rows)


def zero_slots(x) -> tuple:
    """The slots of a per-slot sequence that hold None."""
    return tuple(i for i, v in enumerate(x) if v is None)


def _check_lam(lam) -> int:
    """The orientation tag as an int; anything but +1 or -1 is refused."""
    if lam not in (1, -1):
        raise ValueError("orientation tag must be +1 or -1, got %r" % (lam,))
    return int(lam)


def place_legs(out, n_r, n_d):
    """Write the legs of a direction pair into their slots of out; return out.

    out is indexed by slot: an (8,) array, or a list of eight entries, in
    which case the components may be arrays of n values, or None for a
    structurally zero slot. The scalar and volume slots are left as they
    are.
    """
    (rx, ry, rz), (dx, dy, dz) = R_SLOTS, D_SLOTS
    out[rx], out[ry], out[rz] = n_r
    out[dx], out[dy], out[dz] = n_d
    return out


def plane_leg(coeffs: np.ndarray) -> np.ndarray:
    """The x, y, z components of n_r held in an (8,) coefficient array, or
    in each row of an (n, 8) stack."""
    return coeffs[..., list(R_SLOTS)]


def _product(a, b, plan: tuple, out) -> None:
    """Write the rows that plan lists of the product of a and b into out.

    a, b and out are indexed by slot; each entry is a float or an array, so
    ``mv_mul`` on rows and on stacks and the engine's batched chains run
    this same kernel. The cross terms of every blade pair {mu, nu} are summed
    together before being folded into the row. A slot the plan counts as
    structurally zero may hold None; only the surviving terms are
    evaluated, so a pruned result can differ from the full one in the sign
    of a zero and nowhere else.
    """
    for rho, groups in plan:
        acc = None
        for sign, i, j, inner, k, l in groups:
            g = a[i] * b[j]
            if inner > 0:
                g += a[k] * b[l]
            elif inner < 0:
                g -= a[k] * b[l]
            if acc is None:
                acc = g if sign > 0 else -g
            elif sign > 0:
                acc += g
            else:
                acc -= g
        out[rho] = acc


def mv_mul(x, y, lam, scalar_only: bool = False):
    """Geometric product of two elements under the orientation tag lam.

    x and y are (8,) coefficient rows, or (n, 8) stacks multiplied row by
    row. lam is the tag of every row, or for a stack an (n,) array of
    per-row tags. Every call is the mirror product m * (m x *_{+1} m y),
    with m each row's mirror signs (1 under +1, ``_MIRROR`` under -1):
    ``_product`` runs once on the per-slot columns under the full +1 plan.
    Sign flips are exact, so each row of a stack gets the bits of its
    one-row product. Pair-grouped summation makes the antisymmetric
    contributions of a product X * X cancel exactly in floating point, so
    squares of pair-built elements have a bitwise-zero non-scalar part.
    With scalar_only only the scalar row, which needs no sign, is evaluated
    and comes back: a float for a row, an (n,) array for a stack.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.shape[-1:] != (8,) or x.ndim > 2:
        raise ValueError("operands must be two (8,) rows or two (n, 8) "
                         "stacks, got shapes %s and %s" % (x.shape, y.shape))
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("coefficients must be finite")
    if np.ndim(lam) == 0:
        lam = _check_lam(lam)
    elif x.ndim == 1:
        raise ValueError("a row takes one orientation tag")
    else:
        lam = np.broadcast_to(lam, (len(x),))[:, None]
        if not ((lam == 1) | (lam == -1)).all():
            raise ValueError("orientation tags must be +1 or -1")
    m = np.where(lam == 1, 1.0, _MIRROR)
    out = [None] * 8
    _product(list((m * x).T), list((m * y).T),
             term_plan(scalar_only=scalar_only), out)
    return out[SCALAR] if scalar_only else m * np.stack(out, axis=-1)


def mv_norm(x):
    """The Euclidean norm of an (8,) row as a float, or of each row of an
    (..., 8) stack as an array of that shape.

    Each row's squares are summed by ``math.fsum``, which rounds once, so
    the norm does not depend on the order a BLAS kernel picked for the
    host CPU would add them in.
    """
    x = np.asarray(x, dtype=np.float64)
    norms = np.array([math.sqrt(math.fsum(sq))
                      for sq in (x * x).reshape(-1, 8).tolist()])
    return float(norms[0]) if x.ndim == 1 else norms.reshape(x.shape[:-1])


def quadric_defect(x):
    """The pairing X0*(-X7) + X1*X6 + X2*X5 + X3*X4 of an (8,) row, or of
    each row of an (..., 8) stack.

    Zero exactly on the subset of the unit sphere where the norm composes
    multiplicatively under the +1 orientation; products of such elements
    stay on it.
    """
    c = np.moveaxis(np.asarray(x, dtype=np.float64), -1, 0)
    return -c[0] * c[7] + c[1] * c[6] + c[2] * c[5] + c[3] * c[4]
