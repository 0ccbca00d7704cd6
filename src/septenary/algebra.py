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

Every element carries an orientation sign ``lam`` (+1 or -1). The sign fixes
the handedness of the non-scalar basis blades: flipping it negates blades
1..7 while leaving the products' scalar parts alone. Elements may only be
multiplied when their tags agree.

Structurally this is a split dual quaternion algebra: slots 0..3 multiply as
one quaternion, slots 4..7 as a second, and the two halves couple through a
unit that squares to +1 (slot 7 alone squares to +1, slots 1..6 to -1).

Products are driven by two integer tensors: an antisymmetric one on the
rotation-type triples and a symmetric one coupling each plane to its opposite
leg through slot 7. Both enter the product scaled by ``lam``.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import OrientationMismatch

BLADE_NAMES = ("1", "e12", "e31", "e23", "e14", "e24", "e34", "e1234")

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


def _build_tensor(lam: int) -> np.ndarray:
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
                    t[rho, mu, nu] += lam * c
    return t


PRODUCT_TENSOR = {+1: _build_tensor(+1), -1: _build_tensor(-1)}


@functools.cache
def term_plan(lam: int, zeros_a=(), zeros_b=(),
              scalar_only: bool = False) -> tuple:
    """Plan of the product under tag lam when the slots in zeros_a of the
    left factor and those in zeros_b of the right one are structurally zero.

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
    lam = _check_lam(lam)
    t = PRODUCT_TENSOR[lam]
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


class Multivector:
    """An element of the algebra: eight coefficients plus an orientation tag."""

    __slots__ = ("coeffs", "lam")

    def __init__(self, coeffs, lam: int = +1):
        arr = np.array(coeffs, dtype=np.float64).reshape(8)
        if not np.isfinite(arr).all():
            raise ValueError("multivector coefficients must be finite")
        self.coeffs = arr
        self.lam = _check_lam(lam)

    # -- arithmetic -----------------------------------------------------------

    def __neg__(self):
        return Multivector(-self.coeffs, self.lam)

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.lam == other.lam and np.array_equal(self.coeffs, other.coeffs)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c != 0.0:
                terms.append("%+g %s" % (c, BLADE_NAMES[i]))
        body = " ".join(terms) if terms else "0"
        return "Multivector(%s | lam=%+d)" % (body, self.lam)


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
    """The x, y, z components of n_r held in an (8,) coefficient array."""
    return coeffs[list(R_SLOTS)]


def basis_product(mu: int, nu: int, lam: int = +1) -> Multivector:
    """Product of two basis blades, exact. At most one blade survives."""
    lam = _check_lam(lam)
    if not (0 <= mu <= 7 and 0 <= nu <= 7):
        raise ValueError("basis indices must lie in 0..7")
    return Multivector(PRODUCT_TENSOR[lam][:, mu, nu].astype(np.float64), lam)


def _product(a, b, plan: tuple, out) -> None:
    """Write the rows that plan lists of the product of a and b into out.

    a, b and out are indexed by slot; each entry is a float or an array, so
    ``mv_mul`` and the engine's batched chains run this same kernel. The
    cross terms of every blade pair {mu, nu} are summed together before
    being folded into the row. A slot the plan counts as structurally zero
    may hold None; only the surviving terms are evaluated, so a pruned
    result can differ from the full one in the sign of a zero and nowhere
    else.
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


def mv_mul(x: Multivector, y: Multivector) -> Multivector:
    """Geometric product. Both operands must carry the same orientation tag.

    It runs ``_product`` under the full plan of the tag. Pair-grouped
    summation makes the antisymmetric contributions of a product X * X
    cancel exactly in floating point, so squares of pair-built elements
    come out with a bitwise-zero non-scalar part.
    """
    if x.lam != y.lam:
        raise OrientationMismatch(
            "product needs matching orientation tags, got %+d and %+d"
            % (x.lam, y.lam)
        )
    out = [0.0] * 8
    _product(x.coeffs.tolist(), y.coeffs.tolist(), term_plan(x.lam), out)
    return Multivector(out, x.lam)


def mv_norm(x: Multivector) -> float:
    return float(math.sqrt(float(np.dot(x.coeffs, x.coeffs))))


def scalar_part(x: Multivector) -> float:
    return float(x.coeffs[0])


def quadric_defect(x: Multivector) -> float:
    """The pairing X0*(-X7) + X1*X6 + X2*X5 + X3*X4.

    Zero exactly on the subset of the unit sphere where the norm composes
    multiplicatively under the +1 orientation; products of such elements
    stay on it.
    """
    c = x.coeffs
    return float(-c[0] * c[7] + c[1] * c[6] + c[2] * c[5] + c[3] * c[4])

