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
multiplied or added when their tags agree; ``Multivector.reoriented`` maps an
element to the coordinates the same geometric object has under the other tag.

Structurally this is a split dual quaternion algebra: slots 0..3 multiply as
one quaternion, slots 4..7 as a second, and the two halves couple through a
unit that squares to +1 (slot 7 alone squares to +1, slots 1..6 to -1).

Products are driven by two integer tensors: an antisymmetric one on the
rotation-type triples and a symmetric one coupling each plane to its opposite
leg through slot 7. Both enter the product scaled by ``lam``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import OrientationMismatch

BLADE_NAMES = ("1", "e12", "e31", "e23", "e14", "e24", "e34", "e1234")

SCALAR, B_XY, B_ZX, B_YZ, E_X, E_Y, E_Z, E_VOL = range(8)

# antisymmetric structure triples, value +1 in the order written
_F_TRIPLES = ((1, 2, 3), (2, 4, 6), (3, 6, 5), (4, 1, 5))
# fully symmetric structure triples, value -1
_L_TRIPLES = ((1, 7, 6), (2, 5, 7), (3, 4, 7))

# metric of the scalar part: <XY>_0 = sum_k G[k] X[k] Y[k]
SCALAR_SIGNS = np.array([1, -1, -1, -1, -1, -1, -1, 1], dtype=np.int8)


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


def _build_pair_rows(lam: int):
    """Entries for the scalar-free rows of the product, pair-grouped.

    For each output slot rho >= 1 this lists (mu, nu, s_fwd, s_rev) with
    mu < nu, where s_fwd is the sign of blade_mu * blade_nu and s_rev the
    sign of blade_nu * blade_mu. The product sums the two cross terms of a
    pair in one expression so that antisymmetric contributions of a product
    X * X cancel bitwise instead of leaving rounding dust.
    """
    t = PRODUCT_TENSOR[lam]
    rows: list[list[tuple[int, int, int, int]]] = [[] for _ in range(8)]
    for rho in range(1, 8):
        for mu in range(1, 8):
            for nu in range(mu + 1, 8):
                s_fwd = int(t[rho, mu, nu])
                s_rev = int(t[rho, nu, mu])
                if s_fwd or s_rev:
                    rows[rho].append((mu, nu, s_fwd, s_rev))
    return rows

_PAIR_ROWS = {+1: _build_pair_rows(+1), -1: _build_pair_rows(-1)}

_REVERSE_SIGNS = np.array([1, -1, -1, -1, -1, -1, -1, 1], dtype=np.float64)


def _check_lam(lam) -> int:
    lam = int(lam)
    if lam not in (1, -1):
        raise ValueError("orientation tag must be +1 or -1, got %r" % (lam,))
    return lam


class Multivector:
    """An element of the algebra: eight coefficients plus an orientation tag."""

    __slots__ = ("coeffs", "lam")

    def __init__(self, coeffs, lam: int = +1):
        arr = np.array(coeffs, dtype=np.float64).reshape(8)
        if not np.all(np.isfinite(arr)):
            raise ValueError("multivector coefficients must be finite")
        self.coeffs = arr
        self.lam = _check_lam(lam)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def basis(cls, index: int, lam: int = +1) -> "Multivector":
        c = np.zeros(8)
        c[index] = 1.0
        return cls(c, lam)

    @classmethod
    def scalar(cls, value: float, lam: int = +1) -> "Multivector":
        c = np.zeros(8)
        c[0] = value
        return cls(c, lam)

    # -- arithmetic -----------------------------------------------------------

    def _same_frame(self, other: "Multivector") -> None:
        if self.lam != other.lam:
            raise OrientationMismatch(
                "cannot combine elements tagged %+d and %+d" % (self.lam, other.lam)
            )

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._same_frame(other)
        return Multivector(self.coeffs + other.coeffs, self.lam)

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._same_frame(other)
        return Multivector(self.coeffs - other.coeffs, self.lam)

    def __neg__(self):
        return Multivector(-self.coeffs, self.lam)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return mv_mul(self, other)
        if isinstance(other, (int, float)):
            return Multivector(self.coeffs * float(other), self.lam)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.coeffs * float(other), self.lam)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.lam == other.lam and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash((self.lam, self.coeffs.tobytes()))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c != 0.0:
                terms.append("%+g %s" % (c, BLADE_NAMES[i]))
        body = " ".join(terms) if terms else "0"
        return "Multivector(%s | lam=%+d)" % (body, self.lam)

    # -- views ----------------------------------------------------------------

    def reoriented(self, lam: int) -> "Multivector":
        """The same geometric object expressed under the other orientation tag.

        Blades 1..7 pick up the sign lam_old * lam_new; the scalar slot does
        not move. Re-tagging with the current tag returns a copy.
        """
        lam = _check_lam(lam)
        if lam == self.lam:
            return Multivector(self.coeffs, self.lam)
        c = self.coeffs.copy()
        c[1:] = -c[1:]
        return Multivector(c, lam)

    def allclose(self, other: "Multivector", atol: float = 1e-12) -> bool:
        return self.lam == other.lam and bool(
            np.allclose(self.coeffs, other.coeffs, rtol=0.0, atol=atol)
        )

    def to_dict(self) -> dict:
        return {"coeffs": [float(c) for c in self.coeffs], "orientation": self.lam}

    @classmethod
    def from_dict(cls, data: dict) -> "Multivector":
        return cls(data["coeffs"], data["orientation"])


@dataclass(frozen=True)
class DualQuaternion:
    """Quaternion pair view of an element: q_r the rotor half, q_d the other.

    Components are ordered (w, x, y, z). The packing swaps the vector order
    of the second half and negates its w so that round trips are exact.
    """

    q_r: tuple
    q_d: tuple


def to_dual_quaternion(x: Multivector) -> DualQuaternion:
    c = x.coeffs
    return DualQuaternion(
        q_r=(float(c[0]), float(c[1]), float(c[2]), float(c[3])),
        q_d=(float(-c[7]), float(c[6]), float(c[5]), float(c[4])),
    )


def from_dual_quaternion(dq: DualQuaternion, lam: int = +1) -> Multivector:
    r, d = dq.q_r, dq.q_d
    return Multivector([r[0], r[1], r[2], r[3], d[3], d[2], d[1], -d[0]], lam)


def basis_product(mu: int, nu: int, lam: int = +1) -> Multivector:
    """Product of two basis blades, exact. At most one blade survives."""
    lam = _check_lam(lam)
    if not (0 <= mu <= 7 and 0 <= nu <= 7):
        raise ValueError("basis indices must lie in 0..7")
    return Multivector(PRODUCT_TENSOR[lam][:, mu, nu].astype(np.float64), lam)


def product_scalar(a, b):
    """Scalar part of the product of two eight-component sequences.

    The components may be floats or equally shaped arrays, one per slot.
    The scalar row carries no orientation sign, so no tag is needed. This is
    row 0 of every product, so a chain that needs only the scalar of its
    last factor gets the same bits as the full product would.
    """
    return (a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3]
            - a[4] * b[4] - a[5] * b[5] - a[6] * b[6] + a[7] * b[7])


def _product(a, b, lam: int, out) -> None:
    """Write the product of a and b under tag lam into out[0..7].

    a, b and out are indexed by slot; each entry is a float or an array, so
    the single and the batched product run this same expression. The cross
    terms of every blade pair {mu, nu} are summed together before being
    folded into the accumulator.
    """
    out[0] = product_scalar(a, b)
    for rho in range(1, 8):
        acc = a[0] * b[rho] + a[rho] * b[0]
        for mu, nu, s_fwd, s_rev in _PAIR_ROWS[lam][rho]:
            acc += s_fwd * a[mu] * b[nu] + s_rev * a[nu] * b[mu]
        out[rho] = acc


def mv_mul(x: Multivector, y: Multivector) -> Multivector:
    """Geometric product. Both operands must carry the same orientation tag.

    Pair-grouped summation makes the antisymmetric contributions of a
    product X * X cancel exactly in floating point, so squares of pair-built
    elements come out with a bitwise-zero non-scalar part.
    """
    if x.lam != y.lam:
        raise OrientationMismatch(
            "product needs matching orientation tags, got %+d and %+d"
            % (x.lam, y.lam)
        )
    out = np.empty(8)
    _product(x.coeffs.tolist(), y.coeffs.tolist(), x.lam, out)
    return Multivector(out, x.lam)


def mul_batch(xs: np.ndarray, ys: np.ndarray, lam: int) -> np.ndarray:
    """Row-wise geometric product of two (n, 8) coefficient arrays.

    Runs the same pair-grouped expression as mv_mul on whole columns, so
    every row is bitwise equal to mv_mul of that row's pair.
    """
    lam = _check_lam(lam)
    out = np.empty((xs.shape[0], 8))
    _product(xs.T, ys.T, lam, out.T)
    return out


def mv_reverse(x: Multivector) -> Multivector:
    """Reversal anti-automorphism: flips blades 1..6, fixes 0 and 7."""
    return Multivector(x.coeffs * _REVERSE_SIGNS, x.lam)


def mv_norm(x: Multivector) -> float:
    return float(math.sqrt(float(np.dot(x.coeffs, x.coeffs))))


def scalar_part(x: Multivector) -> float:
    return float(x.coeffs[0])


def commutator(x: Multivector, y: Multivector) -> Multivector:
    """Half the product difference, (xy - yx) / 2."""
    d = mv_mul(x, y) - mv_mul(y, x)
    return Multivector(d.coeffs * 0.5, d.lam)


def quadric_defect(x: Multivector) -> float:
    """The pairing X0*(-X7) + X1*X6 + X2*X5 + X3*X4.

    Zero exactly on the subset of the unit sphere where the norm composes
    multiplicatively under the +1 orientation; products of such elements
    stay on it.
    """
    c = x.coeffs
    return float(-c[0] * c[7] + c[1] * c[6] + c[2] * c[5] + c[3] * c[4])


def is_on_s7(x: Multivector, tol: float = 1e-12) -> bool:
    """Unit norm and vanishing pairing, both within tol."""
    return abs(mv_norm(x) - 1.0) <= tol and abs(quadric_defect(x)) <= tol
