"""Maps between flat 3-space and the unit 3-sphere in R^4.

Two inverse-stereographic charts are provided. stereo_psi sends a point of
R^3 onto the unit sphere centred at the origin (the south pole (0,0,0,-1) is
the image of 0, the north pole the limit at infinity). stereo_phi is the
same chart shifted one unit along the fourth axis, so its image is the unit
sphere centred at (0,0,0,1), passing through the origin. Each chart
returns its image as a (4,) float64 array (x1, x2, x3, x4).
"""

from __future__ import annotations

import numpy as np


def _as_vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64).reshape(3)
    if not np.isfinite(v).all():
        raise ValueError("vector components must be finite")
    return v


def stereo_phi(x) -> np.ndarray:
    """Inverse stereographic chart onto the sphere centred at (0,0,0,1).

    phi(x) = (2 x / (|x|^2 + 1),  2 |x|^2 / (|x|^2 + 1)). phi(0) is the
    origin and the limit for |x| -> inf is (0,0,0,2).
    """
    x = _as_vec3(x)
    r2 = float(x @ x)
    s = 2.0 / (r2 + 1.0)
    return np.append(s * x, s * r2)


def stereo_psi(x) -> np.ndarray:
    """Inverse stereographic chart onto the unit sphere at the origin.

    Same vector part as stereo_phi with the fourth coordinate lowered by
    one; the image always has unit norm and psi(0) = (0,0,0,-1).
    """
    p = stereo_phi(x)
    p[3] -= 1.0
    return p
