"""Maps between flat 3-space and the unit 3-sphere in R^4.

Two inverse-stereographic charts are provided. stereo_psi sends a point of
R^3 onto the unit sphere centred at the origin (the south pole (0,0,0,-1) is
the image of 0, the north pole the limit at infinity). stereo_phi is the
same chart shifted one unit along the fourth axis, so its image is the unit
sphere centred at (0,0,0,1), passing through the origin. Each chart
returns its image as a (4,) float64 array (x1, x2, x3, x4), or the (n, 4)
stack of the images of an (n, 3) stack of points. |x|^2 is written out
component by component, so an image's bits depend neither on the stack
nor on the BLAS kernel.
"""

from __future__ import annotations

import numpy as np


def stereo_phi(x) -> np.ndarray:
    """Inverse stereographic chart onto the sphere centred at (0,0,0,1).

    phi(x) = (2 x / (|x|^2 + 1),  2 |x|^2 / (|x|^2 + 1)). phi(0) is the
    origin and the limit for |x| -> inf is (0,0,0,2). x is a point (3,),
    which gives a (4,) image, or an (n, 3) stack of them, which gives the
    (n, 4) stack of their images. A point with a component or an |x|^2
    that is not finite is refused, and so is a stack holding one.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != (3,) or x.ndim > 2:
        raise ValueError("a point must be a 3-vector or an (n, 3) stack, "
                         "got shape %s" % (x.shape,))
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    # |x|^2 is not finite for a non-finite point or one whose image is NaN
    with np.errstate(over="ignore"):
        r2 = (x0 * x0 + x1 * x1) + x2 * x2
    if not np.isfinite(r2).all():
        raise ValueError("point components and |x|^2 must be finite")
    s = 2.0 / (r2 + 1.0)
    return np.stack([s * x0, s * x1, s * x2, s * r2], axis=-1)


def stereo_psi(x) -> np.ndarray:
    """Inverse stereographic chart onto the unit sphere at the origin.

    Same vector part as stereo_phi with the fourth coordinate lowered by
    one; the image always has unit norm and psi(0) = (0,0,0,-1). Takes a
    point or a stack of them, as stereo_phi does.
    """
    p = stereo_phi(x)
    p[..., 3] -= 1.0
    return p
