"""Orientation-tagged eight-blade algebra and its correlation experiments.

The package splits into focused layers:

``algebra``
    The eight-component product of coefficient rows and stacks under an
    orientation tag, norms and the closure quadric.
``conformal``
    Stereographic lifts of 3-space onto the unit sphere in four dimensions,
    returned as arrays of four coordinates.
``spin``
    Measurement settings as leg tuples (n_r, n_d), their one embedding as
    coefficient rows, measurement outcomes, source-axis transport.
``oracle``
    Closed-form expectations the simulations are judged against.
``engine``
    Batched, seeded event-by-event runs, streamed batch by batch into a
    summary dict, plus the four-term scan.
``checks``
    The self-test suites behind ``septenary check``.
"""

import os

# No command makes a BLAS call, so OpenBLAS's idle worker threads would
# only burn CPU; this must run before numpy is first imported. A setting
# of the user's own wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .algebra import (
    mv_mul,
    mv_norm,
    quadric_defect,
)
from .conformal import stereo_phi, stereo_psi
from .engine import (
    TrialConfig,
    chsh_scan,
    paired_product,
    stream_trials,
)
from .errors import (
    ArityUnsupported,
    ConfigError,
    DegenerateInput,
    EmptyInput,
    SeptenaryError,
)
from .oracle import (
    chsh_bound,
    epr_expectation,
    ghz_direction_expectation,
    ghz_expectation,
    ghz_role_scalar_part,
    nfold_scalar_part,
)
from .spin import (
    detector,
    make_pair_general,
    make_pair_ghz,
    make_pair_planar,
    measure,
    recover_source_axis,
)

__version__ = "0.1.0"

__all__ = [
    "ArityUnsupported",
    "ConfigError",
    "DegenerateInput",
    "EmptyInput",
    "SeptenaryError",
    "TrialConfig",
    "chsh_bound",
    "chsh_scan",
    "detector",
    "epr_expectation",
    "ghz_direction_expectation",
    "ghz_expectation",
    "ghz_role_scalar_part",
    "make_pair_general",
    "make_pair_ghz",
    "make_pair_planar",
    "measure",
    "mv_mul",
    "mv_norm",
    "nfold_scalar_part",
    "paired_product",
    "quadric_defect",
    "recover_source_axis",
    "stereo_phi",
    "stereo_psi",
    "stream_trials",
]
