"""Orientation-tagged eight-blade algebra and its correlation experiments.

The package splits into focused layers:

``algebra``
    The eight-component product, orientation tags, norms and the closure
    quadric.
``conformal``
    Stereographic lifts of 3-space onto the unit sphere in four dimensions,
    returned as arrays of four coordinates.
``spin``
    Measurement settings as leg tuples (n_r, n_d), their one embedding as
    algebra elements, source elements, measurement outcomes, source-axis
    transport.
``oracle``
    Closed-form expectations the simulations are judged against.
``engine``
    Batched, seeded event-by-event runs, streamed batch by batch into a
    summary dict, plus the four-term scan.
``checks``
    The self-test suites behind ``septenary check``.
"""

from .algebra import (
    BLADE_NAMES,
    Multivector,
    basis_product,
    mv_mul,
    mv_norm,
    quadric_defect,
    scalar_part,
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
    OrientationMismatch,
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
    spin_state,
)

__version__ = "0.1.0"

__all__ = [
    "ArityUnsupported",
    "BLADE_NAMES",
    "ConfigError",
    "DegenerateInput",
    "EmptyInput",
    "Multivector",
    "OrientationMismatch",
    "SeptenaryError",
    "TrialConfig",
    "basis_product",
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
    "scalar_part",
    "spin_state",
    "stereo_phi",
    "stereo_psi",
    "stream_trials",
]
