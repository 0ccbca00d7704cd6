"""Event-by-event trial engine for the two- and four-party experiments.

Randomness
----------
All draws come from numpy's PCG64 bit generator. Trials are processed in
batches of a fixed ``BATCH_SIZE`` = 8192 trials; batch ``i`` of a run
seeded with ``s`` uses the stream ``PCG64(SeedSequence(s, spawn_key=(i,)))``,
so results depend only on the seed and the trial count. Every draw is a
uniform from ``Generator.random``: the fair coin is
``+1 if u > 0.5 else -1``, and a random setting is the requested azimuth
``360 u`` degrees, one uniform per party and trial.

Within one batch of n trials the draw order is: n uniforms for the coin,
then ``gen.random((parties, n))``, whose row j holds party j's uniforms.
A run with ``fixed_settings`` cycles through them instead, indexed into the
same party-major ``(parties, n)`` rows, and draws just the coin. Either
way the requested azimuths then take the same path: the four-party map
``_ghz_reflect`` applied in place, ``radians -> cos/sin -> planar_legs`` on
one contiguous row per party, ``_ghz_reflect`` in place once more to turn
the internal azimuths into the reported ones, and the wrap ``_wrap_deg``.
The wrap and the four-party bin key reduce modulo 360 through ``_mod360``,
which gives the bits of ``np.mod`` without its divmod wherever the angle
lies within 720 degrees of zero.

Per trial the engine evaluates the ordered product of the embedded
detector settings, first to last for a +1 coin and last to first for a -1
coin, and records its scalar part as the trial correlation together with
the deterministic outcomes (+coin on first-style wings, -coin on
second-style wings). The four-party run reports its azimuths with the
extraction convention that flips the sign of the first angle and reflects
the fourth (phi_d = 180 - alpha_d), matching the sum convention
Phi = phi_a + phi_b - phi_c - phi_d under which the correlation is -cos Phi.

Each batch is split by coin before embedding: every party's planar (x, y)
components are gathered for the trials of one coin and placed into
per-slot lists, with None in the four slots a planar detector leaves zero.
The chain then runs ``algebra._product`` under term plans that skip every
term with a None factor, so each product touches only the slots that can
be nonzero. A skipped term can turn an exact-zero correlation into -0.0
where the written expression gives 0.0, so ``corr`` is normalised by
adding 0.0, which makes every exact zero +0.0.

Runs
----
``_batches`` is the one batch generator: it computes a run's batches one
at a time, in order, on the calling thread, so memory stays bounded however
many trials the run has. Two consumers share it. ``stream_trials`` feeds
each batch to the summary tally (``_Tally``) and, given a file, appends the
batch's CSV rows as the batch arrives; it keeps no trial column. The
simulated four-term scan adds up each grid point's batch sums as they come.
The tally adds each correlation into its bin with ``np.add.at`` in trial
order, which gives the same bits as one ``bincount`` over the whole run,
and takes the outcome means from the exact integer sum of the coins.
The summary is a plain dict, the JSON object the CLI writes; its keys are
written once, in ``_Tally.summary``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import IO, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence

from .algebra import (
    SCALAR, _check_lam, _product, mv_mul, place_legs, term_plan,
    zero_slots,
)
from .errors import ConfigError, EmptyInput
from .spin import planar_legs

BATCH_SIZE = 8192

_PARTIES = {"epr": ("A", "B"), "ghz": ("A", "B", "C", "D")}
# sign of the outcome relative to the coin, per party
_OUTCOME_SIGNS = {"epr": (1, -1), "ghz": (1, -1, 1, -1)}


# ---------------------------------------------------------------------------
# randomness

def batch_stream(seed: int, batch_index: int) -> Generator:
    """The generator that owns every draw of one batch."""
    return Generator(PCG64(SeedSequence(seed, spawn_key=(batch_index,))))


def _flip_batch(gen: Generator, n: int) -> np.ndarray:
    """n fair-coin orientation draws."""
    return np.where(gen.random(n) > 0.5, 1, -1).astype(np.int64)


# ---------------------------------------------------------------------------
# configuration and results

_KIND_NAMES = {numbers.Integral: "an integer", numbers.Real: "a real number"}


def _check_kind(value, kind: type, what: str) -> None:
    """Refuse a bool, or any value that is not an instance of ``kind``."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(
            "%s must be %s, got %r" % (what, _KIND_NAMES[kind], value))


@dataclass(frozen=True)
class TrialConfig:
    """Validated description of one run.

    A run with ``fixed_settings`` cycles through those setting tuples; a
    run without them draws every setting.
    """

    trials: int
    seed: int
    mode: str = "epr"
    fixed_settings: tuple = ()
    bin_width_deg: float = 5.0

    def __post_init__(self):
        if not isinstance(self.mode, str) or self.mode not in _PARTIES:
            raise ConfigError("mode must be 'epr' or 'ghz'")
        for name in ("trials", "seed"):
            value = getattr(self, name)
            _check_kind(value, numbers.Integral, name)
            # numpy integers are stored as int, so summaries stay JSON
            object.__setattr__(self, name, int(value))
        if self.trials < 1:
            raise ConfigError("trials must be a positive integer")
        if not (0 <= self.seed < 2 ** 64):
            raise ConfigError("seed must fit in 64 bits")
        try:
            fixed = tuple(tuple(tup) for tup in self.fixed_settings)
        except TypeError:
            raise ConfigError("fixed settings must be a sequence of angle "
                              "tuples, got %r" % (self.fixed_settings,))
        # stored as tuples, so the frozen config hashes
        object.__setattr__(self, "fixed_settings", fixed)
        want = len(_PARTIES[self.mode])
        for tup in fixed:
            if len(tup) != want:
                raise ConfigError(
                    "each fixed setting needs %d angles, got %r" % (want, tup)
                )
            for v in tup:
                _check_kind(v, numbers.Real, "fixed setting angle")
            if not all(math.isfinite(float(v)) for v in tup):
                raise ConfigError(
                    "fixed setting angles must be finite, got %r" % (tup,)
                )
        _check_kind(self.bin_width_deg, numbers.Real, "bin width")
        # the summary holds ceil(360 / width) bins; 0.01 caps it at 36000
        if not (0.01 <= float(self.bin_width_deg) <= 360.0):
            raise ConfigError("bin width must be in [0.01, 360] degrees")


def _angle_keys(mode: str, phis_deg: np.ndarray) -> np.ndarray:
    """The angle each trial is binned under, in [0, 360).

    Two parties: |phi_b - phi_a|. Four parties: the alternating sum folded
    by its 360 degree period so the high-|Phi| tails do not starve.
    """
    if mode == "epr":
        return np.abs(phis_deg[:, 1] - phis_deg[:, 0])
    s = phis_deg[:, 0] + phis_deg[:, 1] - phis_deg[:, 2] - phis_deg[:, 3]
    return _mod360(s)


class _Tally:
    """The summary of a run, fed its trials batch by batch in order.

    It keeps the binned correlation sums and counts and the coin sum.
    ``np.add.at`` adds each correlation into its bin in trial order, as one
    ``bincount`` over the whole run does, so the bits do not depend on how
    the run was batched. Each party's outcome is its sign times the coin,
    so the coin sum gives every outcome mean exactly.
    """

    def __init__(self, cfg: TrialConfig):
        self.cfg = cfg
        self.width = float(cfg.bin_width_deg)
        nbins = int(math.ceil(360.0 / self.width))
        self.counts = np.zeros(nbins, dtype=np.int64)
        self.sums = np.zeros(nbins)
        self.lam_sum = 0

    def add(self, lam: np.ndarray, phis: np.ndarray,
            corr: np.ndarray) -> None:
        nbins = len(self.counts)
        keys = _angle_keys(self.cfg.mode, phis)
        idx = np.minimum((keys / self.width).astype(np.int64), nbins - 1)
        self.counts += np.bincount(idx, minlength=nbins)
        np.add.at(self.sums, idx, corr)
        self.lam_sum += int(lam.sum())

    def centre(self, i: int) -> float:
        """The angle bin i is reported at: the middle of its key range,
        which for the last bin stops at 360 when the width does not
        divide 360."""
        last = len(self.counts) - 1
        if i == last and 360.0 / self.width != last + 1:
            return 0.5 * (i * self.width + 360.0)
        return (i + 0.5) * self.width

    def summary(self) -> dict:
        """The run's summary as its JSON object, keys in output order."""
        cfg, counts, sums = self.cfg, self.counts, self.sums
        return {
            "trials": cfg.trials,
            "seed": cfg.seed,
            "bin_width_deg": self.width,
            "bins": [
                {"angle_deg": self.centre(i),
                 "mean_corr": float(sums[i] / counts[i]),
                 "count": int(counts[i])}
                for i in np.flatnonzero(counts).tolist()
            ],
            "ave_outcomes": {name: s * self.lam_sum / cfg.trials
                             for name, s in zip(_PARTIES[cfg.mode],
                                                _OUTCOME_SIGNS[cfg.mode])},
            "mode": cfg.mode,
        }


# ---------------------------------------------------------------------------
# products

def paired_product(detectors: Sequence[np.ndarray], lam: int) -> np.ndarray:
    """Ordered product of (8,) detector rows under the trial orientation.

    Every product is taken under the tag lam; the rows are left as they
    are. A +1 coin multiplies in the order given, a -1 coin in the fully
    reversed order. The product comes back as an (8,) row.
    """
    if len(detectors) < 2:
        raise EmptyInput("paired_product needs at least two detectors")
    lam = _check_lam(lam)
    elems = list(detectors)
    if lam == -1:
        elems.reverse()
    acc = elems[0]
    for e in elems[1:]:
        acc = mv_mul(acc, e, lam)
    return acc


def _chain_scalar(factors: list[list], lam: int) -> np.ndarray:
    """Scalar of the ordered product of per-slot factors under tag lam.

    Each product runs the plan of its operands' structurally zero slots,
    and the last one evaluates only the scalar row.
    """
    acc = factors[0]
    for k, nxt in enumerate(factors[1:], 2):
        plan = term_plan(lam, zero_slots(acc), zero_slots(nxt),
                         scalar_only=k == len(factors))
        out = [None] * len(acc)
        _product(acc, nxt, plan, out)
        acc = out
    return acc[SCALAR]


def _mod360(x: np.ndarray) -> np.ndarray:
    """``np.mod(x, 360.0)`` bit for bit, without its divmod where |x| < 720.

    There ``x / 360`` is correctly rounded and cannot cross an integer, so
    its floor q is exact, and ``x - 360 q`` is the single rounding of the
    sum that ``np.mod`` forms from the exact ``fmod``. A negative x so small
    that ``x / 360`` underflows to -0.0 is left negative; it and every
    other input go to ``np.mod``.
    """
    if x.size and -720.0 < x.min() and x.max() < 720.0:
        r = np.floor(x / 360.0)
        r *= -360.0
        r += x
        if r.min() >= 0.0:
            return r
    return np.mod(x, 360.0)


def _wrap_deg(a: np.ndarray) -> np.ndarray:
    """Wrap into (-180, 180]."""
    return 180.0 - _mod360(180.0 - a)


def _planar_slots(x: np.ndarray, y: np.ndarray) -> list:
    """Per-slot legs of the planar pairs for unit directions (x, y), with
    None in the structurally zero slots."""
    (rx, ry, _), (dx, dy, _) = planar_legs(x, y)
    return place_legs([None] * 8, (rx, ry, None), (dx, dy, None))


def _ghz_reflect(rows: np.ndarray) -> None:
    """The four-party azimuth map phi_a -> -phi_a, phi_d -> 180 - phi_d,
    applied in place to the party rows of a (4, n) array.

    It takes internal azimuths to the reported ones of the extraction
    convention and, being its own inverse, requested angles to internal.
    """
    np.negative(rows[0], out=rows[0])
    np.subtract(180.0, rows[3], out=rows[3])


class _Batch(NamedTuple):
    start: int              # index of the batch's first trial in the run
    lam: np.ndarray         # (n,) coins
    phis: np.ndarray        # (n, parties) reported azimuths in degrees
    corr: np.ndarray        # (n,) trial correlations


def _run_batch(cfg: TrialConfig, batch_index: int) -> _Batch:
    start = batch_index * BATCH_SIZE
    n = min(BATCH_SIZE, cfg.trials - start)
    gen = batch_stream(cfg.seed, batch_index)
    lam = _flip_batch(gen, n)
    parties = len(_PARTIES[cfg.mode])
    ghz = cfg.mode == "ghz"

    # requested azimuths, one contiguous row per party
    if cfg.fixed_settings:
        tuples = np.array(cfg.fixed_settings, dtype=np.float64).T
        angles = tuples[:, (start + np.arange(n)) % tuples.shape[1]]
    else:
        angles = gen.random((parties, n))
        angles *= 360.0
    if ghz:
        _ghz_reflect(angles)                # requested -> internal
    # one radian row alive at a time
    comps = [(np.cos(r), np.sin(r)) for r in map(np.radians, angles)]

    corr = np.empty(n)
    for sign in (1, -1):
        idx = np.flatnonzero(lam == sign)
        if idx.size:
            factors = [_planar_slots(x[idx], y[idx]) for x, y in comps]
            # a -1 coin multiplies last to first
            corr[idx] = _chain_scalar(factors[::sign], sign)
    # a pruned term can leave -0.0 where the written expression gives 0.0
    corr += 0.0
    if ghz:
        _ghz_reflect(angles)                # internal -> reported
    return _Batch(start, lam, _wrap_deg(angles).T, corr)


def _batches(cfg: TrialConfig) -> Iterator[_Batch]:
    """Every batch of the run, computed one at a time in order."""
    nbatches = (cfg.trials + BATCH_SIZE - 1) // BATCH_SIZE
    return (_run_batch(cfg, i) for i in range(nbatches))


def _csv_header(mode: str) -> str:
    names = _PARTIES[mode]
    return ",".join(["k", "lambda"] + ["phi_%s" % p.lower() for p in names]
                    + list(names) + ["corr"]) + "\r\n"


def _csv_rows(mode: str, batch: _Batch) -> str:
    """One CRLF-terminated CSV row per trial of the batch.

    Integers print with ``str`` and floats with ``repr`` (shortest
    round-trip text). Each column is converted once; an outcome is the
    party's sign times the coin, so every outcome column is the coin column
    or its negation.
    """
    stop = batch.start + len(batch.corr)
    plus = list(map(str, batch.lam.tolist()))
    minus = list(map(str, (-batch.lam).tolist()))
    cols = [map(str, range(batch.start, stop)), plus]
    cols += [map(repr, c.tolist()) for c in batch.phis.T]
    cols += [plus if s > 0 else minus for s in _OUTCOME_SIGNS[mode]]
    cols.append(map(repr, batch.corr.tolist()))
    return "\r\n".join(map(",".join, zip(*cols))) + "\r\n"


def stream_trials(cfg: TrialConfig, csv_file: IO[str] | None = None) -> dict:
    """Run ``cfg`` batch by batch and return its summary, the dict of
    ``_Tally.summary`` that the CLI writes as JSON.

    When ``csv_file`` is an open text file (opened with ``newline=""``),
    the header and then each batch's rows are written to it as the batch
    arrives. No trial column is kept, so memory does not grow with the
    trial count.
    """
    tally = _Tally(cfg)
    if csv_file is not None:
        csv_file.write(_csv_header(cfg.mode))
    for batch in _batches(cfg):
        tally.add(batch.lam, batch.phis, batch.corr)
        if csv_file is not None:
            csv_file.write(_csv_rows(cfg.mode, batch))
    return tally.summary()


# ---------------------------------------------------------------------------
# four-term scans

def _pair_expectation_simulated(deltas_deg: np.ndarray, seed: int,
                                trials_per_setting: int) -> np.ndarray:
    """Simulated E(delta) on a grid of separations, one mini-run each.

    Each run streams: its mean is the in-order sum of its batch sums over
    the trial count, which for a single batch is bitwise ``corr.mean()``.
    """
    out = np.empty(len(deltas_deg))
    for i, d in enumerate(deltas_deg):
        cfg = TrialConfig(
            trials=trials_per_setting, seed=seed, mode="epr",
            fixed_settings=((0.0, float(d)),),
            bin_width_deg=360.0,
        )
        out[i] = sum(b.corr.sum() for b in _batches(cfg)) / cfg.trials
    return out


def chsh_scan(grid_deg: float = 5.0, source: str = "analytic",
              seed: int = 0, trials_per_setting: int = 64) -> dict:
    """Scan the four-term combination over a planar grid of settings.

    The pair correlation depends only on angle differences, so the first
    setting is pinned to zero and the other three sweep the grid; reported
    angles are absolute with that convention. Returns the extreme value,
    where it sits, and the grid. The step must divide 360 degrees, since
    the differences are taken around the closed circle of grid points.

    For each a', S[b, b'] = ((E(a,b) + E(a,b')) + E(a',b)) - E(a',b') is
    u[b] + v[b'] with u = E(a,.) + E(a',.) and v = E(a,.) - E(a',.), up to
    rounding. So only the rows and columns within a rounding tolerance of
    the extremes of u and v can hold the largest |S|; those are evaluated
    in the written term order, and an a' whose bound cannot beat the best
    so far is skipped. The result, ties included, is that of the full
    (ng, ng) table scanned row-major, with a later a' winning only when
    strictly larger, in O(ng) memory.
    """
    # at most 3600 grid points per axis
    if not (0.1 <= grid_deg <= 90.0):
        raise ConfigError("grid step must be in [0.1, 90] degrees")
    if source not in ("analytic", "simulated"):
        raise ConfigError("source must be 'analytic' or 'simulated'")
    # checked for either source, as a run checks them
    TrialConfig(trials=trials_per_setting, seed=seed)
    grid = np.arange(0.0, 360.0, float(grid_deg))
    ng = len(grid)
    if abs(ng * grid_deg - 360.0) > 1e-9:
        raise ConfigError("grid step must divide 360 degrees")
    if source == "analytic":
        e = -np.cos(np.radians(grid))
    else:
        e = _pair_expectation_simulated(grid, seed, trials_per_setting)
    e2 = np.concatenate((e, e))
    # S in the written order is within 6.5 eps max|e| of u[b] + v[b'], so a
    # winning row or column lies within 13 eps max|e| of the extreme; 32
    # eps also covers rounding the thresholds and the bound
    tol = 32.0 * np.finfo(np.float64).eps * float(np.abs(e).max())
    best_abs = -1.0
    for iap in range(ng):
        r = e2[ng - iap:2 * ng - iap]        # E(a', .), np.roll(e, iap)
        u = e + r
        v = e - r
        u_hi, u_lo, v_hi, v_lo = u.max(), u.min(), v.max(), v.min()
        if max(u_hi + v_hi, -(u_lo + v_lo)) + tol <= best_abs:
            continue
        rows = np.flatnonzero((u >= u_hi - tol) | (u <= u_lo + tol))
        cols = np.flatnonzero((v >= v_hi - tol) | (v <= v_lo + tol))
        step = max(1, ng // len(cols))       # at most ng entries at a time
        for start in range(0, len(rows), step):
            rb = rows[start:start + step, None]
            s = ((e[rb] + e[cols]) + r[rb]) - r[cols]
            k = int(np.abs(s).argmax())
            if abs(s.flat[k]) > best_abs:
                ib, ibp = divmod(k, len(cols))
                best_abs = float(abs(s.flat[k]))
                best_val = float(s.flat[k])
                best = (0.0, float(grid[iap]), float(grid[rb[ib, 0]]),
                        float(grid[cols[ibp]]))
    return {
        "grid_deg": float(grid_deg),
        "source": source,
        "max_abs_S": best_abs,
        "S_at_max": best_val,
        "argmax_deg": {"a": best[0], "a_prime": best[1],
                       "b": best[2], "b_prime": best[3]},
    }
