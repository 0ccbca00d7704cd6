"""Event-by-event trial engine for the two- and four-party experiments.

A run is processed in batches of ``BATCH_SIZE`` = 8192 trials. Batch ``i``
of a run seeded with ``s`` takes every draw from the numpy PCG64 stream
``PCG64(SeedSequence(s, spawn_key=(i,)))``, so results depend only on the
seed and the trial count. ``_run_batch`` computes a batch in four stages:
``_draw`` the coins and the requested azimuths, ``_embed`` each setting as
a detector, ``_chain`` each trial's ordered product to its scalar, the
trial correlation, and ``_report`` the azimuths. ``_Tally.add`` reduces
the batches into the summary and ``_csv_rows`` writes them out. A trial's
outcomes follow from its coin: +coin on first-style wings, -coin on
second-style wings.

Runs
----
``stream_trials`` computes the batches in order in the calling process and
hands each one to ``_Tally.add`` and, with a file, to ``_csv_rows``. It
keeps no trial column, so memory stays bounded however many trials the run
has, and no byte depends on the CPUs the run may use. With a file, the CSV
text is most of the run (0.15 of 0.18 s for a 2e5-trial epr run on one
core).
"""

from __future__ import annotations

import functools
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
        # the bin counts and the cycled setting index are int64
        if self.trials >= 2 ** 63:
            raise ConfigError("trials must be below 2**63")
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

    @functools.cached_property
    def _fixed_rows(self) -> np.ndarray:
        """The fixed setting tuples as party-major rows, (parties, count)."""
        return np.array(self.fixed_settings, dtype=np.float64).T


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
    """The summary of a run, fed its batches in order.

    It keeps the binned correlation sums and counts and the coin sum.
    ``np.add.at`` adds each correlation into its bin in trial order, as one
    ``bincount`` over the whole run does, so the bits do not depend on how
    the run was batched. Each party's outcome is its sign times the coin,
    so the coin sum gives every outcome mean exactly.
    """

    def __init__(self, cfg: TrialConfig):
        self.cfg = cfg
        self.width = float(cfg.bin_width_deg)
        nbins = math.ceil(360.0 / self.width)
        self.counts = np.zeros(nbins, dtype=np.int64)
        self.sums = np.zeros(nbins)
        self.lam_sum = 0

    def add(self, batch: _Batch) -> None:
        # a key lies in [0, 360], so key / width is at most 36000 and the
        # bin index fits a uint16
        keys = _angle_keys(self.cfg.mode, batch.phis)
        idx = np.minimum((keys / self.width).astype(np.uint16),
                         len(self.counts) - 1)
        self.counts += np.bincount(idx, minlength=len(self.counts))
        np.add.at(self.sums, idx, batch.corr)
        self.lam_sum += int(batch.lam.sum())

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
    reversed order. The product comes back as an (8,) row, whose scalar
    the engine's untagged chains give bit for bit.
    """
    if len(detectors) < 2:
        raise EmptyInput("paired_product needs at least two detectors")
    lam = _check_lam(lam)
    elems = list(detectors)[::lam]          # a -1 coin: last to first
    acc = elems[0]
    for e in elems[1:]:
        acc = mv_mul(acc, e, lam)
    return acc


def _mod360(x: np.ndarray) -> np.ndarray:
    """``np.mod(x, 360.0)`` bit for bit, without its divmod where |x| < 720.

    There ``x / 360`` is correctly rounded and cannot cross an integer, so
    its floor q is exact, and ``x - 360 q`` is the single rounding of the
    sum that ``np.mod`` forms from the exact ``fmod``. A negative x so small
    that ``x / 360`` underflows to -0.0 is left negative; it and every
    other input go to ``np.mod``.
    """
    if x.size and -720.0 < x.min() and x.max() < 720.0:
        r = x / 360.0
        np.floor(r, out=r)
        r *= -360.0
        r += x
        if r.min() >= 0.0:
            return r
    return np.mod(x, 360.0)


def _wrap_deg(a: np.ndarray) -> np.ndarray:
    """Wrap into (-180, 180]."""
    r = _mod360(180.0 - a)
    return np.subtract(180.0, r, out=r)


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


def _draw(cfg: TrialConfig, batch_index: int) -> tuple:
    """The batch's coins and its requested azimuths in degrees, one row per
    party. The stream gives n uniforms for the coins and then
    ``random((parties, n))``, row j holding party j's uniforms u, each the
    azimuth 360 u. A run with ``fixed_settings`` draws just the coins and
    cycles through its tuples into the same party-major rows."""
    start = batch_index * BATCH_SIZE
    n = min(BATCH_SIZE, cfg.trials - start)
    gen = batch_stream(cfg.seed, batch_index)
    lam = _flip_batch(gen, n)
    if cfg.fixed_settings:
        rows = cfg._fixed_rows              # indexing copies the rows
        return lam, rows[:, (start + np.arange(n)) % rows.shape[1]]
    angles = gen.random((len(_PARTIES[cfg.mode]), n))
    angles *= 360.0
    return lam, angles


def _embed(mode: str, angles: np.ndarray, lam: np.ndarray) -> list:
    """The batch's detectors in the order each trial multiplies them, as
    per-slot legs with None in the four slots a planar detector leaves
    zero: factor k of a trial is party k's detector, or party P-1-k's where
    its coin is -1, which multiplies last to first. A four-party run maps
    the requested azimuths to internal ones in place first."""
    if mode == "ghz":
        _ghz_reflect(angles)                # requested -> internal
    factors = []
    # one factor's radians, cos and sin alive at a time
    for k in range(len(angles)):
        r = np.radians(np.where(lam < 0, angles[-1 - k], angles[k]))
        (rx, ry, _), (dx, dy, _) = planar_legs(np.cos(r), np.sin(r))
        factors.append(place_legs([None] * 8, (rx, ry, None), (dx, dy, None)))
    return factors


def _chain(factors: list) -> np.ndarray:
    """The trial correlations, the scalar of each trial's ordered product.

    Each product runs the plan of its operands' structurally zero slots,
    and the last one evaluates only the scalar row. Every chain runs under
    the +1 table: the -1 product mirrors its factors, which negates a
    detector (slots 1..6), and mirrors the result back, which keeps the
    scalar (see ``algebra``), so a chain of 2 or 4 negated factors has the
    same scalar term by term up to the sign of an exact zero. Adding 0.0
    makes every exact zero +0.0, also where a skipped term leaves -0.0 for
    the written expression's 0.0."""
    acc = factors[0]
    for k, nxt in enumerate(factors[1:], 2):
        plan = term_plan(zero_slots(acc), zero_slots(nxt),
                         scalar_only=k == len(factors))
        out = [None] * len(acc)
        _product(acc, nxt, plan, out)
        acc = out
    return np.add(acc[SCALAR], 0.0, out=acc[SCALAR])


def _report(mode: str, angles: np.ndarray) -> np.ndarray:
    """The reported azimuths, (n, parties), wrapped into (-180, 180]. A
    four-party run reports in the extraction convention of ``_ghz_reflect``,
    under which the correlation is -cos(phi_a + phi_b - phi_c - phi_d)."""
    if mode == "ghz":
        _ghz_reflect(angles)                # internal -> reported
    return _wrap_deg(angles).T


def _run_batch(cfg: TrialConfig, batch_index: int) -> _Batch:
    lam, angles = _draw(cfg, batch_index)
    # factors stays bound until the batch returns (see stream_trials)
    factors = _embed(cfg.mode, angles, lam)
    corr = _chain(factors)
    return _Batch(batch_index * BATCH_SIZE, lam, _report(cfg.mode, angles),
                  corr)


def _batches(cfg: TrialConfig) -> Iterator[_Batch]:
    """Every batch of the run, computed one at a time in order."""
    count = (cfg.trials + BATCH_SIZE - 1) // BATCH_SIZE
    return (_run_batch(cfg, i) for i in range(count))


def _csv_header(mode: str) -> str:
    names = _PARTIES[mode]
    return ",".join(["k", "lambda"] + ["phi_%s" % p.lower() for p in names]
                    + list(names) + ["corr"]) + "\r\n"


# 10**0 .. 10**22, every one an exact double, and Dekker's split of each
# into two halves of at most 26 significant bits
_TENS = np.cumprod(np.r_[1.0, np.full(22, 10.0)])
_TENS_HI = _TENS * 134217729.0
_TENS_HI -= _TENS_HI - _TENS
_TENS_LO = _TENS - _TENS_HI
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_ROWS = np.arange(18, dtype=np.uint8)[:, None]
_LEAD = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]


def _digit_rows(v: np.ndarray, width: int) -> np.ndarray:
    """The ASCII digits of each int64 v in [0, 10**width), (width, n),
    most significant first, zero padded. Each chunk of nine digits is an
    int32 divided by every power of ten once."""
    out = np.empty((width, len(v)), dtype=np.uint8)
    for end in range(width, 0, -9):
        chunk = (v % _POW10[9]).astype(np.int32)
        v = v // _POW10[9]
        prev = None
        for row in range(max(end - 9, 0), end):
            q = chunk // np.int32(_POW10[end - 1 - row])
            out[row] = q if prev is None else q - 10 * prev
            prev = q
    out += ord("0")
    return out


def _int_text(v: np.ndarray) -> np.ndarray:
    """``str`` of each non-negative int64, (n, w) NUL-padded ASCII."""
    width = len(str(int(v.max())))
    rows = _digit_rows(v, width)
    np.copyto(rows[:-1], 0, where=_POW10[width - 1:0:-1, None] > v)
    return rows.T


def _shortest(a: np.ndarray, bits: np.ndarray) -> tuple:
    """The shortest decimal that reads back as each double a, for a in
    [1e-4, 1e16) with raw bits ``bits``: (v, j, k), where the decimal is
    v 10**-k, v is a 17-digit integer and a multiple of 10**j, and j is as
    large as it can be.

    v is taken from the integers within half an ulp of a, scaled by 10**k
    so that a 10**k lies in [1e16, 1e17): [lo, hi]. Dekker's product gives
    a 10**k exactly as an integer y and a fraction f. Of the multiples of
    the largest 10**j among them, v is the one nearest y + f, the even one
    on a tie, as ``repr`` picks (Steele and White's shortest output).

    Two details of the reals that round to a move no digit in this domain,
    so they are left out. An end of the interval belongs to it iff a's
    significand is even, but an end is an integer only where a >= 2**52,
    and there y is itself a multiple of 10 and no end is one of 100. Below
    a power of two the interval reaches only a quarter ulp, but no shorter
    decimal lies in the quarter left out: the tests try every power of two
    in the domain.
    """
    exp = ((bits >> 52) & 0x7FF) - 1022         # a = m 2**exp, m in [1/2, 1)
    # floor(log10 a) is this or one more
    k = 16 - np.floor((exp - 1) * math.log10(2.0)).astype(np.intp)
    k -= a * _TENS[k] >= 1e17
    t = _TENS[k]
    y = a * t
    split = a * 134217729.0
    ah = split - (split - a)
    al = a - ah
    th, tl = _TENS_HI[k], _TENS_LO[k]
    f = ((ah * th - y) + ah * tl + al * th) + al * tl   # a t - y, exactly
    whole = np.floor(f)
    f -= whole
    y = y.astype(np.int64) + whole.astype(np.int64)
    half = np.ldexp(t, exp - 54)                # exact, as are f -+ half
    lo = y + np.ceil(f - half).astype(np.int64)
    hi = y + np.floor(f + half).astype(np.int64)
    # 10**0: half exceeds 1/2, so the nearest integer is inside
    v = y + ((f > 0.5) | ((f == 0.5) & (y & 1 == 1)))
    # an interval has a multiple of 10**j only if it has one of
    # 10**(j - 1); past 10**1 it has at most one, as hi - lo < 23
    live = np.flatnonzero(hi // 10 > (lo - 1) // 10)
    j = np.zeros(len(a), dtype=np.intp)
    j[live] = 1
    for jj in range(2, 18):
        top = hi[live] // _POW10[jj]
        ok = top > (lo[live] - 1) // _POW10[jj]
        live = live[ok]
        if not len(live):
            break
        j[live] = jj
        v[live] = top[ok] * _POW10[jj]
    # 10**1 can have up to three multiples inside; the interval is
    # symmetric, so the multiple of 10 nearest y + f is one of them
    tens = np.flatnonzero(j == 1)
    q, r = np.divmod(y[tens], 10)
    carry = (r > 5) | ((r == 5) & ((f[tens] > 0) | (q & 1 == 1)))
    v[tens] = 10 * (q + carry)
    return v, j, k


def _float_text(x: np.ndarray) -> np.ndarray:
    """``repr`` of each float64 of x, (n, 24) NUL-padded ASCII: remove the
    NULs of a row to read its text.

    Each distinct bit pattern is formatted once (-0.0 is not 0.0); a
    column without repeats needs no gather back. A value in [1e-4, 1e16)
    is written by ``repr``'s fixed-notation rule from the digits of
    ``_shortest``: a sign, the digits with the decimal point placed, "0."
    and zeros before a point at or left of the first digit, and ".0" after
    an integer. Every other value takes ``repr`` itself.
    """
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.int64)
    inv = None
    order = np.sort(bits)
    if (order[1:] == order[:-1]).any():
        bits, inv = np.unique(bits, return_inverse=True)
    a = np.abs(bits.view(np.float64))
    fast = (a >= 1e-4) & (a < 1e16)
    one = np.float64(1.0).view(np.int64)
    v, j, k = _shortest(np.where(fast, a, 1.0), np.where(fast, bits, one))
    # the layout holds 17 digits and points at -3..16; no value of the
    # domain is known to leave them, but one that did would take repr
    fast &= (v < _POW10[17]) & (v >= _POW10[16]) & (k >= 1) & (k <= 20)
    point = 17 - k                  # digits before the decimal point
    keep = np.maximum(17 - j, point + 1)
    field = np.zeros((24, len(bits)), dtype=np.uint8)
    field[0] = (bits < 0) * np.uint8(ord("-"))
    np.multiply(_ROWS[:5] < (2 - point) * (point <= 0), _LEAD, out=field[1:6])
    digits = _digit_rows(v, 17)
    digits *= _ROWS[:17] < keep     # trailing zeros go
    body = field[6:]
    body[:17] = digits
    shift = np.where(point > 0, point, 18).astype(np.uint8)
    np.copyto(body[1:], digits, where=_ROWS[1:] > shift)
    # left of the first digit, the point is the one after "0"
    field[np.where(point > 0, 6 + point, 2), np.arange(len(bits))] = ord(".")
    slow = np.flatnonzero(~fast)
    if len(slow):
        text = [repr(s) for s in bits[slow].view(np.float64).tolist()]
        field[:, slow] = np.array(text, dtype="S24").view(np.uint8) \
            .reshape(-1, 24).T
    return (field if inv is None else field[:, inv]).T


def _csv_rows(mode: str, batch: _Batch) -> str:
    """One CRLF-terminated CSV row per trial of the batch.

    Integers print as their ``str`` and floats as their ``repr``, the
    shortest round-trip text, from ``_int_text`` and ``_float_text``. An
    outcome is the party's sign times the coin, so every outcome column is
    the coin column or its negation. The fields, commas and line ends are
    laid side by side in one byte matrix, whose NULs are dropped once.
    """
    n = len(batch.corr)
    coin = np.zeros((n, 2), dtype=np.uint8)
    coin[:, 1] = ord("1")
    flipped = coin.copy()
    coin[:, 0] = (batch.lam < 0) * np.uint8(ord("-"))
    flipped[:, 0] = (batch.lam > 0) * np.uint8(ord("-"))
    fields = [_int_text(np.arange(batch.start, batch.start + n)), coin]
    fields += [_float_text(c) for c in batch.phis.T]
    fields += [coin if s > 0 else flipped for s in _OUTCOME_SIGNS[mode]]
    fields.append(_float_text(batch.corr))
    rows = np.empty((n, sum(f.shape[1] + 1 for f in fields) + 1),
                    dtype=np.uint8)
    col = 0
    for f in fields:
        rows[:, col:col + f.shape[1]] = f
        col += f.shape[1]
        rows[:, col] = ord(",")
        col += 1
    rows[:, col - 1:] = np.frombuffer(b"\r\n", dtype=np.uint8)
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def stream_trials(cfg: TrialConfig, csv_file: IO[str] | None = None) -> dict:
    """Run ``cfg`` batch by batch and return its summary, the dict of
    ``_Tally.summary`` that the CLI writes as JSON.

    When ``csv_file`` is an open text file (opened with ``newline=""``),
    the header and then each batch's rows are written to it in batch
    order.
    """
    tally = _Tally(cfg)
    if csv_file is not None:
        csv_file.write(_csv_header(cfg.mode))
    # glibc trims the heap top when a large block there is freed, and
    # faults it in again: the loop holds each batch, and its CSV text, until
    # the next one exists, and _run_batch its detectors. A ghz --trials
    # 2000000 child takes 5,850 minor faults, 30 more than at 2e5; 63,600
    # if the detectors go once chained. An epr --trials 800000 child with
    # --out /dev/null takes about 26,000 with the text formatted before the
    # tally, 60,000 if the text is written as a temporary
    for batch in _batches(cfg):
        if csv_file is not None:
            rows = _csv_rows(cfg.mode, batch)
        tally.add(batch)
        if csv_file is not None:
            csv_file.write(rows)
    return tally.summary()


# ---------------------------------------------------------------------------
# four-term scans

def _pair_expectation_simulated(deltas_deg: np.ndarray) -> np.ndarray:
    """Simulated E(delta) on a grid of separations: the correlations of one
    engine batch with one trial per separation.

    A two-detector chain has the same scalar under either coin (see
    ``_chain``), so one trial is E bitwise and the seed moves no bit.
    The grid's at most 3600 points fit one batch.
    """
    cfg = TrialConfig(trials=len(deltas_deg), seed=0, mode="epr",
                      fixed_settings=[(0.0, d) for d in deltas_deg])
    (batch,) = _batches(cfg)
    return batch.corr


def chsh_scan(grid_deg: float = 5.0, source: str = "analytic") -> dict:
    """Scan the four-term combination over a planar grid of settings.

    The pair correlation depends only on angle differences, so the first
    setting is pinned to zero and the other three sweep the grid; reported
    angles are absolute with that convention. Returns the extreme value,
    where it sits, and the grid. The step must divide 360 degrees, since
    the differences are taken around the closed circle of grid points.
    E(delta) is -cos delta for the analytic source, and for the simulated
    one the engine's one-trial correlation at each separation.

    For each a', S[b, b'] = ((E(a,b) + E(a,b')) + E(a',b)) - E(a',b') is
    u[b] + v[b'] with u = E(a,.) + E(a',.) and v = E(a,.) - E(a',.), up to
    rounding. So only the rows and columns within a rounding tolerance of
    the extremes of u and v can hold the largest |S|; those are evaluated
    in the written term order, and an a' whose bound cannot beat the best
    so far is skipped. The result, ties included, is that of the full
    (ng, ng) table scanned row-major, with a later a' winning only when
    strictly larger, in O(ng) memory. Among optima that tie mathematically,
    the last bit of E picks the one reported, so ``argmax_deg`` and the
    sign of ``S_at_max`` follow numpy's rounding of ``cos``.
    """
    # at most 3600 grid points per axis
    if not (0.1 <= grid_deg <= 90.0):
        raise ConfigError("grid step must be in [0.1, 90] degrees")
    if source not in ("analytic", "simulated"):
        raise ConfigError("source must be 'analytic' or 'simulated'")
    grid = np.arange(0.0, 360.0, float(grid_deg))
    ng = len(grid)
    if abs(ng * grid_deg - 360.0) > 1e-9:
        raise ConfigError("grid step must divide 360 degrees")
    if source == "analytic":
        e = -np.cos(np.radians(grid))
    else:
        e = _pair_expectation_simulated(grid)
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
