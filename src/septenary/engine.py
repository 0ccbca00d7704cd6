"""Event-by-event trial engine for the two- and four-party experiments.

Randomness
----------
All draws come from numpy's PCG64 bit generator. Trials are processed in
fixed-size batches; batch ``i`` of a run seeded with ``s`` uses the stream
``PCG64(SeedSequence(s, spawn_key=(i,)))``, so results depend only on the
seed, the batch size and the trial count, never on how many workers chewed
through the batches. Gaussians use the Box-Muller transform on uniforms
from ``Generator.random`` (u1 is mapped through ``1 - u`` to keep the log
finite); the fair coin is ``+1 if u > 0.5 else -1``.

Within one batch of n trials the draw order is: n uniforms for the coin,
then per setting in party order one Box-Muller block of 2n uniforms (random
mode only). Fixed-setting runs draw just the coin.

Per trial the engine evaluates the ordered product of the embedded
detector settings, first to last for a +1 coin and last to first for a -1
coin, and records its scalar part as the trial correlation together with
the deterministic outcomes (+coin on first-style wings, -coin on
second-style wings). The four-party run reports its azimuths with the
extraction convention that flips the sign of the first angle and reflects
the fourth (phi_d = 180 - alpha_d), matching the sum convention
Phi = phi_a + phi_b - phi_c - phi_d under which the correlation is -cos Phi.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence

from .algebra import Multivector, mul_batch, mv_mul, product_scalar
from .errors import ConfigError, EmptyInput
from .spin import Detector

BATCH_SIZE = 8192

_PARTIES = {"epr": ("A", "B"), "ghz": ("A", "B", "C", "D")}
# sign of the outcome relative to the coin, per party
_OUTCOME_SIGNS = {"epr": (1, -1), "ghz": (1, -1, 1, -1)}


# ---------------------------------------------------------------------------
# randomness

def batch_stream(seed: int, batch_index: int) -> Generator:
    """The generator that owns every draw of one batch."""
    return Generator(PCG64(SeedSequence(seed, spawn_key=(batch_index,))))


def gauss_pairs(gen: Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n independent standard normal pairs via Box-Muller."""
    u1 = 1.0 - gen.random(n)
    u2 = gen.random(n)
    r = np.sqrt(-2.0 * np.log(u1))
    return r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)


def flip_lambda(gen: Generator) -> int:
    """One fair-coin orientation draw."""
    return 1 if gen.random() > 0.5 else -1


def _flip_batch(gen: Generator, n: int) -> np.ndarray:
    return np.where(gen.random(n) > 0.5, 1, -1).astype(np.int64)


def random_planar_direction(gen: Generator) -> np.ndarray:
    """Unit vector in the xy plane from a pair of Gaussians."""
    while True:
        zx, zy = gauss_pairs(gen, 1)
        x, y = float(zx[0]), float(zy[0])
        r = math.hypot(x, y)
        if r >= 1e-9:
            return np.array([x / r, y / r, 0.0])


def _planar_batch(gen: Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) components of n random unit planar directions."""
    zx, zy = gauss_pairs(gen, n)
    r = np.hypot(zx, zy)
    bad = r < 1e-9
    while bad.any():
        k = int(bad.sum())
        rx, ry = gauss_pairs(gen, k)
        zx[bad], zy[bad] = rx, ry
        r = np.hypot(zx, zy)
        bad = r < 1e-9
    return zx / r, zy / r


# ---------------------------------------------------------------------------
# configuration and results

@dataclass(frozen=True)
class TrialConfig:
    """Validated description of one run."""

    trials: int
    seed: int
    mode: str = "epr"
    setting_source: str = "random-planar"
    fixed_settings: tuple = ()
    bin_width_deg: float = 5.0
    batch_size: int = BATCH_SIZE
    threads: int = 1
    seed_source: str = "flag"

    def __post_init__(self):
        if self.mode not in _PARTIES:
            raise ConfigError("mode must be 'epr' or 'ghz'")
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ConfigError("trials must be a positive integer")
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ConfigError("seed must fit in 64 bits")
        if self.setting_source not in ("random-planar", "fixed-list"):
            raise ConfigError("setting_source must be random-planar or fixed-list")
        if self.setting_source == "fixed-list":
            want = len(_PARTIES[self.mode])
            if not self.fixed_settings:
                raise ConfigError("fixed-list runs need at least one setting tuple")
            for tup in self.fixed_settings:
                if len(tup) != want:
                    raise ConfigError(
                        "each fixed setting needs %d angles, got %r" % (want, tup)
                    )
                if not all(math.isfinite(float(v)) for v in tup):
                    raise ConfigError(
                        "fixed setting angles must be finite, got %r" % (tup,)
                    )
        if not (0.0 < float(self.bin_width_deg) <= 360.0):
            raise ConfigError("bin width must be in (0, 360] degrees")
        if self.batch_size < 1:
            raise ConfigError("batch size must be positive")
        if self.threads < 1:
            raise ConfigError("threads must be positive")


@dataclass(frozen=True)
class TrialRecord:
    """One row of a run."""

    k: int
    lam: int
    phis_deg: tuple
    outcomes: tuple
    corr: float


@dataclass(frozen=True)
class BinStat:
    angle_deg: float
    mean_corr: float
    count: int


@dataclass(frozen=True)
class CorrelationSummary:
    trials: int
    seed: int
    bin_width_deg: float
    bins: tuple
    ave_outcomes: dict
    mode: str
    seed_source: str

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "bin_width_deg": self.bin_width_deg,
            "bins": [
                {"angle_deg": b.angle_deg, "mean_corr": b.mean_corr,
                 "count": b.count}
                for b in self.bins
            ],
            "ave_outcomes": dict(self.ave_outcomes),
            "mode": self.mode,
            "seed_source": self.seed_source,
        }


@dataclass
class TrialRun:
    """Columnar result of a run plus its binned summary."""

    config: TrialConfig
    lam: np.ndarray
    phis_deg: np.ndarray      # (n, parties)
    outcomes: np.ndarray      # (n, parties) of +-1
    corr: np.ndarray
    summary: CorrelationSummary = field(init=False)

    def __post_init__(self):
        self.summary = _summarize(self)

    @property
    def parties(self) -> tuple:
        return _PARTIES[self.config.mode]

    def angle_keys_deg(self) -> np.ndarray:
        return _angle_keys(self.config.mode, self.phis_deg)

    def iter_records(self) -> Iterator[TrialRecord]:
        for k in range(self.config.trials):
            yield TrialRecord(
                k=k,
                lam=int(self.lam[k]),
                phis_deg=tuple(float(v) for v in self.phis_deg[k]),
                outcomes=tuple(int(v) for v in self.outcomes[k]),
                corr=float(self.corr[k]),
            )

    def write_csv(self, path) -> None:
        names = self.parties
        header = (["k", "lambda"]
                  + ["phi_%s" % p.lower() for p in names]
                  + list(names) + ["corr"])
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for rec in self.iter_records():
                w.writerow([rec.k, rec.lam,
                            *[str(v) for v in rec.phis_deg],
                            *rec.outcomes, str(rec.corr)])

    def write_summary_json(self, path) -> None:
        text = json.dumps(self.summary.to_dict(), indent=2, allow_nan=False)
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _angle_keys(mode: str, phis_deg: np.ndarray) -> np.ndarray:
    """The angle each trial is binned under, in [0, 360).

    Two parties: |phi_b - phi_a|. Four parties: the alternating sum folded
    by its 360 degree period so the high-|Phi| tails do not starve.
    """
    if mode == "epr":
        return np.abs(phis_deg[:, 1] - phis_deg[:, 0])
    s = phis_deg[:, 0] + phis_deg[:, 1] - phis_deg[:, 2] - phis_deg[:, 3]
    return np.mod(s, 360.0)


def _summarize(run: TrialRun) -> CorrelationSummary:
    cfg = run.config
    width = float(cfg.bin_width_deg)
    nbins = int(math.ceil(360.0 / width))
    idx = np.minimum((run.angle_keys_deg() / width).astype(np.int64), nbins - 1)
    counts = np.bincount(idx, minlength=nbins)
    sums = np.bincount(idx, weights=run.corr, minlength=nbins)
    bins = tuple(
        BinStat(angle_deg=(i + 0.5) * width,
                mean_corr=float(sums[i] / counts[i]),
                count=int(counts[i]))
        for i in range(nbins) if counts[i] > 0
    )
    aves = {
        name: float(run.outcomes[:, j].mean())
        for j, name in enumerate(run.parties)
    }
    return CorrelationSummary(
        trials=cfg.trials, seed=cfg.seed, bin_width_deg=width, bins=bins,
        ave_outcomes=aves, mode=cfg.mode, seed_source=cfg.seed_source,
    )


# ---------------------------------------------------------------------------
# products

def paired_product(detectors: Sequence[Detector], lam: int) -> Multivector:
    """Ordered product of detector elements under the trial orientation.

    A +1 coin multiplies in the order given, a -1 coin in the fully
    reversed order.
    """
    if len(detectors) < 2:
        raise EmptyInput("paired_product needs at least two detectors")
    if lam not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    elems = [d.element_at(lam) for d in detectors]
    if lam == -1:
        elems.reverse()
    acc = elems[0]
    for e in elems[1:]:
        acc = mv_mul(acc, e)
    return acc


def _chain_scalar(coeffs: list[np.ndarray], lam: np.ndarray) -> np.ndarray:
    """Scalar of the coin-ordered chain, vectorised over trials.

    Only the scalar row of the last product is evaluated; it is the same
    expression as row 0 of the full product.
    """
    n = lam.shape[0]
    out = np.empty(n)
    for sign in (1, -1):
        m = lam == sign
        if not m.any():
            continue
        parts = [c[m] for c in (coeffs if sign == 1 else coeffs[::-1])]
        acc = parts[0]
        for nxt in parts[1:-1]:
            acc = mul_batch(acc, nxt, sign)
        out[m] = product_scalar(acc.T, parts[-1].T)
    return out


def _wrap_deg(a: np.ndarray) -> np.ndarray:
    """Wrap into (-180, 180]."""
    return 180.0 - np.mod(180.0 - a, 360.0)


def _pair_coeff_batch(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Embedded planar pairs for unit direction components (x, y).

    Same scale-then-rotate construction as make_pair_planar, vectorised:
    n_r = (x, y, 0)/sqrt(2), n_d = (-y, x, 0)/sqrt(2).
    """
    n = x.shape[0]
    s = math.sqrt(0.5)
    rx, ry = x * s, y * s
    c = np.zeros((n, 8))
    c[:, 2] = ry       # n_r y
    c[:, 3] = rx       # n_r x
    c[:, 4] = -ry      # n_d x
    c[:, 5] = rx       # n_d y
    return c


# internal azimuth placement for four-party fixed settings: the extraction
# below reports phi_a = -alpha_a and phi_d = 180 - alpha_d, so requested
# angles are inverted through the same map (its own inverse).
def _ghz_internal_from_reported(phis: np.ndarray) -> np.ndarray:
    a = phis.copy()
    a[:, 0] = -phis[:, 0]
    a[:, 3] = 180.0 - phis[:, 3]
    return a


def _reported_from_internal(mode: str, alphas: np.ndarray) -> np.ndarray:
    if mode == "epr":
        return _wrap_deg(alphas)
    rep = alphas.copy()
    rep[:, 0] = -alphas[:, 0]
    rep[:, 3] = 180.0 - alphas[:, 3]
    return _wrap_deg(rep)


def _run_batch(cfg: TrialConfig, batch_index: int) -> dict:
    start = batch_index * cfg.batch_size
    n = min(cfg.batch_size, cfg.trials - start)
    gen = batch_stream(cfg.seed, batch_index)
    lam = _flip_batch(gen, n)
    parties = len(_PARTIES[cfg.mode])

    if cfg.setting_source == "random-planar":
        comps = [_planar_batch(gen, n) for _ in range(parties)]
        alphas = np.column_stack(
            [np.degrees(np.arctan2(y, x)) for x, y in comps]
        )
        coeffs = [_pair_coeff_batch(x, y) for x, y in comps]
    else:
        tuples = np.array(cfg.fixed_settings, dtype=np.float64)
        reported = tuples[(start + np.arange(n)) % len(tuples)]
        alphas = (_ghz_internal_from_reported(reported)
                  if cfg.mode == "ghz" else reported.copy())
        rad = np.radians(alphas)
        coeffs = [
            _pair_coeff_batch(np.cos(rad[:, j]), np.sin(rad[:, j]))
            for j in range(parties)
        ]

    corr = _chain_scalar(coeffs, lam)
    signs = _OUTCOME_SIGNS[cfg.mode]
    outcomes = np.column_stack([s * lam for s in signs]).astype(np.int8)
    reported = _reported_from_internal(cfg.mode, alphas)
    return {"index": batch_index, "lam": lam, "phis": reported,
            "outcomes": outcomes, "corr": corr}


def run_trials(cfg: TrialConfig) -> TrialRun:
    """Execute a full run: batched, deterministic, reduced in batch order."""
    nbatches = (cfg.trials + cfg.batch_size - 1) // cfg.batch_size
    if cfg.threads > 1 and nbatches > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(lambda i: _run_batch(cfg, i),
                                    range(nbatches)))
    else:
        results = [_run_batch(cfg, i) for i in range(nbatches)]
    results.sort(key=lambda r: r["index"])
    return TrialRun(
        config=cfg,
        lam=np.concatenate([r["lam"] for r in results]),
        phis_deg=np.vstack([r["phis"] for r in results]),
        outcomes=np.vstack([r["outcomes"] for r in results]),
        corr=np.concatenate([r["corr"] for r in results]),
    )


def run_epr(cfg: TrialConfig) -> TrialRun:
    if cfg.mode != "epr":
        raise ConfigError("run_epr needs an epr-mode config")
    return run_trials(cfg)


def run_ghz(cfg: TrialConfig) -> TrialRun:
    if cfg.mode != "ghz":
        raise ConfigError("run_ghz needs a ghz-mode config")
    return run_trials(cfg)


# ---------------------------------------------------------------------------
# four-term scans

def _pair_expectation_simulated(deltas_deg: np.ndarray, seed: int,
                                trials_per_setting: int) -> np.ndarray:
    """Simulated E(delta) on a grid of separations, one mini-run each."""
    out = np.empty(len(deltas_deg))
    for i, d in enumerate(deltas_deg):
        cfg = TrialConfig(
            trials=trials_per_setting, seed=seed, mode="epr",
            setting_source="fixed-list", fixed_settings=((0.0, float(d)),),
            bin_width_deg=360.0,
        )
        out[i] = float(run_trials(cfg).corr.mean())
    return out


def chsh_scan(grid_deg: float = 5.0, source: str = "analytic",
              seed: int = 0, trials_per_setting: int = 64) -> dict:
    """Scan the four-term combination over a planar grid of settings.

    The pair correlation depends only on angle differences, so the first
    setting is pinned to zero and the other three sweep the grid; reported
    angles are absolute with that convention. Returns the extreme value,
    where it sits, and the grid.
    """
    if not (0.0 < grid_deg <= 90.0):
        raise ConfigError("grid step must be in (0, 90] degrees")
    if source not in ("analytic", "simulated"):
        raise ConfigError("source must be 'analytic' or 'simulated'")
    grid = np.arange(0.0, 360.0, float(grid_deg))
    if source == "analytic":
        e_of_delta = -np.cos(np.radians(grid))
    else:
        e_of_delta = _pair_expectation_simulated(grid, seed, trials_per_setting)

    ng = len(grid)

    def e_lookup(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return e_of_delta[np.mod(j - i, ng)]

    idx = np.arange(ng)
    best_abs, best = -1.0, (0, 0, 0, 0)
    zero = np.zeros(1, dtype=np.int64)
    for iap in range(ng):
        # S[b, bp] for a = 0, ap = iap
        s = (e_lookup(zero, idx)[:, None]            # E(a, b)
             + e_lookup(zero, idx)[None, :]          # E(a, bp)
             + e_lookup(np.array([iap]), idx)[:, None]
             - e_lookup(np.array([iap]), idx)[None, :])
        k = int(np.abs(s).argmax())
        ib, ibp = divmod(k, ng)
        if abs(s[ib, ibp]) > best_abs:
            best_abs = float(abs(s[ib, ibp]))
            best = (0.0, float(grid[iap]), float(grid[ib]), float(grid[ibp]))
            best_val = float(s[ib, ibp])
    return {
        "grid_deg": float(grid_deg),
        "source": source,
        "max_abs_S": best_abs,
        "S_at_max": best_val,
        "argmax_deg": {"a": best[0], "a_prime": best[1],
                       "b": best[2], "b_prime": best[3]},
    }
