import csv
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import septenary
from septenary import cli, engine
from septenary.algebra import SCALAR, mv_mul
from septenary.engine import (
    TrialConfig,
    batch_stream,
    chsh_scan,
    paired_product,
    stream_trials,
)
from septenary.errors import ConfigError, EmptyInput
from septenary.spin import detector, make_pair_general, make_pair_planar

from frozen import (
    CHI2_CRITICAL_35DOF,
    CHI2_PHI_A_SEED123,
    FLIPS_SEED0,
    LAMBDA_MEAN_SEED2026,
    UNIFORMS_SEED0,
)

ROOT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# stream goldens

def test_uniform_stream_golden():
    got = batch_stream(0, 0).random(8)
    assert np.array_equal(got, np.array(UNIFORMS_SEED0))


def test_coin_golden_and_scalar_draw():
    flips = engine._flip_batch(batch_stream(0, 0), 8)
    assert np.array_equal(flips, np.array(FLIPS_SEED0))
    assert set(np.unique(flips)) <= {-1, 1}


def test_batch_streams_are_distinct_and_stable():
    a = batch_stream(9, 0).random(4)
    b = batch_stream(9, 1).random(4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, batch_stream(9, 0).random(4))


def test_setting_azimuths_are_uniform():
    cfg = TrialConfig(trials=100000, seed=123, mode="epr")
    counts = sum(np.histogram(b.phis[:, 0], bins=36, range=(-180.0, 180.0))[0]
                 for b in engine._batches(cfg))
    expected = cfg.trials / 36.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 == pytest.approx(CHI2_PHI_A_SEED123, abs=1e-9)
    assert chi2 < CHI2_CRITICAL_35DOF


def test_coin_is_fair_over_a_long_run():
    # outcome A is the coin itself
    summary = stream_trials(TrialConfig(trials=1000000, seed=2026, mode="epr"))
    mean = summary["ave_outcomes"]["A"]
    assert mean == LAMBDA_MEAN_SEED2026
    assert abs(mean) < 0.005


# ---------------------------------------------------------------------------
# determinism

def test_repeat_runs_are_identical(tmp_path):
    cfg = TrialConfig(trials=20000, seed=42, mode="epr")
    for b1, b2 in zip(engine._batches(cfg), engine._batches(cfg),
                      strict=True):
        assert b1.start == b2.start
        assert np.array_equal(b1.lam, b2.lam)
        assert np.array_equal(b1.phis, b2.phis)
        assert np.array_equal(b1.corr, b2.corr)
    first, second = tmp_path / "1.csv", tmp_path / "2.csv"
    _stream_csv(cfg, first)
    _stream_csv(cfg, second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("trials", [5, 8193])
def test_partial_batches_are_handled(trials):
    cfg = TrialConfig(trials=trials, seed=3, mode="epr")
    start = 0
    for batch in engine._batches(cfg):
        n = len(batch.corr)
        assert batch.start == start
        assert n == min(engine.BATCH_SIZE, trials - start)
        assert batch.lam.shape == (n,)
        assert batch.phis.shape == (n, 2)
        start += n
    assert start == trials
    summary = stream_trials(cfg)
    assert summary["trials"] == trials
    assert sum(b["count"] for b in summary["bins"]) == trials


def test_seed_changes_the_run():
    a = next(engine._batches(TrialConfig(trials=1000, seed=1, mode="epr")))
    b = next(engine._batches(TrialConfig(trials=1000, seed=2, mode="epr")))
    assert not np.array_equal(a.phis, b.phis)


# ---------------------------------------------------------------------------
# per-event correlations

def _assert_events_match_the_cosine(cfg):
    for batch in engine._batches(cfg):
        want = -np.cos(np.radians(engine._angle_keys(cfg.mode, batch.phis)))
        assert_allclose(batch.corr, want, rtol=0.0, atol=1e-12)


# 20000 trials: three batches, the last one partial
def test_epr_per_event_matches_the_cosine():
    _assert_events_match_the_cosine(
        TrialConfig(trials=20000, seed=17, mode="epr"))


def test_ghz_per_event_matches_the_cosine():
    _assert_events_match_the_cosine(
        TrialConfig(trials=20000, seed=19, mode="ghz"))


def test_outcome_columns_follow_the_coin(tmp_path):
    cfg = TrialConfig(trials=500, seed=23, mode="epr")
    outcomes = _csv_outcomes(cfg, tmp_path / "epr.csv")
    lam = np.concatenate([b.lam for b in engine._batches(cfg)])
    assert np.array_equal(outcomes[:, 0], lam)
    assert np.array_equal(outcomes[:, 1], -lam)
    prod = outcomes.prod(axis=1)
    assert np.all(prod == -1)

    cfg = TrialConfig(trials=500, seed=23, mode="ghz")
    outcomes = _csv_outcomes(cfg, tmp_path / "ghz.csv")
    lam = np.concatenate([b.lam for b in engine._batches(cfg)])
    signs = np.array([1, -1, 1, -1])
    assert np.array_equal(outcomes, np.outer(lam, signs))
    assert np.all(outcomes.prod(axis=1) == 1)


def test_fixed_epr_settings_are_echoed():
    cfg = TrialConfig(trials=64, seed=0, mode="epr",
                      fixed_settings=((30.0, 75.0),))
    for batch in engine._batches(cfg):
        assert np.all(batch.phis[:, 0] == 30.0)
        assert np.all(batch.phis[:, 1] == 75.0)
        assert_allclose(batch.corr, -math.cos(math.radians(45.0)), atol=1e-12)


def test_fixed_lists_cycle_across_batches(monkeypatch):
    monkeypatch.setattr(engine, "BATCH_SIZE", 4)
    cfg = TrialConfig(trials=10, seed=0, mode="epr",
                      fixed_settings=((0.0, 45.0), (0.0, 90.0)))
    phi_b = np.concatenate([b.phis[:, 1] for b in engine._batches(cfg)])
    assert np.array_equal(phi_b, np.where(np.arange(10) % 2 == 0, 45.0, 90.0))


def test_out_of_range_epr_settings_are_wrapped():
    cfg = TrialConfig(trials=8, seed=0, mode="epr",
                      fixed_settings=((0.0, 190.0),))
    for batch in engine._batches(cfg):
        assert np.all(batch.phis[:, 1] == -170.0)
        assert_allclose(batch.corr, -math.cos(math.radians(190.0)),
                        atol=1e-12)


def test_fixed_ghz_settings_are_echoed():
    cfg = TrialConfig(trials=32, seed=0, mode="ghz",
                      fixed_settings=((10.0, 20.0, 30.0, 40.0),))
    for batch in engine._batches(cfg):
        assert np.array_equal(batch.phis,
                              np.tile([10.0, 20.0, 30.0, 40.0], (32, 1)))
        # Phi = 10 + 20 - 30 - 40 = -40
        assert_allclose(batch.corr, -math.cos(math.radians(-40.0)),
                        atol=1e-12)


@pytest.mark.parametrize("angles,want", [
    ((0.0, 0.0, 0.0, 0.0), -1.0),
    ((180.0, 0.0, 0.0, 0.0), 1.0),
    ((90.0, 90.0, 0.0, 0.0), 1.0),
])
def test_ghz_disproof_points_hold_every_event(angles, want):
    cfg = TrialConfig(trials=256, seed=11, mode="ghz",
                      fixed_settings=(angles,))
    for batch in engine._batches(cfg):
        assert_allclose(batch.corr, want, rtol=0.0, atol=1e-12)


def test_random_run_correlations_take_both_signs():
    cfg = TrialConfig(trials=4000, seed=29, mode="ghz")
    corr = np.concatenate([b.corr for b in engine._batches(cfg)])
    assert (corr > 0.0).any()
    assert (corr < 0.0).any()


# ---------------------------------------------------------------------------
# detector products

def _planar_detector(deg):
    rad = math.radians(deg)
    return detector(make_pair_planar((math.cos(rad), math.sin(rad), 0.0)))


def test_paired_product_of_equal_settings_is_minus_one():
    d = _planar_detector(30.0)
    out = paired_product([d, d], 1)
    assert out.shape == (8,)
    assert out[SCALAR] == pytest.approx(-1.0, abs=1e-12)
    assert np.all(out[1:] == 0.0)


def test_paired_product_reverses_under_the_coin():
    ds = [_planar_detector(a) for a in (10.0, 40.0, 75.0)]
    copies = [d.copy() for d in ds]
    flipped = paired_product(ds, -1)
    want = mv_mul(mv_mul(ds[2], ds[1], -1), ds[0], -1)
    assert_allclose(flipped, want, rtol=0.0, atol=0.0)
    # the coin multiplies under its tag without moving the coordinates
    assert all(np.array_equal(d, c) for d, c in zip(ds, copies))


def test_paired_product_argument_errors():
    d = _planar_detector(0.0)
    with pytest.raises(EmptyInput):
        paired_product([d], 1)
    for bad in (0, 1.5):
        with pytest.raises(ValueError):
            paired_product([d, d], bad)


@pytest.mark.parametrize("mode,tuples", [
    ("epr", ((0.0, 45.0), (30.0, 190.0), (-75.5, 12.25), (359.9, 0.1),
             (123.456, -98.7))),
    ("ghz", ((10.0, 20.0, 30.0, 40.0), (0.0, 90.0, 45.0, 135.0),
             (-33.3, 181.0, 7.5, 270.0), (359.9, -0.1, 100.2, 12.34))),
])
def test_engine_is_the_bitwise_twin_of_the_scalar_products(mode, tuples,
                                                           monkeypatch):
    monkeypatch.setattr(engine, "BATCH_SIZE", 256)
    cfg = TrialConfig(trials=2000, seed=5, mode=mode, fixed_settings=tuples)
    # requested azimuths as party rows, then the written four-party map
    rows = np.array(tuples).T[:, np.arange(cfg.trials) % len(tuples)]
    if mode == "ghz":
        rows[0] = -rows[0]
        rows[3] = 180.0 - rows[3]
    # the same array calls the engine makes, row by row
    xs = np.array([np.cos(np.radians(row)) for row in rows])
    ys = np.array([np.sin(np.radians(row)) for row in rows])
    for batch in engine._batches(cfg):
        for j, (lam, corr) in enumerate(zip(batch.lam, batch.corr)):
            k = batch.start + j
            dets = [detector(make_pair_planar((x, y, 0.0)))
                    for x, y in zip(xs[:, k], ys[:, k])]
            assert corr == paired_product(dets, int(lam))[SCALAR], k


@pytest.mark.parametrize("planar", [False, True])
def test_the_tag_moves_a_detector_chain_scalar_only_by_its_parity(planar):
    # the engine's chains run untagged: a detector lives in slots 1..6,
    # which the -1 mirror negates, so a chain of k detectors has the scalar
    # of its +1 chain times (-1)**k, bit for bit up to the sign of a zero,
    # which the engine's + 0.0 normalises
    rng = np.random.default_rng(61)
    v = rng.standard_normal((4, 500, 3))
    if planar:
        v[..., 2] = 0.0
    v /= np.sqrt((v[..., :1] ** 2 + v[..., 1:2] ** 2) + v[..., 2:] ** 2)
    dets = [detector(make_pair_general(u)) for u in v]
    for k in (2, 3, 4):
        plus, minus = (functools.reduce(
            lambda a, b, lam=lam: mv_mul(a, b, lam), dets[:k])[:, SCALAR]
            for lam in (1, -1))
        sign = 1.0 if k % 2 == 0 else -1.0
        assert (sign * minus + 0.0).tobytes() == (plus + 0.0).tobytes(), k


@pytest.mark.parametrize("mode,parties", [("epr", 2), ("ghz", 4)])
def test_random_run_is_the_fixed_list_run_of_its_own_draws(mode, parties,
                                                           monkeypatch):
    # a drawn setting is the requested azimuth 360 u, so a run over the
    # same azimuths as a fixed list gives the same bits
    monkeypatch.setattr(engine, "BATCH_SIZE", 256)
    cfg = TrialConfig(trials=2000, seed=5, mode=mode)
    drawn = []
    for i in range(0, cfg.trials, engine.BATCH_SIZE):
        n = min(engine.BATCH_SIZE, cfg.trials - i)
        gen = batch_stream(cfg.seed, i // engine.BATCH_SIZE)
        gen.random(n)                       # the coin
        drawn.extend((360.0 * gen.random((parties, n)).T).tolist())
    fixed = dataclasses.replace(cfg, fixed_settings=tuple(map(tuple, drawn)))
    for a, b in zip(engine._batches(cfg), engine._batches(fixed),
                    strict=True):
        assert a.corr.tobytes() == b.corr.tobytes()
        assert np.array_equal(a.phis, b.phis)
        assert np.array_equal(a.lam, b.lam)


@pytest.mark.parametrize("mode,parties,digest", [
    ("epr", 2, "03b3a3c917a6b4f21fc838ce194e91ccc14194687b355ecf4374a321fdcec749"),
    ("ghz", 4, "cf87d745650b9dbece1ce43c81a1688ab73c608fef1976845bee4b9999b87273"),
])
def test_grid_correlation_bits_are_pinned(mode, parties, digest):
    # the 45 degree grid hits exact zeros, which the written expression
    # leaves at +0.0; == cannot see the sign of a zero, the bytes can
    grid = [45.0 * i for i in range(8)]
    tuples = tuple(itertools.product(grid, repeat=parties))
    cfg = TrialConfig(trials=8 * len(tuples), seed=7, mode=mode,
                      fixed_settings=tuples)
    # the digest of the whole column, fed batch by batch
    sha = hashlib.sha256()
    for batch in engine._batches(cfg):
        sha.update(batch.corr.tobytes())
    assert sha.hexdigest() == digest


def test_coin_average_leaves_a_pure_scalar():
    a, b = _planar_detector(20.0), _planar_detector(65.0)
    plus = paired_product([a, b], 1)
    # the -1 product re-expressed under the +1 tag: blades 1..7 flip sign
    minus = paired_product([a, b], -1)
    minus[1:] = -minus[1:]
    ave = 0.5 * (plus + minus)
    assert np.all(ave[1:] == 0.0)
    assert ave[0] == pytest.approx(-math.cos(math.radians(45.0)), abs=1e-12)


# ---------------------------------------------------------------------------
# angle wraps

_WRAP_EDGES = [0.0, -0.0, 180.0, -180.0, 360.0, -360.0, 540.0, -540.0,
               720.0, -720.0, 5e-324, -5e-324, 1e-320, -1e-320, 1e-300,
               -1e-300, 2.2250738585072014e-308, -2.2250738585072014e-308,
               1e6, -1e9]


def _assert_wraps_match_np_mod(x):
    # both branches of the helper: the whole array, and only |x| < 720
    for arr in (x, x[np.abs(x) < 720.0]):
        assert engine._mod360(arr).tobytes() == np.mod(arr, 360.0).tobytes()
        want = 180.0 - np.mod(180.0 - arr, 360.0)
        assert engine._wrap_deg(arr).tobytes() == want.tobytes()


def test_wraps_match_np_mod_on_the_edges():
    edges = list(_WRAP_EDGES)
    for v in _WRAP_EDGES:
        for towards in (-math.inf, math.inf):
            for _ in range(3):
                v = math.nextafter(v, towards)
                edges.append(v)
    x = np.array(edges)
    _assert_wraps_match_np_mod(x)
    for v in x:
        _assert_wraps_match_np_mod(np.array([v]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-720.0, 720.0)
                | st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=64))
def test_wraps_match_np_mod(values):
    _assert_wraps_match_np_mod(np.array(values))


def test_far_fixed_angles_report_the_written_wrap():
    # reported angles this far out take the np.mod branch of the wrap
    tuples = ((1e6, -1e9, 719.9999999999999, -3000.0),
              (719.9999999999999, 1e-320, 1e6, -1e9),
              (-1e9, 10.0, -719.9999999999999, 719.9999999999999))
    cfg = TrialConfig(trials=9, seed=3, mode="ghz", fixed_settings=tuples)
    (batch,) = engine._batches(cfg)
    # requested -> internal -> reported, as written, then wrapped
    rep = np.array(tuples)[np.arange(cfg.trials) % len(tuples)]
    rep[:, 0] = -(-rep[:, 0])
    rep[:, 3] = 180.0 - (180.0 - rep[:, 3])
    want = 180.0 - np.mod(180.0 - rep, 360.0)
    assert batch.phis.tobytes() == want.tobytes()
    s = want[:, 0] + want[:, 1] - want[:, 2] - want[:, 3]
    keys = engine._angle_keys(cfg.mode, batch.phis)
    assert keys.tobytes() == np.mod(s, 360.0).tobytes()


# ---------------------------------------------------------------------------
# summaries and serialization

def _assert_summary_is_one_bincount(cfg, summary):
    """Check a summary dict against one bincount over every trial of cfg
    and the exact coin sum; return the indices of the occupied bins."""
    batches = list(engine._batches(cfg))
    width = float(cfg.bin_width_deg)
    nbins = int(math.ceil(360.0 / width))
    keys = np.concatenate([engine._angle_keys(cfg.mode, b.phis)
                           for b in batches])
    assert bool(((keys >= 0.0) & (keys < 360.0)).all())
    idx = np.minimum((keys / width).astype(np.int64), nbins - 1)
    counts = np.bincount(idx, minlength=nbins)
    sums = np.bincount(idx, weights=np.concatenate([b.corr for b in batches]),
                       minlength=nbins)
    occupied = np.flatnonzero(counts)
    assert [(b["mean_corr"], b["count"]) for b in summary["bins"]] == [
        (sums[i] / counts[i], counts[i]) for i in occupied]
    coin_mean = sum(int(b.lam.sum()) for b in batches) / cfg.trials
    signs = {"A": 1, "B": -1} if cfg.mode == "epr" else {
        "A": 1, "B": -1, "C": 1, "D": -1}
    assert summary["ave_outcomes"] == {p: s * coin_mean
                                       for p, s in signs.items()}
    assert ((summary["trials"], summary["seed"], summary["mode"],
             summary["bin_width_deg"])
            == (cfg.trials, cfg.seed, cfg.mode, width))
    return occupied


def test_summary_bins_match_a_manual_count():
    # 20000 trials: the tally is fed three batches, the last one partial
    cfg = TrialConfig(trials=20000, seed=31, mode="epr")
    summary = stream_trials(cfg)
    occupied = _assert_summary_is_one_bincount(cfg, summary)
    assert ([b["angle_deg"] for b in summary["bins"]]
            == [(i + 0.5) * cfg.bin_width_deg for i in occupied])
    assert sum(b["count"] for b in summary["bins"]) == cfg.trials


def test_summary_outcome_averages(tmp_path):
    cfg = TrialConfig(trials=20000, seed=37, mode="epr")
    aves = stream_trials(cfg)["ave_outcomes"]
    assert set(aves) == {"A", "B"}
    outcomes = _csv_outcomes(cfg, tmp_path / "run.csv")
    assert aves["A"] == float(outcomes[:, 0].mean())
    assert aves["B"] == -aves["A"]


def _stream_csv(cfg, path):
    """Write cfg's CSV through the streaming writer; return its summary."""
    with open(path, "w", newline="") as fh:
        return stream_trials(cfg, fh)


def _csv_outcomes(cfg, path):
    """The (trials, parties) outcome columns A.. of cfg's streamed CSV."""
    _stream_csv(cfg, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    names = "AB" if cfg.mode == "epr" else "ABCD"
    return np.array([[int(row[p]) for p in names] for row in rows])


def test_csv_round_trip(tmp_path):
    cfg = TrialConfig(trials=200, seed=41, mode="epr")
    (batch,) = engine._batches(cfg)
    path = tmp_path / "run.csv"
    _stream_csv(cfg, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 200
    for k, row in enumerate(rows):
        lam = batch.lam[k]
        assert int(row["k"]) == k
        assert int(row["lambda"]) == lam
        assert float(row["phi_a"]) == batch.phis[k, 0]
        assert float(row["phi_b"]) == batch.phis[k, 1]
        assert (int(row["A"]), int(row["B"])) == (lam, -lam)
        assert float(row["corr"]) == batch.corr[k]


def _csv_writer_reference(cfg) -> bytes:
    """The bytes of a row-at-a-time csv.writer over per-value str() of
    every batch of cfg."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    names = "AB" if cfg.mode == "epr" else "ABCD"
    w.writerow(["k", "lambda"] + ["phi_%s" % p.lower() for p in names]
               + list(names) + ["corr"])
    for batch in engine._batches(cfg):
        for j, (lam, phis, corr) in enumerate(
                zip(batch.lam.tolist(), batch.phis, batch.corr)):
            w.writerow([batch.start + j, lam,
                        *[str(float(v)) for v in phis],
                        # first-style wings show the coin, second-style -coin
                        *[lam if i % 2 == 0 else -lam
                          for i in range(len(names))],
                        str(float(corr))])
    return buf.getvalue().encode()


@pytest.mark.parametrize("kwargs", [
    {"mode": "epr"},
    {"mode": "ghz"},
    {"mode": "ghz",
     "fixed_settings": ((10.0, 20.0, 30.0, 40.0), (0.0, 90.0, 45.0, 135.0))},
])
def test_chunked_csv_matches_a_row_writer(tmp_path, monkeypatch, kwargs):
    # 1000 trials in batches of 64: sixteen chunks, the last one partial
    monkeypatch.setattr(engine, "BATCH_SIZE", 64)
    cfg = TrialConfig(trials=1000, seed=47, **kwargs)
    path = tmp_path / "run.csv"
    _stream_csv(cfg, path)
    assert path.read_bytes() == _csv_writer_reference(cfg)


def _texts(values) -> list:
    """The CSV writer's text of each float64, NULs removed."""
    field = engine._float_text(np.array(values, dtype=np.float64))
    return [row.tobytes().replace(b"\0", b"").decode("ascii")
            for row in field]


def _neighbours(values) -> list:
    x = np.array(values, dtype=np.float64)
    return np.concatenate([x, np.nextafter(x, -np.inf),
                           np.nextafter(x, np.inf)]).tolist()


_EDGES = _neighbours(
    [1e-4, 1e16, 90.0, 180.0, 0.1, 1 / 3, 6.123233995736766e-17]
    + [2.0 ** e for e in range(-14, 54)]) + [0.0, -0.0, 5e-324, 1e-300]


def test_float_text_is_repr_at_the_edges():
    # the fast domain's bounds, every power of two in it (whose rounding
    # interval is lopsided), values the runs print, zeros and tiny values
    values = _EDGES + [-v for v in _EDGES]
    assert _texts(values) == [repr(v) for v in values]


def test_float_text_is_repr_over_a_seeded_sweep(monkeypatch):
    # uniform exponents over [1e-4, 1e16), short decimals and their
    # neighbours, round numbers (many trailing zeros), integers from 2**52
    # (where an end of the rounding interval is an integer), uniform
    # angles, and every bit pattern
    rng = np.random.default_rng(71)
    n = 25000
    spread = 10.0 ** rng.uniform(-4, 16, n)
    short = np.array([float("%.*f" % (d, u)) for d, u in zip(
        rng.integers(0, 8, n).tolist(), rng.uniform(-1e4, 1e4, n).tolist())])
    rounded = rng.integers(1, 10 ** 6, n) * 10.0 ** rng.integers(-10, 11, n)
    values = np.concatenate([
        spread, -spread, *np.array(_neighbours(short)).reshape(3, n),
        *np.array(_neighbours(rounded)).reshape(3, n),
        rng.integers(2 ** 52, 10 ** 16, n).astype(np.float64),
        rng.uniform(-180.0, 180.0, n),
        rng.integers(-2 ** 63, 2 ** 63, n, dtype=np.int64).view(np.float64),
    ]).tolist()
    assert len(values) == 11 * n
    fallback = []
    monkeypatch.setattr(engine, "repr", lambda v: fallback.append(v)
                        or repr(v), raising=False)
    assert _texts(values) == [repr(v) for v in values]
    # only values outside [1e-4, 1e16) take repr itself
    assert fallback and not any(1e-4 <= abs(v) < 1e16 for v in fallback)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40))
def test_float_text_is_repr(values):
    assert _texts(values) == [repr(v) for v in values]


def test_float_text_formats_each_bit_pattern_once(monkeypatch):
    # a fixed-setting run repeats a few values thousands of times; -0.0
    # must keep its sign although it equals 0.0
    values = [0.0, -0.0, 6.123233995736766e-17, 90.0, 0.5] * 1000
    calls = []
    real = engine._shortest

    def counted(a, bits):
        calls.append(len(a))
        return real(a, bits)

    monkeypatch.setattr(engine, "_shortest", counted)
    assert _texts(values) == [repr(v) for v in values]
    assert calls == [5]


def test_summary_json_round_trip(tmp_path):
    cfg = TrialConfig(trials=300, seed=43, mode="ghz")
    summary = stream_trials(cfg)
    path = tmp_path / "summary.json"
    path.write_text(cli._json_text(summary))
    with open(path) as fh:
        data = json.load(fh)
    assert data == summary
    assert data["mode"] == "ghz"
    # where the seed came from is the CLI's to report, not the engine's
    assert list(data) == ["trials", "seed", "bin_width_deg", "bins",
                          "ave_outcomes", "mode"]


@pytest.mark.parametrize("batch_size", [64, 8192])
@pytest.mark.parametrize("argv", [
    ("epr",),
    ("ghz",),
    ("ghz", "--fixed-angles", "10,20,30,40", "--fixed-angles", "0,90,45,135"),
])
def test_streamed_outputs_equal_the_collected_run(tmp_path, capsys,
                                                  monkeypatch, batch_size,
                                                  argv):
    # 10000 trials: the last batch is partial at both batch sizes
    monkeypatch.delenv("SEPTENARY_SEED", raising=False)
    monkeypatch.setattr(engine, "BATCH_SIZE", batch_size)
    csv_path, json_path = tmp_path / "run.csv", tmp_path / "run.json"
    code = cli.main([*argv, "--trials", "10000", "--seed", "53",
                     "--out", str(csv_path), "--summary", str(json_path)])
    capsys.readouterr()
    assert code == 0
    fixed = tuple(tuple(map(float, a.split(","))) for a in argv[2::2])
    cfg = TrialConfig(trials=10000, seed=53, mode=argv[0],
                      fixed_settings=fixed)
    assert csv_path.read_bytes() == _csv_writer_reference(cfg)
    text = json_path.read_text()
    data = json.loads(text)
    assert text == cli._json_text(data)
    _assert_summary_is_one_bincount(cfg, data)
    assert data["seed_source"] == "flag"


def _setting_lists(parties):
    """Fixed-setting lists, mostly of the right length; st.floats() also
    draws NaN and the infinities."""
    size = st.sampled_from([parties, parties, parties, 3])
    tup = size.flatmap(lambda k: st.lists(st.floats(), min_size=k,
                                          max_size=k).map(tuple))
    return st.lists(tup, min_size=1, max_size=3).map(tuple)


@settings(max_examples=100, deadline=None)
@given(
    mode=st.sampled_from(["epr", "ghz"]),
    trials=st.integers(-2, 600),
    width=st.one_of(st.floats(0.0, 400.0),
                    st.sampled_from([0.01, 360.0, math.nan, math.inf])),
    batch_size=st.integers(1, 256),
    data=st.data(),
)
def test_configs_are_refused_or_stream_like_they_collect(
        mode, trials, width, batch_size, data):
    parties = 2 if mode == "epr" else 4
    fixed = data.draw(st.none() | _setting_lists(parties), label="fixed")
    kwargs = dict(trials=trials, seed=61, mode=mode, bin_width_deg=width)
    if fixed is not None:
        kwargs.update(fixed_settings=fixed)
    valid = (trials >= 1 and 0.01 <= width <= 360.0
             and all(len(t) == parties and all(map(math.isfinite, t))
                     for t in fixed or ()))
    if not valid:
        with pytest.raises(ConfigError):
            TrialConfig(**kwargs)
        return
    cfg = TrialConfig(**kwargs)
    buf = io.StringIO(newline="")
    # a Hypothesis test cannot take the function-scoped monkeypatch
    with mock.patch.object(engine, "BATCH_SIZE", batch_size):
        summary = stream_trials(cfg, buf)
        cli._json_text(summary)             # strict: NaN would raise
        occupied = _assert_summary_is_one_bincount(cfg, summary)
        assert sum(b["count"] for b in summary["bins"]) == trials
        assert buf.getvalue().encode() == _csv_writer_reference(cfg)
        assert all(bool((np.abs(b.phis) <= 180.0).all())
                   for b in engine._batches(cfg))
    # every bin is reported inside its key range, the last one cut at 360
    w = float(width)
    for i, b in zip(occupied.tolist(), summary["bins"], strict=True):
        assert i * w <= b["angle_deg"] < min((i + 1) * w, 360.0)


# ---------------------------------------------------------------------------
# configuration validation

# each case keeps an explicit id, so deleting one renames no other;
# the ids are the positional names the cases first had
@pytest.mark.parametrize("kwargs", [
    pytest.param({"trials": 0, "seed": 0}, id="kwargs0"),
    pytest.param({"trials": -5, "seed": 0}, id="kwargs1"),
    pytest.param({"trials": 10, "seed": -1}, id="kwargs2"),
    pytest.param({"trials": 10, "seed": 2 ** 64}, id="kwargs3"),
    pytest.param({"trials": 10, "seed": 0, "mode": "what"}, id="kwargs4"),
    pytest.param({"trials": 10, "seed": 0,
                  "fixed_settings": ((1.0, 2.0, 3.0),)},
                 id="kwargs5"),
    pytest.param({"trials": 10, "seed": 0,
                  "fixed_settings": ((0.0, 0.0), (float("nan"), 0.0))},
                 id="kwargs6"),
    pytest.param({"trials": 10, "seed": 0, "mode": "ghz",
                  "fixed_settings": ((0.0, float("inf"), 0.0, 0.0),)},
                 id="kwargs7"),
    pytest.param({"trials": 10, "seed": 0, "mode": "ghz",
                  "fixed_settings": ((0.0, 45.0),)},
                 id="kwargs8"),
    pytest.param({"trials": 10, "seed": 0,
                  "fixed_settings": ((0.0, 45.0), (0.0, 45.0, 90.0))},
                 id="kwargs9"),
    pytest.param({"trials": 10, "seed": 0, "bin_width_deg": 0.0},
                 id="kwargs10"),
    pytest.param({"trials": 10, "seed": 0, "bin_width_deg": 0.005},
                 id="kwargs11"),
    pytest.param({"trials": 10, "seed": 0, "bin_width_deg": float("nan")},
                 id="kwargs12"),
    pytest.param({"trials": 10, "seed": 0, "bin_width_deg": 400.0},
                 id="kwargs13"),
    pytest.param({"trials": 10, "seed": 1.5}, id="kwargs14"),
    pytest.param({"trials": 10, "seed": "3"}, id="kwargs15"),
    pytest.param({"trials": 10, "seed": True}, id="kwargs16"),
    pytest.param({"trials": True, "seed": 0}, id="kwargs17"),
    pytest.param({"trials": 10.0, "seed": 0}, id="kwargs18"),
    pytest.param({"trials": 10, "seed": 0, "bin_width_deg": True},
                 id="kwargs19"),
    pytest.param({"trials": 10, "seed": 0, "bin_width_deg": "5"},
                 id="kwargs20"),
    pytest.param({"trials": 10, "seed": 0, "fixed_settings": (("30", "45"),)},
                 id="kwargs21"),
    pytest.param({"trials": 10, "seed": 0, "fixed_settings": ((True, 45.0),)},
                 id="kwargs22"),
    pytest.param({"trials": 10, "seed": 0, "mode": ["epr"]}, id="kwargs23"),
    pytest.param({"trials": 10, "seed": 0, "fixed_settings": 5},
                 id="kwargs24"),
    pytest.param({"trials": 10, "seed": 0, "fixed_settings": (5,)},
                 id="kwargs25"),
])
def test_config_rejections(kwargs):
    with pytest.raises(ConfigError):
        TrialConfig(**kwargs)


def test_fixed_settings_alone_select_the_fixed_list():
    # no other field is needed: the settings themselves pick the source
    (batch,) = engine._batches(TrialConfig(trials=4, seed=0, mode="epr",
                                           fixed_settings=((0.0, 45.0),)))
    assert np.array_equal(batch.phis, np.tile([0.0, 45.0], (4, 1)))
    assert_allclose(batch.corr, -math.cos(math.radians(45.0)), atol=1e-12)
    # lists are stored as tuples, so the frozen config hashes
    listed = TrialConfig(trials=4, seed=0, mode="epr",
                         fixed_settings=[[0.0, 45.0]])
    assert {listed} == {TrialConfig(trials=4, seed=0, mode="epr",
                                    fixed_settings=((0.0, 45.0),))}
    for bad in (((float("nan"), 45.0),), ((0.0, 45.0, 90.0),)):
        with pytest.raises(ConfigError):
            TrialConfig(trials=4, seed=0, mode="epr", fixed_settings=bad)


def test_trial_count_must_fit_in_int64():
    # the bin counts and the cycled setting index are int64; the largest
    # count is accepted, though never run here
    cfg = TrialConfig(trials=2 ** 63 - 1, seed=0, mode="ghz",
                      fixed_settings=((0.0, 45.0, 90.0, 135.0),))
    assert cfg.trials == 2 ** 63 - 1
    with pytest.raises(ConfigError, match=r"trials must be below 2\*\*63"):
        TrialConfig(trials=2 ** 63, seed=0)


def test_finest_bin_width_is_accepted():
    summary = stream_trials(TrialConfig(trials=100, seed=0, mode="epr",
                                        bin_width_deg=0.01))
    assert sum(b["count"] for b in summary["bins"]) == 100


def test_numpy_integer_fields_are_accepted():
    cfg = TrialConfig(trials=np.int64(100), seed=np.uint64(5), mode="ghz")
    want = TrialConfig(trials=100, seed=5, mode="ghz")
    assert cfg == want
    assert all(type(getattr(cfg, f)) is int for f in ("trials", "seed"))
    assert (json.dumps(stream_trials(cfg))
            == json.dumps(stream_trials(want)))


def test_every_exported_name_resolves():
    # the public surface is pinned: a name added or removed shows up here
    assert set(septenary.__all__) == {
        "ArityUnsupported", "ConfigError", "DegenerateInput", "EmptyInput",
        "SeptenaryError", "TrialConfig", "chsh_bound", "chsh_scan",
        "detector", "epr_expectation", "ghz_direction_expectation",
        "ghz_expectation", "ghz_role_scalar_part", "make_pair_general",
        "make_pair_ghz", "make_pair_planar", "measure", "mv_mul", "mv_norm",
        "nfold_scalar_part", "paired_product", "quadric_defect",
        "recover_source_axis", "stereo_phi", "stereo_psi", "stream_trials",
    }
    assert len(septenary.__all__) == 26
    assert len(septenary.__all__) == len(set(septenary.__all__))
    for name in septenary.__all__:
        assert hasattr(septenary, name), name


# ---------------------------------------------------------------------------
# four-term scan

def test_analytic_scan_hits_the_ceiling():
    scan = chsh_scan(5.0)
    assert scan["max_abs_S"] == pytest.approx(2.0 * ROOT2, abs=1e-12)
    assert scan["max_abs_S"] <= 2.0 * ROOT2 + 1e-9
    assert scan["argmax_deg"] == {"a": 0.0, "a_prime": 90.0,
                                  "b": 225.0, "b_prime": 135.0}
    assert scan["S_at_max"] == pytest.approx(2.0 * ROOT2, abs=1e-12)


def test_simulated_scan_agrees_with_the_analytic_one():
    # every event reproduces the cosine exactly, so one trial per separation
    # lands on the analytic ceiling when the grid contains the optimum
    scan = chsh_scan(45.0, source="simulated")
    assert scan["max_abs_S"] == pytest.approx(2.0 * ROOT2, abs=1e-9)


def test_scan_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        chsh_scan(0.0)
    with pytest.raises(ConfigError):
        chsh_scan(0.09)
    with pytest.raises(ConfigError):
        chsh_scan(120.0)
    with pytest.raises(ConfigError):
        chsh_scan(5.0, source="guesswork")


@pytest.mark.parametrize("step", [50.0, 7.0, 0.7])
def test_scan_rejects_steps_that_do_not_divide_360(step):
    # the (j - i) mod ng lookup is an angle difference only on a closed
    # circle; these steps used to report 3.136, 2.877 and 2.835 > 2 sqrt 2
    with pytest.raises(ConfigError, match="grid step must divide 360"):
        chsh_scan(step)


def test_finest_scan_stays_under_the_ceiling():
    scan = chsh_scan(0.1)
    assert scan["max_abs_S"] <= 2.0 * ROOT2 + 1e-12
    assert scan["max_abs_S"] == pytest.approx(2.0 * ROOT2, abs=1e-12)


def _pair_detectors(deltas_deg):
    """The stacked detectors of settings 0 and delta, from the row-array
    cos/sin calls the engine makes."""
    rows = np.array([np.zeros(len(deltas_deg)), deltas_deg])
    return [detector(make_pair_planar(np.stack(
                [np.cos(np.radians(r)), np.sin(np.radians(r)),
                 np.zeros(len(r))], axis=1)))
            for r in rows]


def _loop_scan(grid_deg, source="analytic", e_of_delta=None):
    """The full O(ng^3) scan: every (ng, ng) table of S, argmax row-major.

    ``e_of_delta`` holds E at each grid separation, -cos by default.
    """
    grid = np.arange(0.0, 360.0, float(grid_deg))
    if e_of_delta is None:
        e_of_delta = -np.cos(np.radians(grid))
    ng = len(grid)

    def e_lookup(i, j):
        return e_of_delta[np.mod(j - i, ng)]

    idx = np.arange(ng)
    best_abs, best = -1.0, (0, 0, 0, 0)
    zero = np.zeros(1, dtype=np.int64)
    for iap in range(ng):
        s = (e_lookup(zero, idx)[:, None]
             + e_lookup(zero, idx)[None, :]
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


@pytest.mark.parametrize("step", [float(d) for d in range(1, 91)
                                  if 360 % d == 0] + [0.5])
def test_scan_matches_the_full_loop(step):
    assert chsh_scan(step) == _loop_scan(step)


@pytest.mark.parametrize("step", [0.5, 0.1])
def test_simulated_expectation_is_the_stacked_pair_product(step):
    # one trial per separation: the scalar of the +1 product of the two
    # detectors, bit for bit, which the reversed -1 product equals
    grid = np.arange(0.0, 360.0, step)
    dets = _pair_detectors(grid)
    want = mv_mul(*dets, 1, scalar_only=True) + 0.0
    got = engine._pair_expectation_simulated(grid)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(paired_product(dets, -1)[:, SCALAR], want)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("step", [15.0, 30.0])
def test_simulated_scan_matches_the_full_loop(step, seed):
    # the loop's E picks each separation's coin from a seeded stream; the
    # scan takes no seed, and whatever the coins it gives the same result
    grid = np.arange(0.0, 360.0, step)
    dets = _pair_detectors(grid)
    lam = engine._flip_batch(batch_stream(seed, 0), len(grid))
    e = np.where(lam == 1, paired_product(dets, 1)[:, SCALAR],
                 paired_product(dets, -1)[:, SCALAR]) + 0.0
    assert chsh_scan(step, "simulated") == _loop_scan(step, "simulated", e)


_TIE_STEPS = (20.0, 24.0, 30.0, 36.0, 40.0, 45.0, 60.0, 72.0, 90.0)
_tied_tables = st.sampled_from(_TIE_STEPS).flatmap(
    lambda step: st.tuples(st.just(step), st.lists(
        st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
        min_size=round(360 / step), max_size=round(360 / step))))


@settings(max_examples=200, deadline=None)
@given(_tied_tables)
def test_scan_breaks_exact_ties_like_the_full_loop(table):
    # values on a coarse lattice make many (a', b, b') reach the same |S|
    step, values = table
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_pair_expectation_simulated",
                   lambda grid: np.array(values))
        assert (chsh_scan(step, "simulated")
                == _loop_scan(step, "simulated", np.array(values)))
