import csv
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from septenary.algebra import Multivector, mv_mul, scalar_part
from septenary.engine import (
    TrialConfig,
    batch_stream,
    chsh_scan,
    flip_lambda,
    gauss_pairs,
    paired_product,
    random_planar_direction,
    run_epr,
    run_ghz,
    run_trials,
)
from septenary.errors import ConfigError, EmptyInput
from septenary.spin import detector, make_pair_planar

from frozen import (
    BOX_MULLER_Z1_SEED0,
    BOX_MULLER_Z2_SEED0,
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
    gen = batch_stream(0, 0)
    flips = np.array([flip_lambda(gen) for _ in range(8)])
    assert np.array_equal(flips, np.array(FLIPS_SEED0))
    assert set(np.unique(flips)) <= {-1, 1}


def test_box_muller_goldens():
    # same stream read twice: the first 8 uniforms feed the first 4 pairs
    gen = batch_stream(0, 0)
    z1, z2 = gauss_pairs(gen, 4)
    assert np.array_equal(z1, np.array(BOX_MULLER_Z1_SEED0))
    assert np.array_equal(z2, np.array(BOX_MULLER_Z2_SEED0))


def test_batch_streams_are_distinct_and_stable():
    a = batch_stream(9, 0).random(4)
    b = batch_stream(9, 1).random(4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, batch_stream(9, 0).random(4))


def test_planar_direction_is_unit():
    gen = batch_stream(5, 0)
    for _ in range(200):
        v = random_planar_direction(gen)
        assert v.shape == (3,)
        assert v[2] == 0.0
        assert np.hypot(v[0], v[1]) == pytest.approx(1.0, abs=1e-12)


def test_setting_azimuths_are_uniform():
    run = run_epr(TrialConfig(trials=100000, seed=123, mode="epr"))
    counts, _ = np.histogram(run.phis_deg[:, 0], bins=36, range=(-180.0, 180.0))
    expected = run.config.trials / 36.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 == pytest.approx(CHI2_PHI_A_SEED123, abs=1e-9)
    assert chi2 < CHI2_CRITICAL_35DOF


def test_coin_is_fair_over_a_long_run():
    run = run_epr(TrialConfig(trials=1000000, seed=2026, mode="epr"))
    mean = float(run.lam.mean())
    assert mean == LAMBDA_MEAN_SEED2026
    assert abs(mean) < 0.005


# ---------------------------------------------------------------------------
# determinism

def test_repeat_runs_are_identical():
    cfg = TrialConfig(trials=5000, seed=42, mode="epr")
    r1, r2 = run_trials(cfg), run_trials(cfg)
    assert np.array_equal(r1.lam, r2.lam)
    assert np.array_equal(r1.phis_deg, r2.phis_deg)
    assert np.array_equal(r1.outcomes, r2.outcomes)
    assert np.array_equal(r1.corr, r2.corr)


def test_thread_count_does_not_change_results():
    base = TrialConfig(trials=3000, seed=8, mode="ghz", batch_size=256)
    threaded = TrialConfig(trials=3000, seed=8, mode="ghz", batch_size=256,
                           threads=4)
    r1, r2 = run_trials(base), run_trials(threaded)
    assert np.array_equal(r1.lam, r2.lam)
    assert np.array_equal(r1.phis_deg, r2.phis_deg)
    assert np.array_equal(r1.corr, r2.corr)


@pytest.mark.parametrize("trials", [5, 8193])
def test_partial_batches_are_handled(trials):
    run = run_epr(TrialConfig(trials=trials, seed=3, mode="epr"))
    assert run.lam.shape == (trials,)
    assert run.phis_deg.shape == (trials, 2)
    assert run.corr.shape == (trials,)
    assert run.summary.trials == trials


def test_seed_changes_the_run():
    a = run_epr(TrialConfig(trials=1000, seed=1, mode="epr"))
    b = run_epr(TrialConfig(trials=1000, seed=2, mode="epr"))
    assert not np.array_equal(a.phis_deg, b.phis_deg)


# ---------------------------------------------------------------------------
# per-event correlations

def test_epr_per_event_matches_the_cosine():
    run = run_epr(TrialConfig(trials=2000, seed=17, mode="epr"))
    want = -np.cos(np.radians(run.angle_keys_deg()))
    assert_allclose(run.corr, want, rtol=0.0, atol=1e-12)


def test_ghz_per_event_matches_the_cosine():
    run = run_ghz(TrialConfig(trials=2000, seed=19, mode="ghz"))
    want = -np.cos(np.radians(run.angle_keys_deg()))
    assert_allclose(run.corr, want, rtol=0.0, atol=1e-12)


def test_outcome_columns_follow_the_coin():
    run = run_epr(TrialConfig(trials=500, seed=23, mode="epr"))
    assert np.array_equal(run.outcomes[:, 0], run.lam)
    assert np.array_equal(run.outcomes[:, 1], -run.lam)
    prod = run.outcomes.prod(axis=1)
    assert np.all(prod == -1)

    run = run_ghz(TrialConfig(trials=500, seed=23, mode="ghz"))
    signs = np.array([1, -1, 1, -1])
    assert np.array_equal(run.outcomes, np.outer(run.lam, signs))
    assert np.all(run.outcomes.prod(axis=1) == 1)


def test_fixed_epr_settings_are_echoed():
    cfg = TrialConfig(trials=64, seed=0, mode="epr",
                      setting_source="fixed-list",
                      fixed_settings=((30.0, 75.0),))
    run = run_trials(cfg)
    assert np.all(run.phis_deg[:, 0] == 30.0)
    assert np.all(run.phis_deg[:, 1] == 75.0)
    assert_allclose(run.corr, -math.cos(math.radians(45.0)), atol=1e-12)


def test_fixed_lists_cycle_across_batches():
    cfg = TrialConfig(trials=10, seed=0, mode="epr", batch_size=4,
                      setting_source="fixed-list",
                      fixed_settings=((0.0, 45.0), (0.0, 90.0)))
    run = run_trials(cfg)
    assert np.array_equal(run.phis_deg[:, 1],
                          np.where(np.arange(10) % 2 == 0, 45.0, 90.0))


def test_out_of_range_epr_settings_are_wrapped():
    cfg = TrialConfig(trials=8, seed=0, mode="epr",
                      setting_source="fixed-list",
                      fixed_settings=((0.0, 190.0),))
    run = run_trials(cfg)
    assert np.all(run.phis_deg[:, 1] == -170.0)
    assert_allclose(run.corr, -math.cos(math.radians(190.0)), atol=1e-12)


def test_fixed_ghz_settings_are_echoed():
    cfg = TrialConfig(trials=32, seed=0, mode="ghz",
                      setting_source="fixed-list",
                      fixed_settings=((10.0, 20.0, 30.0, 40.0),))
    run = run_trials(cfg)
    assert np.array_equal(run.phis_deg,
                          np.tile([10.0, 20.0, 30.0, 40.0], (32, 1)))
    # Phi = 10 + 20 - 30 - 40 = -40
    assert_allclose(run.corr, -math.cos(math.radians(-40.0)), atol=1e-12)


@pytest.mark.parametrize("angles,want", [
    ((0.0, 0.0, 0.0, 0.0), -1.0),
    ((180.0, 0.0, 0.0, 0.0), 1.0),
    ((90.0, 90.0, 0.0, 0.0), 1.0),
])
def test_ghz_disproof_points_hold_every_event(angles, want):
    cfg = TrialConfig(trials=256, seed=11, mode="ghz",
                      setting_source="fixed-list", fixed_settings=(angles,))
    run = run_trials(cfg)
    assert_allclose(run.corr, want, rtol=0.0, atol=1e-12)


def test_random_run_correlations_take_both_signs():
    run = run_ghz(TrialConfig(trials=4000, seed=29, mode="ghz"))
    assert (run.corr > 0.0).any()
    assert (run.corr < 0.0).any()


# ---------------------------------------------------------------------------
# detector products

def _planar_detector(deg):
    rad = math.radians(deg)
    return detector(make_pair_planar((math.cos(rad), math.sin(rad), 0.0)))


def test_paired_product_of_equal_settings_is_minus_one():
    d = _planar_detector(30.0)
    out = paired_product([d, d], 1)
    assert out.coeffs[0] == pytest.approx(-1.0, abs=1e-12)
    assert np.all(out.coeffs[1:] == 0.0)


def test_paired_product_reverses_under_the_coin():
    ds = [_planar_detector(a) for a in (10.0, 40.0, 75.0)]
    flipped = paired_product(ds, -1)
    elems = [d.element_at(-1) for d in reversed(ds)]
    want = mv_mul(mv_mul(elems[0], elems[1]), elems[2])
    assert_allclose(flipped.coeffs, want.coeffs, rtol=0.0, atol=0.0)


def test_paired_product_argument_errors():
    d = _planar_detector(0.0)
    with pytest.raises(EmptyInput):
        paired_product([d], 1)
    with pytest.raises(ValueError):
        paired_product([d, d], 0)


def test_coin_average_leaves_a_pure_scalar():
    a, b = _planar_detector(20.0), _planar_detector(65.0)
    plus = paired_product([a, b], 1)
    minus = paired_product([a, b], -1).reoriented(1)
    ave = 0.5 * (plus.coeffs + minus.coeffs)
    assert np.all(ave[1:] == 0.0)
    assert ave[0] == pytest.approx(-math.cos(math.radians(45.0)), abs=1e-12)


# ---------------------------------------------------------------------------
# summaries and serialization

def test_summary_bins_match_a_manual_count():
    run = run_epr(TrialConfig(trials=20000, seed=31, mode="epr"))
    width = run.config.bin_width_deg
    nbins = int(math.ceil(360.0 / width))
    idx = np.minimum((run.angle_keys_deg() / width).astype(np.int64), nbins - 1)
    counts = np.bincount(idx, minlength=nbins)
    sums = np.bincount(idx, weights=run.corr, minlength=nbins)
    got = {b.angle_deg: (b.mean_corr, b.count) for b in run.summary.bins}
    for i in range(nbins):
        if counts[i] == 0:
            continue
        center = (i + 0.5) * width
        assert got[center] == (sums[i] / counts[i], int(counts[i]))
    assert sum(b.count for b in run.summary.bins) == run.config.trials


def test_summary_outcome_averages():
    run = run_epr(TrialConfig(trials=20000, seed=37, mode="epr"))
    aves = run.summary.ave_outcomes
    assert set(aves) == {"A", "B"}
    assert aves["A"] == float(run.outcomes[:, 0].mean())
    assert aves["B"] == -aves["A"]


def test_csv_round_trip(tmp_path):
    run = run_epr(TrialConfig(trials=200, seed=41, mode="epr"))
    path = tmp_path / "run.csv"
    run.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 200
    for row, rec in zip(rows, run.iter_records()):
        assert int(row["k"]) == rec.k
        assert int(row["lambda"]) == rec.lam
        assert float(row["phi_a"]) == rec.phis_deg[0]
        assert float(row["phi_b"]) == rec.phis_deg[1]
        assert (int(row["A"]), int(row["B"])) == rec.outcomes
        assert float(row["corr"]) == rec.corr


def test_summary_json_round_trip(tmp_path):
    run = run_ghz(TrialConfig(trials=300, seed=43, mode="ghz"))
    path = tmp_path / "summary.json"
    run.write_summary_json(path)
    with open(path) as fh:
        data = json.load(fh)
    assert data == run.summary.to_dict()
    assert data["mode"] == "ghz"
    assert data["seed_source"] == "flag"


# ---------------------------------------------------------------------------
# configuration validation

@pytest.mark.parametrize("kwargs", [
    {"trials": 0, "seed": 0},
    {"trials": -5, "seed": 0},
    {"trials": 10, "seed": -1},
    {"trials": 10, "seed": 2 ** 64},
    {"trials": 10, "seed": 0, "mode": "what"},
    {"trials": 10, "seed": 0, "setting_source": "psychic"},
    {"trials": 10, "seed": 0, "setting_source": "fixed-list"},
    {"trials": 10, "seed": 0, "setting_source": "fixed-list",
     "fixed_settings": ((1.0, 2.0, 3.0),)},
    {"trials": 10, "seed": 0, "setting_source": "fixed-list",
     "fixed_settings": ((0.0, 0.0), (float("nan"), 0.0))},
    {"trials": 10, "seed": 0, "mode": "ghz", "setting_source": "fixed-list",
     "fixed_settings": ((0.0, float("inf"), 0.0, 0.0),)},
    {"trials": 10, "seed": 0, "bin_width_deg": 0.0},
    {"trials": 10, "seed": 0, "bin_width_deg": 400.0},
    {"trials": 10, "seed": 0, "batch_size": 0},
    {"trials": 10, "seed": 0, "threads": 0},
])
def test_config_rejections(kwargs):
    with pytest.raises(ConfigError):
        TrialConfig(**kwargs)


def test_mode_guards_on_the_wrappers():
    with pytest.raises(ConfigError):
        run_epr(TrialConfig(trials=10, seed=0, mode="ghz"))
    with pytest.raises(ConfigError):
        run_ghz(TrialConfig(trials=10, seed=0, mode="epr"))


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
    # every event reproduces the cosine exactly, so even a small simulated
    # run lands on the analytic ceiling when the grid contains the optimum
    scan = chsh_scan(45.0, source="simulated", seed=3, trials_per_setting=128)
    assert scan["max_abs_S"] == pytest.approx(2.0 * ROOT2, abs=1e-9)


def test_scan_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        chsh_scan(0.0)
    with pytest.raises(ConfigError):
        chsh_scan(120.0)
    with pytest.raises(ConfigError):
        chsh_scan(5.0, source="guesswork")
