"""End-to-end acceptance gate.

One test per shipped claim, each with its stated tolerance and, where a
budget applies, a wall-clock assertion. Run with -v to get one pass/fail
line per criterion.
"""

import math
import time
from functools import reduce

import numpy as np
import pytest

from septenary.algebra import mv_mul
from septenary.conformal import stereo_phi, stereo_psi
from septenary import engine
from septenary.engine import TrialConfig, chsh_scan, stream_trials
from septenary.oracle import chsh_bound, ghz_direction_expectation, ghz_role_scalar_part
from septenary.spin import (
    detector,
    make_pair_ghz,
    make_pair_planar,
    measure,
    recover_source_axis,
)

from frozen import PRODUCT_TABLE

ROOT2 = math.sqrt(2.0)


def _unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _dense(rng, n):
    return rng.standard_normal((n, 8))


def _quadric_sample(rng, n):
    """Unit elements on the lam=+1 orthogonality locus."""
    c = rng.standard_normal((n, 8))
    while True:
        bad = np.abs(c[:, 7]) < 0.1
        if not bad.any():
            break
        c[bad] = rng.standard_normal((int(bad.sum()), 8))
    c[:, 0] = (c[:, 1] * c[:, 6] + c[:, 2] * c[:, 5]
               + c[:, 3] * c[:, 4]) / c[:, 7]
    return c / np.linalg.norm(c, axis=1)[:, None]


def test_criterion_01_product_table_exact_both_orientations():
    start = time.perf_counter()
    for lam in (1, -1):
        for mu in range(1, 8):
            for nu in range(1, 8):
                sign, blade, lam_power = PRODUCT_TABLE[(mu, nu)]
                got = mv_mul(np.eye(8)[mu], np.eye(8)[nu], lam)
                want = np.zeros(8)
                want[blade] = sign * lam ** lam_power
                assert np.array_equal(got, want), (mu, nu, lam)
        # identity row and column
        for k in range(8):
            e = np.zeros(8)
            e[k] = 1.0
            assert np.array_equal(mv_mul(np.eye(8)[0], e, lam), e)
            assert np.array_equal(mv_mul(e, np.eye(8)[0], lam), e)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_associativity_exact_and_dense():
    start = time.perf_counter()
    for lam in (1, -1):
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    a = mv_mul(np.eye(8)[i], np.eye(8)[j], lam)
                    left = mv_mul(a, np.eye(8)[k], lam)
                    b = mv_mul(np.eye(8)[j], np.eye(8)[k], lam)
                    right = mv_mul(np.eye(8)[i], b, lam)
                    assert np.array_equal(left, right), (i, j, k)
    rng = np.random.default_rng(2020)
    for lam in (1, -1):
        x, y, z = (_dense(rng, 10000) for _ in range(3))
        left = mv_mul(mv_mul(x, y, lam), z, lam)
        right = mv_mul(x, mv_mul(y, z, lam), lam)
        scale = np.maximum(1.0, np.maximum(
            np.linalg.norm(left, axis=1), np.linalg.norm(right, axis=1)))
        rel = np.linalg.norm(left - right, axis=1) / scale
        assert rel.max() <= 1e-12
    assert time.perf_counter() - start < 10.0


def test_criterion_03_norm_composition_on_the_quadric():
    rng = np.random.default_rng(30)
    x = _quadric_sample(rng, 10000)
    y = _quadric_sample(rng, 10000)
    prod = mv_mul(x, y, 1)
    defect = np.abs(np.linalg.norm(prod, axis=1)
                    - np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1))
    assert defect.max() <= 1e-10


def test_criterion_04_epr_run_reproduces_the_negative_cosine():
    start = time.perf_counter()
    m = 200000
    cfg = TrialConfig(trials=m, seed=7, mode="epr")
    width = cfg.bin_width_deg
    nbins = int(math.ceil(360.0 / width))
    counts, sim, want = (np.zeros(nbins) for _ in range(3))
    for batch in engine._batches(cfg):
        keys = engine._angle_keys(cfg.mode, batch.phis)
        oracle = -np.cos(np.radians(keys))
        assert np.abs(batch.corr - oracle).max() <= 1e-9
        idx = np.minimum((keys / width).astype(np.int64), nbins - 1)
        counts += np.bincount(idx, minlength=nbins)
        sim += np.bincount(idx, weights=batch.corr, minlength=nbins)
        want += np.bincount(idx, weights=oracle, minlength=nbins)
    mask = counts > 0
    assert np.abs(sim[mask] / counts[mask]
                  - want[mask] / counts[mask]).max() <= 1e-9

    summary = stream_trials(cfg)
    bound = 5.0 / math.sqrt(m)
    assert abs(summary["ave_outcomes"]["A"]) <= bound
    assert abs(summary["ave_outcomes"]["B"]) <= bound
    assert time.perf_counter() - start <= 10.0


def test_criterion_05_ghz_run_reproduces_the_negative_cosine():
    start = time.perf_counter()
    cfg = TrialConfig(trials=200000, seed=7, mode="ghz")
    for b in stream_trials(cfg)["bins"]:
        assert abs(b["mean_corr"]
                   + math.cos(math.radians(b["angle_deg"]))) <= 0.01
    corr = np.concatenate([b.corr for b in engine._batches(cfg)])
    assert (corr > 0.0).any() and (corr < 0.0).any()

    products = []
    for angles, want in (((0.0, 0.0, 0.0, 0.0), -1.0),
                         ((180.0, 0.0, 0.0, 0.0), 1.0)):
        (fixed,) = engine._batches(TrialConfig(
            trials=4096, seed=7, mode="ghz", fixed_settings=(angles,)))
        assert np.abs(fixed.corr - want).max() <= 1e-9
        products.append(float(np.sign(fixed.corr.mean())))
    assert sorted(products) == [-1.0, 1.0]
    assert time.perf_counter() - start <= 20.0


def test_criterion_06_role_mapped_product_equals_the_closed_form():
    rng = np.random.default_rng(60)
    for _ in range(100):
        dirs = [_unit(rng) for _ in range(4)]
        pairs = [make_pair_ghz(d, role) for d, role in zip(dirs, "ABCD")]
        got = ghz_role_scalar_part(pairs)
        want = ghz_direction_expectation(*dirs)
        assert abs(got - want) <= 1e-10


def test_criterion_07_four_term_scan_stays_under_the_ceiling():
    scan = chsh_scan(5.0)
    assert abs(scan["max_abs_S"] - 2.0 * ROOT2) <= 0.01
    assert scan["max_abs_S"] <= 2.0 * ROOT2 + 1e-9
    rng = np.random.default_rng(70)
    for _ in range(10000):
        vals = chsh_bound(_unit(rng), _unit(rng), _unit(rng), _unit(rng))
        assert vals <= 2.0 * ROOT2


def test_criterion_08_source_squares_and_similarity():
    rng = np.random.default_rng(80)
    for _ in range(10000):
        t = rng.uniform(-math.pi, math.pi)
        det = detector(make_pair_planar((math.cos(t), math.sin(t), 0.0)))
        lam = 1 if rng.random() < 0.5 else -1
        n = lam * det
        sq = mv_mul(n, n, lam)
        assert np.all(sq[1:] == 0.0)
        assert abs(sq[0] + 1.0) <= 1e-12
    for _ in range(2000):
        detector_axis = _unit(rng)
        source_axis = _unit(rng)
        back = recover_source_axis(detector_axis, source_axis)
        assert np.abs(back - source_axis).max() <= 1e-12


def test_criterion_09_sphere_maps_are_unit_and_limit_correctly():
    rng = np.random.default_rng(90)
    for _ in range(10000):
        x = rng.standard_normal(3) * 10.0 ** rng.integers(-3, 4)
        psi = stereo_psi(x)
        norm = math.sqrt(sum(v * v for v in psi[:3]) + psi[3] ** 2)
        assert abs(norm - 1.0) <= 1e-12
    pole = np.array([0.0, 0.0, 0.0, 2.0])
    for direction in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                      (0.0, 0.0, 1.0), (0.6, -0.8, 0.0)):
        phi = stereo_phi(np.array(direction) * 1e8)
        assert np.abs(phi - pole).max() <= 1e-7


def test_criterion_10_measurement_map_products_are_exact_signs():
    rng = np.random.default_rng(100)
    for _ in range(1000):
        lam = 1 if rng.random() < 0.5 else -1
        t1, t2 = rng.uniform(-math.pi, math.pi, 2)
        da = detector(make_pair_planar((math.cos(t1), math.sin(t1), 0.0)))
        db = detector(make_pair_planar((math.cos(t2), math.sin(t2), 0.0)))
        a = measure(da, lam, "first")
        b = measure(db, lam, "second")
        assert a in (-1, 1) and b in (-1, 1)
        assert a * b == -1

        t3, t4 = rng.uniform(-math.pi, math.pi, 2)
        dc = detector(make_pair_planar((math.cos(t3), math.sin(t3), 0.0)))
        dd = detector(make_pair_planar((math.cos(t4), math.sin(t4), 0.0)))
        outs = [measure(d, lam, side) for d, side in
                ((da, "first"), (db, "second"), (dc, "first"), (dd, "second"))]
        assert reduce(lambda p, q: p * q, outs) == 1
        assert all(o in (-1, 1) for o in outs)
