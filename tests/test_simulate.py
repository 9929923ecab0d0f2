import os
import sys
import time

import numpy as np
import pytest

from isingring import odd_observables, simulate
from isingring.model import QuenchConfig, momentum_grids
from isingring.odd_observables import _kernel, block_times
from isingring.simulate import (
    SERIES_COLUMNS,
    compute_series,
    order_parameter_series,
    resolve_workers,
    string_series,
)


def small_config(n=6, g=1.2, t_max=2.0, points=9):
    return QuenchConfig(n, g, np.linspace(0.0, t_max, points))


def one_point(cfg, t):
    """All series columns at a single time, from a one-point grid."""
    series = compute_series(QuenchConfig(cfg.n_sites, cfg.field_g, [t]))
    return {name: column[0] for name, column in series.columns.items()}


def test_one_point_series_keys():
    obs = one_point(small_config(), 0.7)
    assert tuple(obs) == SERIES_COLUMNS
    assert obs["t"] == pytest.approx(0.7)


def test_series_matches_pointwise_evaluation():
    cfg = small_config()
    series = compute_series(cfg)
    for i, t in enumerate(cfg.time_grid):
        obs = one_point(cfg, float(t))
        for name in SERIES_COLUMNS:
            # concurrence takes square roots of near-zero eigenvalues, which
            # turns the one-ulp rounding spread between a single-time stack
            # and a blocked stack into ~1e-9; everything else is tight.
            tol = 1e-8 if name == "concurrence" else 1e-12
            assert series.column(name)[i] == pytest.approx(obs[name], abs=tol)


def test_initial_row_is_polarized_product_state():
    series = compute_series(small_config())
    row = {name: series.column(name)[0] for name in SERIES_COLUMNS}
    assert row["sx"] == pytest.approx(1.0)
    assert row["sy"] == pytest.approx(0.0, abs=1e-12)
    assert row["sz"] == pytest.approx(0.0, abs=1e-12)
    assert row["purity"] == pytest.approx(1.0)
    assert row["cxx"] == pytest.approx(1.0)
    assert row["concurrence"] == pytest.approx(0.0, abs=1e-6)


def test_worker_pool_reproduces_serial_rows():
    # enough points for several evaluation blocks, so the pool really runs
    cfg = small_config(points=2 * block_times(6) + 5)
    serial = compute_series(cfg, workers=1)
    pooled = compute_series(cfg, workers=2)
    for name in SERIES_COLUMNS:
        np.testing.assert_array_equal(serial.column(name), pooled.column(name))


def test_order_series_is_a_projection_of_the_full_one():
    cfg = small_config()
    full = compute_series(cfg)
    lean = order_parameter_series(cfg)
    np.testing.assert_allclose(lean.column("sx"), full.column("sx"), atol=1e-13)
    np.testing.assert_allclose(lean.column("sy"), full.column("sy"), atol=1e-13)


def test_string_series_columns_and_first_site():
    cfg = small_config()
    series = string_series(cfg, (1, 3))
    assert set(series.columns) == {"t", "x1", "x3"}
    # X_1 = sx_1, so the x1 column must equal the magnetization
    full = compute_series(cfg)
    np.testing.assert_allclose(series.column("x1"), full.column("sx"), atol=1e-12)


def test_times_property():
    cfg = small_config()
    series = order_parameter_series(cfg)
    np.testing.assert_array_equal(series.times, cfg.time_grid)


def test_worker_threads_run_every_block_in_this_process(monkeypatch):
    # 2 * block_times(6) + 5 times make three evaluation blocks; each
    # block's odd-path call must run here, not in a child whose records
    # would be lost
    kernel = simulate.c_expectations_series
    calls = []

    def recording(amps, n_sites, sites):
        calls.append(os.getpid())
        return kernel(amps, n_sites, sites)

    monkeypatch.setattr(simulate, "c_expectations_series", recording)
    compute_series(small_config(points=2 * block_times(6) + 5), workers=2)
    assert calls == [os.getpid()] * 3


def test_threads_building_shared_caches_reproduce_serial_rows():
    # more threads than blocks' worth of cores, switching often, while the
    # per-ring-size kernel and momentum grids are built concurrently
    cfg = QuenchConfig(14, 0.8, np.linspace(0.0, 6.0, 4 * block_times(14) + 16))
    serial = compute_series(cfg, workers=1)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        _kernel.cache_clear()
        momentum_grids.cache_clear()
        pooled = compute_series(cfg, workers=4)
    finally:
        sys.setswitchinterval(interval)
    for name in SERIES_COLUMNS:
        np.testing.assert_array_equal(serial.column(name), pooled.column(name))


def test_threads_missing_the_kernel_cache_together_build_it_once(monkeypatch):
    # three 16-time blocks on two threads, on a cold kernel cache; the slow
    # build keeps the first thread inside it while the second one misses
    init = odd_observables.CrossParityKernel.__init__
    built = []

    def slow_init(self, n_sites):
        built.append(n_sites)
        time.sleep(0.05)
        init(self, n_sites)

    monkeypatch.setattr(odd_observables.CrossParityKernel, "__init__", slow_init)
    _kernel.cache_clear()
    cfg = QuenchConfig(64, 1.0, np.linspace(0.0, 2.0, 3 * block_times(64)))
    compute_series(cfg, workers=2)
    assert built == [64]


class TestResolveWorkers:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_workers(0)
