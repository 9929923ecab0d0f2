"""Time-series evaluation of the quench observables.

`compute_series` walks the configured time grid and emits one row per
time: single-site Bloch vector and purity, the nearest-neighbour Pauli
correlators and the concurrence.  `string_series` evaluates the dressed
string operators <X_j> on a list of sites, and `order_parameter_series`
is a lean path that only computes <sx>, <sy> for decay fits.

The time grid is cut into fixed-size blocks (EVAL_BLOCK points) and
each block pushes its parity-breaking part through the batched Pfaffian
kernel in one go, so the per-point cost stays close to the raw linear
algebra even on fine grids.  The partition depends only on the grid,
never on the worker count: numpy picks different SIMD kernels for
different stack shapes, and those can round an isolated multiply one
ulp apart, so evaluating identical blocks serially or across a pool is
what keeps emitted tables byte-reproducible.  The worker count defaults
to the ISINGRING_WORKERS environment variable, then to 1, and rows are
reassembled in grid order whatever the pool does.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from .even_observables import evaluate_even
from .model import QuenchConfig
from .odd_observables import (
    c_expectations_series,
    longitudinal_magnetization,
    odd_rdm_entries,
    string_signs,
)
from .rdm import assemble_two_site, concurrence, pauli_correlation

WORKER_ENV = "ISINGRING_WORKERS"

EVAL_BLOCK = 16

SERIES_COLUMNS = ("t", "sx", "sy", "sz", "purity",
                  "czz", "cxx", "cxy", "cxz", "concurrence")


@dataclass
class ObservableSeries:
    """Columnar time series plus the configuration that produced it."""

    config: QuenchConfig
    columns: dict[str, np.ndarray]

    @property
    def times(self) -> np.ndarray:
        return self.columns["t"]

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]


def _full_rows(config: QuenchConfig, times, sites) -> list[tuple]:
    pairs = [config.amplitudes(float(t)) for t in times]
    c12 = c_expectations_series(pairs, config.n_sites, (1, 2))
    rows = []
    for t, (even, odd), (c1, c2) in zip(times, pairs, c12):
        ev = evaluate_even(even, odd, config.n_sites)
        rho = assemble_two_site(ev, *odd_rdm_entries(c1, c2))
        sx, sy = longitudinal_magnetization(c1)
        rows.append((
            float(t), sx, sy, ev.sz, rho.reduce(1).purity(),
            pauli_correlation(rho, "z", "z"),
            pauli_correlation(rho, "x", "x"),
            pauli_correlation(rho, "x", "y"),
            pauli_correlation(rho, "x", "z"),
            concurrence(rho),
        ))
    return rows


def _string_rows(config: QuenchConfig, times, sites) -> list[tuple]:
    pairs = [config.amplitudes(float(t)) for t in times]
    c = c_expectations_series(pairs, config.n_sites, sites)
    x = string_signs(sites) * 2.0 * c.real
    return [(float(t), *row) for t, row in zip(times, x)]


def _order_rows(config: QuenchConfig, times, sites) -> list[tuple]:
    pairs = [config.amplitudes(float(t)) for t in times]
    c1 = c_expectations_series(pairs, config.n_sites, (1,))[:, 0]
    return [(float(t), *longitudinal_magnetization(c)) for t, c in zip(times, c1)]


def observables_at(config: QuenchConfig, t: float) -> dict[str, float]:
    """All series columns at a single time, keyed by column name."""
    (row,) = _full_rows(config, [t], ())
    return dict(zip(SERIES_COLUMNS, row))


def _worker(task) -> list[tuple]:
    rows, config, times, sites = task
    return rows(config, times, sites)


def resolve_workers(workers: int | None) -> int:
    """Explicit count, else the ISINGRING_WORKERS variable, else 1."""
    if workers is None:
        workers = int(os.environ.get(WORKER_ENV, "1"))
    if workers < 1:
        raise ValueError("worker count must be at least 1")
    return workers


def _run(rows_fn, config: QuenchConfig, names, sites, workers) -> ObservableSeries:
    """Evaluate `rows_fn` block by block; it must be module-level to pickle."""
    workers = resolve_workers(workers)
    times = config.time_grid
    blocks = [times[i:i + EVAL_BLOCK] for i in range(0, times.size, EVAL_BLOCK)]
    tasks = [(rows_fn, config, block, sites) for block in blocks]
    if workers == 1 or len(tasks) == 1:
        parts = [_worker(task) for task in tasks]
    else:
        with Pool(processes=workers) as pool:
            parts = pool.map(_worker, tasks)
    rows = [row for part in parts for row in part]
    data = np.asarray(rows, dtype=float)
    columns = {name: data[:, i].copy() for i, name in enumerate(names)}
    return ObservableSeries(config, columns)


def compute_series(config: QuenchConfig, workers: int | None = None) -> ObservableSeries:
    """Full observable set along the configured time grid."""
    return _run(_full_rows, config, SERIES_COLUMNS, (), workers)


def string_series(config: QuenchConfig, sites,
                  workers: int | None = None) -> ObservableSeries:
    """<X_j> columns (named x{j}) for each site j in `sites`."""
    sites = tuple(int(s) for s in np.atleast_1d(sites))
    names = ("t", *(f"x{j}" for j in sites))
    return _run(_string_rows, config, names, sites, workers)


def order_parameter_series(config: QuenchConfig,
                           workers: int | None = None) -> ObservableSeries:
    """Only <sx>, <sy> of site 1, for decay and revival studies."""
    return _run(_order_rows, config, ("t", "sx", "sy"), (), workers)
