"""Time-series evaluation of the quench observables.

`compute_series` reads columns off the two-site RDM along the configured
time grid: single-site Bloch vector and purity, the nearest-neighbour
Pauli correlators and the concurrence.  `string_series` evaluates the
dressed string operators <X_j> on a list of sites, and
`order_parameter_series` is a lean path that only computes <sx>, <sy>.

The time grid is cut into fixed-size blocks of EVAL_BLOCK points, the
cross-parity kernel's own batch, each
evaluated as arrays along its time axis: one amplitude set, one batched
Pfaffian pass and one (T, 4, 4) RDM stack per block.  The partition
depends only on the grid, never on the worker count: numpy picks
different SIMD kernels for different stack shapes, and those can round
an isolated multiply one ulp apart, so evaluating identical blocks
serially or across a pool is what keeps emitted tables byte-reproducible.
The worker count defaults to the ISINGRING_WORKERS environment variable,
then to 1, and blocks are reassembled in grid order whatever the pool
does.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from .even_observables import evaluate_even
from .model import QuenchConfig
from .odd_observables import (
    EVAL_BLOCK,
    c_expectations_series,
    longitudinal_magnetization,
    odd_rdm_entries,
    string_signs,
)
from .rdm import TwoSiteRDM, assemble_two_site, concurrence, pauli_correlation

WORKER_ENV = "ISINGRING_WORKERS"

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


def series_columns(rho: TwoSiteRDM) -> np.ndarray:
    """The SERIES_COLUMNS after "t" read off a two-site RDM (stack), (..., 9)."""
    one = rho.reduce(1)
    return np.stack([
        *np.moveaxis(one.bloch, -1, 0), one.purity(),
        *(pauli_correlation(rho, a, b) for a, b in ("zz", "xx", "xy", "xz")),
        concurrence(rho),
    ], axis=-1)


def _full_block(config: QuenchConfig, times, sites) -> np.ndarray:
    even, odd = config.amplitudes(times)
    c = c_expectations_series([(even, odd)], config.n_sites, (1, 2))
    bad = np.argwhere(~np.isfinite(c))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"<c_{col + 1}> is not finite at "
                         f"t = {format(float(times[row]), '.17g')}")
    c1, c2 = c.T
    ev = evaluate_even(even, odd, config.n_sites)
    return series_columns(assemble_two_site(ev, *odd_rdm_entries(c1, c2)))


def _string_block(config: QuenchConfig, times, sites) -> np.ndarray:
    c = c_expectations_series([config.amplitudes(times)], config.n_sites, sites)
    return string_signs(sites) * 2.0 * c.real


def _order_block(config: QuenchConfig, times, sites) -> np.ndarray:
    c1 = c_expectations_series([config.amplitudes(times)], config.n_sites, (1,))[:, 0]
    return np.stack(longitudinal_magnetization(c1), axis=-1)


def resolve_workers(workers: int | None) -> int:
    """Explicit count, else the ISINGRING_WORKERS variable, else 1."""
    if workers is None:
        workers = int(os.environ.get(WORKER_ENV, "1"))
    if workers < 1:
        raise ValueError("worker count must be at least 1")
    return workers


def _run(block_fn, config: QuenchConfig, names, sites, workers) -> ObservableSeries:
    """Evaluate `block_fn` block by block; it must be module-level to pickle."""
    workers = resolve_workers(workers)
    times = config.time_grid
    tasks = [(config, times[i:i + EVAL_BLOCK], sites)
             for i in range(0, times.size, EVAL_BLOCK)]
    if workers == 1 or len(tasks) == 1:
        parts = [block_fn(*task) for task in tasks]
    else:
        with Pool(processes=workers) as pool:
            parts = pool.starmap(block_fn, tasks)
    data = np.column_stack([times, np.concatenate(parts)])
    columns = {name: data[:, i].copy() for i, name in enumerate(names)}
    return ObservableSeries(config, columns)


def compute_series(config: QuenchConfig, workers: int | None = None) -> ObservableSeries:
    """Full observable set along the configured time grid."""
    return _run(_full_block, config, SERIES_COLUMNS, (), workers)


def string_series(config: QuenchConfig, sites,
                  workers: int | None = None) -> ObservableSeries:
    """<X_j> columns (named x{j}) for each site j in `sites`."""
    sites = tuple(int(s) for s in np.atleast_1d(sites))
    names = ("t", *(f"x{j}" for j in sites))
    return _run(_string_block, config, names, sites, workers)


def order_parameter_series(config: QuenchConfig,
                           workers: int | None = None) -> ObservableSeries:
    """Only <sx>, <sy> of site 1, for decay and revival studies."""
    return _run(_order_block, config, ("t", "sx", "sy"), (), workers)
