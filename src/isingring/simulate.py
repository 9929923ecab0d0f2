"""Time-series evaluation of the quench observables.

`compute_series` reads columns off the two-site RDM along the configured
time grid: single-site Bloch vector and purity, the nearest-neighbour
Pauli correlators and the concurrence.  `string_series` evaluates the
dressed string operators <X_j> on a list of sites, and
`order_parameter_series` is a lean path that only computes <sx>, <sy>.

The time grid is cut into blocks of block_times(N) points, the
cross-parity kernel's own batch (16 on rings of N >= 64, hundreds on
small ones), each evaluated as arrays along its time axis: one amplitude
set, one batched Pfaffian pass and one (T, 4, 4) RDM stack per block.
The partition depends only on the grid and N, never on the worker count:
numpy picks different SIMD kernels for different stack shapes, and those
can round an isolated multiply one ulp apart, so evaluating identical
blocks serially or on threads is what keeps emitted tables
byte-reproducible.  With several workers the blocks run on that many
threads in this process, sharing its cached kernels and grids, and are
reassembled in grid order; the BLAS thread count is the caller's to set.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .even_observables import evaluate_even
from .model import QuenchConfig
from .odd_observables import (
    block_times,
    c_expectations_series,
    longitudinal_magnetization,
    odd_rdm_entries,
    string_signs,
)
from .rdm import TwoSiteRDM, assemble_two_site, concurrence, pauli_correlation

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


def _full_block(config: QuenchConfig, times) -> np.ndarray:
    even, odd = config.amplitudes(times)
    c = c_expectations_series((even, odd), config.n_sites, (1, 2))
    bad = np.argwhere(~np.isfinite(c))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"<c_{col + 1}> is not finite at "
                         f"t = {format(float(times[row]), '.17g')}")
    c1, c2 = c.T
    ev = evaluate_even(even, odd, config.n_sites)
    return series_columns(assemble_two_site(ev, *odd_rdm_entries(c1, c2)))


def _string_block(config: QuenchConfig, sites, times) -> np.ndarray:
    c = c_expectations_series(config.amplitudes(times), config.n_sites, sites)
    return string_signs(sites) * 2.0 * c.real


def _order_block(config: QuenchConfig, times) -> np.ndarray:
    c1 = c_expectations_series(config.amplitudes(times), config.n_sites, (1,))[:, 0]
    return np.stack(longitudinal_magnetization(c1), axis=-1)


def resolve_workers(workers: int) -> int:
    """The worker count, checked to be at least 1."""
    if workers < 1:
        raise ValueError("worker count must be at least 1")
    return workers


def _run(block, config: QuenchConfig, names, workers) -> ObservableSeries:
    """Evaluate `block` (times -> rows) on each block_times(N) slice of the grid."""
    workers = resolve_workers(workers)
    times = config.time_grid
    step = block_times(config.n_sites)
    slices = [times[i:i + step] for i in range(0, times.size, step)]
    if workers == 1 or len(slices) == 1:
        parts = [block(part) for part in slices]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(block, slices))
    data = np.column_stack([times, np.concatenate(parts)])
    columns = {name: data[:, i].copy() for i, name in enumerate(names)}
    return ObservableSeries(config, columns)


def compute_series(config: QuenchConfig, workers: int = 1) -> ObservableSeries:
    """Full observable set along the configured time grid."""
    return _run(partial(_full_block, config), config, SERIES_COLUMNS, workers)


def string_series(config: QuenchConfig, sites, workers: int = 1) -> ObservableSeries:
    """<X_j> columns (named x{j}) for each site j in `sites`."""
    sites = tuple(int(s) for s in np.atleast_1d(sites))
    names = ("t", *(f"x{j}" for j in sites))
    return _run(partial(_string_block, config, sites), config, names, workers)


def order_parameter_series(config: QuenchConfig, workers: int = 1) -> ObservableSeries:
    """Only <sx>, <sy> of site 1, for decay and revival studies."""
    return _run(partial(_order_block, config), config, ("t", "sx", "sy"), workers)
