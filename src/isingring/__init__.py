"""Exact quench dynamics of the transverse-field Ising ring.

The ring starts in the fully x-polarized state and evolves under
H = -sum_j (sx_j sx_{j+1} + g sz_j).  This package computes the exact
one- and two-site reduced density matrices at any later time for finite
even N: parity-even observables from closed momentum sums, parity-odd
ones (order parameter, string operators) from Pfaffian contractions of
cross-sector overlaps, plus thermodynamic-limit quadratures and an
exact-diagonalization oracle (the zero-momentum block of H, N <= 16)
that gates everything on small rings.

The names below are the public surface; everything else is imported from
its own submodule (e.g. `isingring.pfaffian`, `isingring.ed_oracle`).
"""

__version__ = "0.1.0"

from .analysis import first_maximum, fit_exponential, plateau
from .ed_oracle import quench_oracle, ring_hamiltonian, two_site_rdm
from .even_observables import asymptotic_order_decay, evaluate_even, thermo_cxx, thermo_sz
from .model import QuenchConfig
from .odd_observables import (
    c_expectations_series,
    longitudinal_magnetization,
    odd_rdm_entries,
)
from .pfaffian import pfaffian_batch
from .rdm import TwoSiteRDM, assemble_two_site, concurrence, pauli_correlation
from .simulate import compute_series, order_parameter_series, string_series

__all__ = [
    "QuenchConfig",
    "TwoSiteRDM",
    "__version__",
    "assemble_two_site",
    "asymptotic_order_decay",
    "c_expectations_series",
    "compute_series",
    "concurrence",
    "evaluate_even",
    "first_maximum",
    "fit_exponential",
    "longitudinal_magnetization",
    "odd_rdm_entries",
    "order_parameter_series",
    "pauli_correlation",
    "pfaffian_batch",
    "plateau",
    "quench_oracle",
    "ring_hamiltonian",
    "string_series",
    "thermo_cxx",
    "thermo_sz",
    "two_site_rdm",
]
