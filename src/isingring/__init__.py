"""Exact quench dynamics of the transverse-field Ising ring.

The ring starts in the fully x-polarized state and evolves under
H = -sum_j (sx_j sx_{j+1} + g sz_j).  This package computes the exact
one- and two-site reduced density matrices at any later time for finite
even N: parity-even observables from closed momentum sums, parity-odd
ones (order parameter, string operators) from Pfaffian contractions of
cross-sector overlaps, plus thermodynamic-limit quadratures and a dense
exact-diagonalization oracle that gates everything on small rings.
"""

__version__ = "0.1.0"

from .analysis import ExpFit, first_maximum, fit_exponential, plateau
from .ed_oracle import quench_oracle, ring_hamiltonian, two_site_rdm
from .even_observables import (
    EvenObservables,
    QuadratureError,
    asymptotic_order_decay,
    critical_decay_approx,
    evaluate_even,
    thermo_cxx,
    thermo_rho11,
    thermo_sz,
)
from .model import (
    ModeAmplitudes,
    MomentumGrid,
    QuenchConfig,
    dispersion,
    evolve_amplitudes,
    mode_uv,
    momentum_grids,
)
from .odd_observables import (
    CrossParityKernel,
    c_expectations,
    c_expectations_series,
    cross_parity_amplitude,
    longitudinal_magnetization,
    odd_rdm_entries,
    string_expectations,
)
from .pfaffian import PfaffianConditionWarning, SkewMatrix, pfaffian, pfaffian_batch
from .rdm import (
    SingleSiteRDM,
    TwoSiteRDM,
    assemble_two_site,
    concurrence,
    pauli_correlation,
)
from .simulate import (
    ObservableSeries,
    compute_series,
    order_parameter_series,
    string_series,
)

__all__ = [
    "CrossParityKernel",
    "EvenObservables",
    "ExpFit",
    "ModeAmplitudes",
    "MomentumGrid",
    "ObservableSeries",
    "PfaffianConditionWarning",
    "QuadratureError",
    "QuenchConfig",
    "SingleSiteRDM",
    "SkewMatrix",
    "TwoSiteRDM",
    "__version__",
    "assemble_two_site",
    "asymptotic_order_decay",
    "c_expectations",
    "c_expectations_series",
    "compute_series",
    "concurrence",
    "critical_decay_approx",
    "cross_parity_amplitude",
    "dispersion",
    "evaluate_even",
    "evolve_amplitudes",
    "first_maximum",
    "fit_exponential",
    "longitudinal_magnetization",
    "mode_uv",
    "momentum_grids",
    "odd_rdm_entries",
    "order_parameter_series",
    "pauli_correlation",
    "pfaffian",
    "pfaffian_batch",
    "plateau",
    "quench_oracle",
    "ring_hamiltonian",
    "string_expectations",
    "string_series",
    "thermo_cxx",
    "thermo_rho11",
    "thermo_sz",
    "two_site_rdm",
]
