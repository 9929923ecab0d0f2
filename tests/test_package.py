"""The package namespace: exactly the pinned public names, nothing else."""

import importlib
import types

import pytest

import isingring

PUBLIC = [
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


def test_public_names_are_pinned():
    assert sorted(isingring.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in isingring.__all__:
        assert getattr(isingring, name) is not None


def test_pfaffian_is_the_submodule():
    assert isinstance(isingring.pfaffian, types.ModuleType)
    assert importlib.import_module("isingring.pfaffian") is isingring.pfaffian


@pytest.mark.parametrize("module,name", [
    ("isingring", "SkewMatrix"),
    ("isingring.pfaffian", "SkewMatrix"),
    ("isingring.pfaffian", "pfaffian"),
    ("isingring", "cross_parity_amplitude"),
    ("isingring.odd_observables", "cross_parity_amplitude"),
    ("isingring", "string_expectations"),
    ("isingring.odd_observables", "string_expectations"),
    ("isingring", "critical_decay_approx"),
    ("isingring.even_observables", "critical_decay_approx"),
    ("isingring.odd_observables", "c_expectations"),
])
def test_removed_names_are_gone(module, name):
    assert not hasattr(importlib.import_module(module), name)


def test_kernel_has_one_series_method():
    from isingring.odd_observables import CrossParityKernel

    assert hasattr(CrossParityKernel, "c_series")
    assert not hasattr(CrossParityKernel, "c_expectations")
