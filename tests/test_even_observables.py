import warnings

import numpy as np
import pytest
from scipy import integrate

import isingring.even_observables as even_mod

from isingring.ed_oracle import expectation, one_site_rdm, pauli_factor, quench_oracle, two_site_rdm
from isingring.even_observables import (
    EvenObservables,
    QuadratureError,
    asymptotic_order_decay,
    evaluate_even,
    thermo_cxx,
    thermo_rho11,
    thermo_sz,
    xx_correlator,
)
from isingring.model import EVEN, QuenchConfig


def amps_at(n, g, t):
    return QuenchConfig(n, g, [max(t, 0.0)]).amplitudes(t)


@pytest.mark.parametrize("n", [4, 6, 10, 14])
@pytest.mark.parametrize("g", [0.5, 2.0])
def test_initial_values_quarter(n, g):
    # the fully x-polarized product state has the flat two-site RDM
    even, odd = amps_at(n, g, 0.0)
    obs = evaluate_even(even, odd, n)
    assert obs.sz == pytest.approx(0.0, abs=1e-13)
    assert obs.rho14 == pytest.approx(0.25, abs=1e-13)
    assert obs.rho23 == pytest.approx(0.25, abs=1e-13)
    assert obs.rho11 == pytest.approx(0.25, abs=1e-13)
    assert obs.rho22 == pytest.approx(0.25, abs=1e-13)


def test_double_occupancy_matches_literal_double_sum():
    """The Wick form of rho11 must equal the raw k > k' double loop."""
    n = 14
    for g, t in ((0.4, 1.3), (1.0, 2.9), (3.5, 0.61)):
        even, odd = amps_at(n, g, t)
        total = 0.0
        for amps in (even, odd):
            k = amps.momenta
            c, s = np.cos(k), np.sin(k)
            w = np.abs(amps.v) ** 2
            z = np.conj(amps.u) * amps.v
            pair = 0.0
            for i in range(k.size):
                for j in range(i):
                    pair += (1.0 - c[i] * c[j]) * w[i] * w[j]
                    pair += s[i] * s[j] * (z[i] * np.conj(z[j])).real
            total += 2.0 * pair
            if amps.sector == EVEN:
                total += np.sum(s**2 * w)
            else:
                total += np.sum((2.0 + c) * (1.0 - c) * w)
        literal = 2.0 * total / n**2
        assert evaluate_even(even, odd, n).rho11 == pytest.approx(literal, abs=1e-13)


def test_matches_exact_diagonalization_entries():
    n = 8
    for g in (0.5, 1.0, 2.5):
        oracle = quench_oracle(n, g)
        for t in (0.0, 0.45, 1.3, 4.2):
            obs = evaluate_even(*amps_at(n, g, t), n)
            state = oracle.state(t)
            rho = two_site_rdm(state, n)
            one = one_site_rdm(state, n)
            assert obs.sz == pytest.approx((one[0, 0] - one[1, 1]).real, abs=1e-11)
            assert obs.rho11 == pytest.approx(rho[0, 0].real, abs=1e-11)
            assert obs.rho23 == pytest.approx(rho[1, 2].real, abs=1e-11)
            assert obs.rho14 == pytest.approx(rho[0, 3], abs=1e-11)
            assert obs.rho22 == pytest.approx(rho[1, 1].real, abs=1e-11)


def test_time_grid_equals_single_times():
    n, g = 12, 1.4
    times = np.array([0.0, 0.5, 2.2, 9.1])
    grid = evaluate_even(*QuenchConfig(n, g, times).amplitudes(times), n)
    singles = [evaluate_even(*amps_at(n, g, float(t)), n) for t in times]
    for field in ("sz", "rho14", "rho23", "rho11", "rho22"):
        assert np.shape(getattr(grid, field)) == times.shape
        stacked = np.array([getattr(obs, field) for obs in singles])
        np.testing.assert_allclose(getattr(grid, field), stacked, rtol=0, atol=1e-15)


@pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
def test_xx_correlator_matches_exact_diagonalization(g):
    n = 10
    times = np.array([0.0, 0.7, 2.3])
    even, odd = QuenchConfig(n, g, times).amplitudes(times)
    oracle = quench_oracle(n, g)
    for r in range(1, n):
        ref = [expectation(oracle.state(t), n,
                           pauli_factor("x", 1) + pauli_factor("x", 1 + r)).real
               for t in times]
        np.testing.assert_allclose(xx_correlator(even, odd, n, r), ref, rtol=0, atol=1e-13)


def test_xx_correlator_time_grid_equals_single_times():
    n, g, r = 12, 0.8, 5
    times = np.array([0.2, 1.1, 3.0])
    grid = xx_correlator(*QuenchConfig(n, g, times).amplitudes(times), n, r)
    assert grid.shape == (3,)
    for t, value in zip(times, grid):
        single = xx_correlator(*amps_at(n, g, t), n, r)
        assert np.ndim(single) == 0
        assert single == pytest.approx(value, abs=1e-15)


@pytest.mark.parametrize("r", [0, 12, -1])
def test_xx_correlator_rejects_bad_distance(r):
    with pytest.raises(ValueError, match="distance"):
        xx_correlator(*amps_at(12, 1.0, 0.5), 12, r)


def test_rho22_closes_the_diagonal():
    obs = EvenObservables(sz=0.1, rho14=0.0, rho23=0.0, rho11=0.2)
    # <n_1> = (1 + sz)/2 must equal rho11 + rho22
    assert obs.rho11 + obs.rho22 == pytest.approx((1.0 + obs.sz) / 2.0)


class TestThermodynamicLimit:
    def test_quiescent_at_zero_time(self):
        for g in (0.5, 1.0, 4.0):
            assert thermo_sz(g, 0.0) == pytest.approx(0.0, abs=1e-12)
            assert thermo_cxx(g, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert thermo_rho11(2.0, 0.0) == pytest.approx(0.25, abs=1e-9)

    def test_large_ring_converges_to_quadrature(self):
        n, g, t = 400, 2.0, 1.7
        obs = evaluate_even(*amps_at(n, g, t), n)
        cxx = 2.0 * (obs.rho14.real + obs.rho23)
        assert obs.sz == pytest.approx(thermo_sz(g, t), abs=1e-12)
        assert cxx == pytest.approx(thermo_cxx(g, t), abs=1e-12)
        assert obs.rho11 == pytest.approx(thermo_rho11(g, t), abs=1e-8)

    def test_longtime_plateaus(self):
        # sz -> 1/(2g) and cxx -> 1 - g^2/2 (ordered side) at late times
        assert thermo_sz(2.0, 200.0) == pytest.approx(0.25, abs=0.01)
        late = np.mean([thermo_cxx(0.5, t) for t in np.linspace(30, 40, 21)])
        assert late == pytest.approx(1.0 - 0.5**2 / 2.0, abs=0.01)


class TestOrderParameterDecayLaw:
    def test_no_quench_means_no_decay(self):
        a, rate = asymptotic_order_decay(0.0)
        assert a == pytest.approx(1.0)
        assert rate == 0.0

    def test_critical_endpoint(self):
        a, rate = asymptotic_order_decay(1.0)
        assert rate == pytest.approx(4.0 / np.pi, abs=1e-9)
        assert a == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_rate_increases_with_quench_strength(self):
        rates = [asymptotic_order_decay(g)[1] for g in (0.3, 0.7, 0.95)]
        assert rates[0] < rates[1] < rates[2]

    def test_rejects_disordered_side(self):
        for g in (-0.1, 1.1):
            with pytest.raises(ValueError):
                asymptotic_order_decay(g)

    def test_near_critical_expansion(self):
        # gamma ~ 4/pi - 2 sqrt(2(1-g)) is asymptotic: its gap to 4/pi
        # matches the quadrature's only as g -> 1
        g = 0.999
        _, rate = asymptotic_order_decay(g)
        gap_true = 4.0 / np.pi - rate
        gap_approx = 2.0 * np.sqrt(2.0 * (1.0 - g))
        assert gap_true / gap_approx == pytest.approx(1.0, abs=0.05)


def test_thermo_rho11_escalates_quadrature_warning(monkeypatch):
    def unconverged(*args, **kwargs):
        warnings.warn("roundoff error is detected", integrate.IntegrationWarning)
        return 0.123, 1.0

    monkeypatch.setattr(even_mod.integrate, "dblquad", unconverged)
    with pytest.raises(QuadratureError, match="rho11"):
        thermo_rho11(1.0, 0.5)


def test_unconverged_quad_falls_back_to_simpson(monkeypatch):
    def unconverged(*args, **kwargs):
        warnings.warn("the maximum number of subdivisions has been achieved",
                      integrate.IntegrationWarning)
        return 0.123, 1.0

    monkeypatch.setattr(even_mod.integrate, "quad", unconverged)
    assert even_mod._safe_quad(np.sin, 0.0, np.pi) == pytest.approx(2.0, abs=1e-12)
    # 15000 periods over [0, pi] alias differently on the two Simpson grids
    with pytest.raises(QuadratureError, match="did not converge"):
        even_mod._safe_quad(lambda k: k * np.sin(3e4 * k), 0.0, np.pi)


@pytest.mark.parametrize("g", [-1.0, np.nan, np.inf])
def test_thermodynamic_limits_reject_unphysical_fields(g):
    for limit in (thermo_sz, thermo_cxx, thermo_rho11):
        with pytest.raises(ValueError, match="field_g must be finite and >= 0"):
            limit(g, 1.0)
