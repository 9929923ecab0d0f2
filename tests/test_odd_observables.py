import numpy as np
import pytest

import isingring.odd_observables as odd_mod
from isingring.ed_oracle import expectation, fermion_annihilation, quench_oracle, string_x
from isingring.model import QuenchConfig
from isingring.odd_observables import (
    CrossParityKernel,
    c_expectations_series,
    longitudinal_magnetization,
    odd_rdm_entries,
    string_signs,
)
from isingring.simulate import string_series


def amps_at(n, g, t):
    return QuenchConfig(n, g, [max(t, 0.0)]).amplitudes(t)


@pytest.mark.parametrize("n", [4, 6, 8, 12, 60])
def test_initial_mode_expectations(n):
    # <c_j> = <(sx_j + i sy_j)/2> = 1/2 on site 1's frame at t=0, and the
    # x-polarized product state makes every longer string average to zero;
    # exact at any N, so N=60 checks both inserted operators past ED reach
    c = c_expectations_series([amps_at(n, 0.9, 0.0)], n, range(1, n + 1))[0]
    assert c[0] == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(c[1:], 0.0, atol=1e-12)


def test_longitudinal_magnetization_mapping():
    sx, sy = longitudinal_magnetization(0.5 + 0.0j)
    assert (sx, sy) == (1.0, 0.0)
    sx, sy = longitudinal_magnetization(0.1 - 0.2j)
    assert sx == pytest.approx(0.2)
    assert sy == pytest.approx(0.4)


@pytest.mark.parametrize("n,g", [(4, 0.3), (6, 1.3), (8, 2.0)])
def test_mode_expectations_match_exact_diagonalization(n, g):
    oracle = quench_oracle(n, g)
    times = (0.37, 2.1)
    grid_pair = QuenchConfig(n, g, times).amplitudes(np.array(times))
    for t, got in zip(times, c_expectations_series([grid_pair], n, range(1, n + 1))):
        state = oracle.state(t)
        ref = np.array(
            [expectation(state, n, fermion_annihilation(j)) for j in range(1, n + 1)]
        )
        np.testing.assert_allclose(got, ref, atol=1e-12)


def test_string_expectations_match_exact_diagonalization():
    n, g, t = 8, 0.7, 1.1
    series = string_series(QuenchConfig(n, g, [t]), range(1, n + 1))
    got = np.array([series.column(f"x{j}")[0] for j in range(1, n + 1)])
    state = quench_oracle(n, g).state(t)
    ref = np.array([expectation(state, n, string_x(j)).real for j in range(1, n + 1)])
    np.testing.assert_allclose(got, ref, atol=1e-12)


def test_string_signs_alternate():
    np.testing.assert_array_equal(string_signs([1, 2, 3, 4]), [1.0, -1.0, 1.0, -1.0])


def test_series_equals_pointwise():
    n, g = 10, 1.2
    times = [0.0, 0.4, 1.7, 3.3]
    pairs = [amps_at(n, g, t) for t in times]
    series = c_expectations_series(pairs, n, (1, 2, 5))
    for row, pair in zip(series, pairs):
        np.testing.assert_allclose(row, c_expectations_series([pair], n, (1, 2, 5))[0],
                                   atol=1e-14)
    # one pair holding the whole grid is the same as a pair per time
    grid_pair = QuenchConfig(n, g, times).amplitudes(np.array(times))
    np.testing.assert_allclose(c_expectations_series([grid_pair], n, (1, 2, 5)),
                               series, rtol=0, atol=1e-15)


def test_series_chunking_is_invisible(monkeypatch):
    n, g = 8, 0.8
    pairs = [amps_at(n, g, t) for t in np.linspace(0.0, 2.0, 7)]
    kernel = CrossParityKernel(n)
    full = kernel.c_series(pairs, (1, 2))
    monkeypatch.setattr(odd_mod, "CHUNK_ELEMS", 1)  # force one time per chunk
    tiny = CrossParityKernel(n).c_series(pairs, (1, 2))
    np.testing.assert_allclose(tiny, full, atol=1e-14)


def test_cross_parity_amplitude_single_site():
    # a site asked for alone gets the value it has among others
    n, g, t = 6, 1.1, 0.9
    pair = amps_at(n, g, t)
    c2 = c_expectations_series([pair], n, 2)
    assert c2.shape == (1, 1)
    assert complex(c2[0, 0]) == pytest.approx(
        complex(c_expectations_series([pair], n, (1, 2, 5))[0, 1]))


def test_mode_expectation_magnitude_bounded():
    # |<c_j>| = sqrt(<sx>^2 + <sy>^2)/2 <= 1/2 since the Bloch vector
    # cannot leave the unit ball
    rng = np.random.default_rng(4)
    for _ in range(5):
        n = int(rng.choice([6, 10, 16]))
        g = float(rng.uniform(0.1, 3.0))
        t = float(rng.uniform(0.0, 8.0))
        c = c_expectations_series([amps_at(n, g, t)], n, (1,))
        assert abs(c[0, 0]) <= 0.5 + 1e-9


def test_odd_rdm_entries_combination():
    r12, r24 = odd_rdm_entries(0.3 + 0.1j, 0.1 - 0.1j)
    assert r12 == pytest.approx((0.2 + 0.2j) / 2)
    assert r24 == pytest.approx((0.4 + 0.0j) / 2)


class TestValidation:
    def test_wrong_sector_order(self):
        even, odd = amps_at(6, 1.0, 0.5)
        with pytest.raises(ValueError, match="order"):
            c_expectations_series([(odd, even)], 6, (1,))

    def test_mismatched_times(self):
        even, _ = amps_at(6, 1.0, 0.5)
        _, odd = amps_at(6, 1.0, 0.7)
        with pytest.raises(ValueError, match="times differ"):
            c_expectations_series([(even, odd)], 6, (1,))

    def test_mismatched_ring_size(self):
        even, odd = amps_at(8, 1.0, 0.5)
        with pytest.raises(ValueError, match="ring size"):
            c_expectations_series([(even, odd)], 6, (1,))

    def test_site_out_of_range(self):
        even, odd = amps_at(6, 1.0, 0.5)
        with pytest.raises(ValueError, match="sites"):
            c_expectations_series([(even, odd)], 6, (0,))
        with pytest.raises(ValueError, match="sites"):
            c_expectations_series([(even, odd)], 6, (7,))
