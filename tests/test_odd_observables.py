import numpy as np
import pytest

from isingring.ed_oracle import expectation, fermion_annihilation, quench_oracle, string_x
from isingring.even_observables import xx_correlator
from isingring.model import RELATIVE_PHASE, QuenchConfig, dispersion, momentum_grids
from isingring.odd_observables import (
    EVAL_BLOCK,
    PAIR_TOL,
    c_expectations_series,
    longitudinal_magnetization,
    odd_rdm_entries,
    string_signs,
)
from isingring.pfaffian import pfaffian_batch
from isingring.simulate import string_series


def amps_at(n, g, t):
    return QuenchConfig(n, g, [max(t, 0.0)]).amplitudes(t)


def dense_c_expectations(n, even, odd, sites):
    """<c_j> from the full 2N x 2N contraction matrix, one Pfaffian per
    (time, site, inserted operator): the reference for the Schur path.

    Factor order: bra pairs (reversed momenta) as conj(C_k), conj(B_k);
    the inserted operator's slot; the ket's c+_0, then B_q, C_q per pair.
    """
    k_bra, k_ket = momentum_grids(n)[0].positive[::-1], momentum_grids(n)[1].positive
    l = np.arange(1, n + 1)
    omega = np.exp(-1j * np.pi / 4) / np.sqrt(n)
    slot = n
    ket_b = slot + 2 + 2 * np.arange(k_ket.size)
    fa = np.zeros((2 * n, n), dtype=complex)
    fb = np.zeros((2 * n, n), dtype=complex)
    fa[0:slot:2] = omega * np.exp(1j * np.outer(k_bra, l))
    fa[1:slot:2] = omega * np.exp(-1j * np.outer(k_bra, l))
    fb[1:slot:2] = np.conj(omega) * np.exp(-1j * np.outer(k_bra, l))
    fb[slot + 1] = np.conj(omega)
    fa[ket_b] = omega * np.exp(1j * np.outer(k_ket, l))
    fb[ket_b] = np.conj(omega) * np.exp(1j * np.outer(k_ket, l))
    fb[ket_b + 1] = np.conj(omega) * np.exp(-1j * np.outer(k_ket, l))
    eu, ev, ou, ov = (np.atleast_2d(x) for x in (even.u, even.v, odd.u, odd.v))
    a = np.zeros((eu.shape[0], 2 * n), dtype=complex)
    b = np.zeros_like(a)
    a[:, 0:slot:2] = 1.0
    a[:, 1:slot:2], b[:, 1:slot:2] = ev.conj()[:, ::-1], eu.conj()[:, ::-1]
    a[:, ket_b], b[:, ket_b] = ou, ov
    b[:, ket_b + 1] = b[:, slot + 1] = 1.0
    s = np.triu(a[:, :, None] * (fa @ fb.T) * b[:, None, :], 1)
    s -= s.transpose(0, 2, 1)
    pf = {}
    for j in sites:
        c_row, cdag_row = np.zeros_like(a), np.zeros_like(a)
        c_row[:, slot + 1:] = b[:, slot + 1:] * fb[slot + 1:, j - 1]
        cdag_row[:, :slot] = -a[:, :slot] * fa[:slot, j - 1]
        for name, row in (("c", c_row), ("cdag", cdag_row)):
            s[:, slot, :] = row
            s[:, :, slot] = -row
            pf[name, j] = pfaffian_batch(s)
    w = RELATIVE_PHASE * np.atleast_1d(odd.phase)
    return np.column_stack([0.5 * (w * pf["c", j] + np.conj(w * pf["cdag", j]))
                            for j in sites])


def critical_zero_time(n, pair):
    """A time at which u_k of an even-sector pair vanishes at g=1."""
    k = momentum_grids(n)[0].positive[pair]
    return np.pi / (2.0 * dispersion(1.0, k))


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


def test_time_batches_depend_on_the_grid_alone():
    # 40 times run as EVAL_BLOCK batches of 16, 16 and 8: the same bits as
    # calling those three slices one by one
    n, g = 20, 1.0
    times = np.linspace(0.05, 6.0, 40)
    even, odd = QuenchConfig(n, g, times).amplitudes(times)
    sites = (1, 2, 7, n)
    whole = c_expectations_series([(even, odd)], n, sites)
    assert EVAL_BLOCK == 16
    parts = [c_expectations_series([QuenchConfig(n, g, times[s]).amplitudes(times[s])],
                                   n, sites)
             for s in (slice(0, 16), slice(16, 32), slice(32, 40))]
    np.testing.assert_array_equal(whole, np.concatenate(parts))


def test_large_ring_matches_half_the_ring_before_the_light_cone_wraps():
    # Pf(A) and Pf(M) each leave double range near N = 800 at g=1; inside
    # the light cone <c_1>, <c_2> must not see the ring size
    g, times = 1.0, np.array([0.3, 0.4, 0.5])
    c = {n: c_expectations_series([QuenchConfig(n, g, times).amplitudes(times)], n, (1, 2))
         for n in (400, 800)}
    assert np.isfinite(c[800]).all()
    np.testing.assert_allclose(c[800], c[400], rtol=0, atol=1e-10)


@pytest.mark.parametrize("n", [60, 100])
@pytest.mark.parametrize("g", [0.3, 1.0, 3.0])
def test_schur_path_matches_dense_pfaffians(n, g):
    # the grid holds an exact zero of the bra pair entry p_k = conj(u_k) at
    # g=1, where eliminating that pair would divide by ~1e-17
    times = np.sort([0.0, 0.8, critical_zero_time(n, 2), n / 8.0, n / 4.0 + 0.3])
    pair = QuenchConfig(n, g, times).amplitudes(times)
    if g == 1.0:
        assert np.min(np.abs(pair[0].u)) < 1e-15
    sites = (1, 2, n // 3, n - 1, n)
    got = c_expectations_series([pair], n, sites)
    np.testing.assert_allclose(got, dense_c_expectations(n, *pair, sites), rtol=0, atol=1e-12)


def test_retained_pairs_do_not_change_values():
    # a block holding an exact zero of p_k keeps that bra pair in the reduced
    # matrix for all its times; alone, the other times eliminate every pair
    n, g = 30, 1.0
    times = np.sort([0.3, critical_zero_time(n, 1), 1.9, 4.4])
    even, odd = QuenchConfig(n, g, times).amplitudes(times)
    p = np.abs(even.u)
    small = p <= PAIR_TOL * p.max(-1, keepdims=True)
    assert small.any(axis=0).sum() >= 1
    assert not small[[0, 2, 3]].any()
    sites = range(1, n + 1)
    block = c_expectations_series([(even, odd)], n, sites)
    for row, t in zip(block, times):
        np.testing.assert_allclose(row, c_expectations_series([amps_at(n, g, t)], n, sites)[0],
                                   rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [100, 200, 400])
@pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
def test_order_parameter_squares_to_distant_correlator(n, g):
    # outside the light cone (2 v_max t < r) the connected part of
    # <sx_1 sx_{1+r}> is exponentially small, so it equals <sx>^2; the
    # correlator comes from same-sector Wick contractions alone
    r = n // 2
    times = np.linspace(0.0, r / (4.0 * 2.0 * min(g, 1.0)), 4)
    even, odd = QuenchConfig(n, g, times).amplitudes(times)
    sx = 2.0 * c_expectations_series([(even, odd)], n, (1,))[:, 0].real
    gap = np.abs(xx_correlator(even, odd, n, r) - sx**2) / sx**2
    assert gap.max() <= 1e-10


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
