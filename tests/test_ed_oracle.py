import numpy as np
import pytest

from isingring.ed_oracle import (
    EDQuench,
    _orbits,
    expectation,
    fermion_annihilation,
    fermion_creation,
    one_site_rdm,
    parity_weights,
    pauli_factor,
    quench_oracle,
    ring_hamiltonian,
    string_x,
    two_site_rdm,
)


@pytest.mark.parametrize("bad", [3, 5, 18, 2])
def test_rejects_unsupported_sizes(bad):
    for build in (ring_hamiltonian, EDQuench):
        with pytest.raises(ValueError, match=f"oracle handles even 4 <= N <= 16, got {bad}"):
            build(bad, 1.0)


def test_dense_hamiltonian_stops_where_the_block_oracle_goes_on():
    # 2^14 x 2^14 doubles would be 2 GB; the refusal comes before any allocation
    with pytest.raises(ValueError, match="dense H handles N <= 12, got 14"):
        ring_hamiltonian(14, 1.0)


def necklaces(n):
    """Number of binary necklaces of length n: (1/n) sum_{d|n} phi(d) 2^(n/d)."""
    phi = lambda d: sum(1 for k in range(1, d + 1) if np.gcd(k, d) == 1)
    return sum(phi(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


@pytest.mark.parametrize("n", [4, 6, 8, 10])
@pytest.mark.parametrize("g", [0.0, 0.5, 1.0, 2.5])
def test_block_oracle_matches_dense_eigh(n, g):
    # g=0 is the degenerate no-quench case: any eigenbasis of the block must do
    energies, vectors = np.linalg.eigh(ring_hamiltonian(n, g))
    coef0 = vectors.T @ np.full(1 << n, 2.0 ** (-n / 2))
    oracle = EDQuench(n, g)
    for t in (0.0, 0.37, 2.9, 13.0):
        dense = vectors @ (np.exp(-1j * energies * t) * coef0)
        np.testing.assert_allclose(oracle.state(t), dense, rtol=0, atol=1e-12)
    assert oracle.energy() == pytest.approx(np.sum(energies * coef0 ** 2), abs=1e-12)


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14, 16])
def test_orbits_are_the_binary_necklaces(n):
    # labelling is cheap at every N; diagonalizing N=16 would take seconds
    _, size = _orbits(n)
    assert size.size == necklaces(n)
    assert size.sum() == 1 << n and np.all(n % size == 0)


def test_n12_block_has_352_states():
    assert necklaces(12) == 352 == EDQuench(12, 0.5).eigenvalues.size


def test_hamiltonian_is_real_symmetric():
    h = ring_hamiltonian(6, 0.7)
    assert h.shape == (64, 64)
    np.testing.assert_array_equal(h, h.T)


def test_hamiltonian_matches_operator_sum():
    # rebuild <psi|H|psi> from single bond and field measurements
    n, g = 6, 1.3
    oracle = quench_oracle(n, g)
    state = oracle.state(0.83)
    total = 0.0
    for j in range(1, n + 1):
        nxt = j % n + 1
        bond = pauli_factor("x", j) + pauli_factor("x", nxt)
        total -= expectation(state, n, bond).real
        total -= g * expectation(state, n, pauli_factor("z", j)).real
    assert total == pytest.approx(oracle.energy(), abs=1e-10)


def test_initial_state_fully_x_polarized():
    n = 6
    state = quench_oracle(n, 1.0).state(0.0)
    for j in range(1, n + 1):
        assert expectation(state, n, pauli_factor("x", j)).real == pytest.approx(1.0)
        assert expectation(state, n, pauli_factor("z", j)).real == pytest.approx(0.0, abs=1e-12)


def test_no_quench_is_stationary():
    # g=0 leaves the initial state an eigenstate, so nothing moves
    n = 6
    oracle = EDQuench(n, 0.0)
    state = oracle.state(3.7)
    assert expectation(state, n, pauli_factor("x", 2)).real == pytest.approx(1.0)


def test_norm_and_energy_conserved():
    n, g = 8, 1.5
    oracle = quench_oracle(n, g)
    e0 = oracle.energy()
    for t in (0.0, 0.9, 4.2, 11.0):
        state = oracle.state(t)
        assert np.vdot(state, state).real == pytest.approx(1.0, abs=1e-12)
        h = ring_hamiltonian(n, g)
        assert np.vdot(state, h @ state).real == pytest.approx(e0, abs=1e-10)


def test_parity_split_is_half_half_and_static():
    n = 6
    oracle = quench_oracle(n, 2.0)
    for t in (0.0, 1.7):
        w_even, w_odd = parity_weights(oracle.state(t), n)
        assert w_even == pytest.approx(0.5, abs=1e-12)
        assert w_odd == pytest.approx(0.5, abs=1e-12)


def test_translation_invariance():
    n = 8
    state = quench_oracle(n, 0.6).state(1.9)
    sz_ref = expectation(state, n, pauli_factor("z", 1)).real
    rdm_ref = two_site_rdm(state, n, (1, 2))
    for j in (2, 5, 8):
        assert expectation(state, n, pauli_factor("z", j)).real == pytest.approx(sz_ref, abs=1e-12)
    np.testing.assert_allclose(two_site_rdm(state, n, (4, 5)), rdm_ref, atol=1e-12)


def test_rdm_properties():
    n = 6
    state = quench_oracle(n, 1.2).state(2.3)
    rho = two_site_rdm(state, n)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-13)
    assert np.all(np.linalg.eigvalsh(rho) > -1e-13)
    one = one_site_rdm(state, n, 1)
    np.testing.assert_allclose(
        one, rho.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3), atol=1e-13
    )


def test_one_site_rdm_is_the_traced_pair_at_every_site():
    n = 6
    rng = np.random.default_rng(4)
    state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    state /= np.linalg.norm(state)
    for site in range(1, n + 1):
        pair = two_site_rdm(state, n, (site, site % n + 1))
        np.testing.assert_allclose(one_site_rdm(state, n, site),
                                   pair.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3),
                                   atol=1e-13)
    for bad in (0, n + 1, -1):
        with pytest.raises(ValueError, match=r"sites must be within 1\.\.6"):
            one_site_rdm(state, n, bad)


def test_string_operator_factors():
    # X_1 = sx_1; X_j at t=0 vanishes because <sz> = 0 in the product state
    n = 6
    state = quench_oracle(n, 0.9).state(0.0)
    assert expectation(state, n, string_x(1)).real == pytest.approx(1.0)
    assert expectation(state, n, string_x(3)).real == pytest.approx(0.0, abs=1e-12)


def test_fermion_operator_algebra():
    n, t = 6, 1.1
    state = quench_oracle(n, 1.4).state(t)
    # occupation from the fermion bilinear equals (1 + <sz>)/2
    for j in (1, 3):
        num = expectation(state, n, fermion_creation(j) + fermion_annihilation(j))
        sz = expectation(state, n, pauli_factor("z", j)).real
        assert num.real == pytest.approx((1.0 + sz) / 2.0, abs=1e-12)
        assert num.imag == pytest.approx(0.0, abs=1e-12)
    # c_j^2 = 0
    from isingring.ed_oracle import apply_factors

    twice = apply_factors(
        apply_factors(state, n, fermion_annihilation(2)), n, fermion_annihilation(2)
    )
    assert np.max(np.abs(twice)) == pytest.approx(0.0, abs=1e-14)


def test_oracle_cache_returns_same_object():
    a = quench_oracle(4, 1.0)
    b = quench_oracle(4, 1.0)
    assert a is b
