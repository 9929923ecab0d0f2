import numpy as np
import pytest

from isingring.ed_oracle import quench_oracle, two_site_rdm
from isingring.even_observables import evaluate_even
from isingring.model import QuenchConfig
from isingring.odd_observables import c_expectations_series, odd_rdm_entries
from isingring.rdm import (
    PAULI_2,
    SingleSiteRDM,
    TwoSiteRDM,
    assemble_two_site,
    concurrence,
    pauli_correlation,
)


def random_density_matrix(rng, rank=4):
    vecs = rng.normal(size=(rank, 4)) + 1j * rng.normal(size=(rank, 4))
    weights = rng.uniform(0.1, 1.0, size=rank)
    m = sum(w * np.outer(v, v.conj()) / np.vdot(v, v).real
            for w, v in zip(weights, vecs))
    return TwoSiteRDM(m / np.trace(m).real)


def quench_rdm(n, g, t):
    cfg = QuenchConfig(n, g, [max(t, 0.0)])
    even, odd = cfg.amplitudes(t)
    c1, c2 = c_expectations_series((even, odd), n, (1, 2))[0]
    return assemble_two_site(evaluate_even(even, odd, n), *odd_rdm_entries(c1, c2))


def test_initial_state_rdm_is_flat():
    rho = quench_rdm(6, 1.7, 0.0)
    np.testing.assert_allclose(rho.matrix, np.full((4, 4), 0.25), atol=1e-12)


def test_assembled_matches_exact_diagonalization():
    n, g, t = 8, 2.5, 1.3
    rho = quench_rdm(n, g, t)
    ref = two_site_rdm(quench_oracle(n, g).state(t), n)
    np.testing.assert_allclose(rho.matrix, ref, atol=1e-10)


@pytest.mark.parametrize("n,g", [(4, 0.5), (6, 1.0), (10, 0.3), (12, 1.53131)])
def test_initial_product_state_has_no_concurrence(n, g):
    # the t=0 state is a product state, rank one on every pair; square roots
    # of roundoff in its zero eigenvalues would read as ~1e-8 concurrence
    ed = TwoSiteRDM(two_site_rdm(quench_oracle(n, g).state(0.0), n))
    assert concurrence(quench_rdm(n, g, 0.0)) < 1e-12
    assert concurrence(ed) < 1e-12


class TestSingleSiteRDM:
    def test_matrix_and_purity(self):
        one = SingleSiteRDM(np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(one.matrix, [[1, 0], [0, 0]], atol=1e-15)
        assert one.purity() == pytest.approx(1.0)
        assert SingleSiteRDM(np.zeros(3)).purity() == pytest.approx(0.5)

    def test_rejects_outside_unit_ball(self):
        with pytest.raises(ValueError, match="unit ball"):
            SingleSiteRDM(np.array([1.0, 1.0, 0.0]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            SingleSiteRDM(np.zeros(4))


class TestTwoSiteRDM:
    def test_rejects_non_hermitian(self):
        m = np.eye(4) / 4.0
        m[0, 1] = 0.3
        with pytest.raises(ValueError, match="Hermitian"):
            TwoSiteRDM(m)

    def test_rejects_non_finite_entries(self):
        stack = np.array([np.eye(4) / 4.0] * 3, dtype=complex)
        stack[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            TwoSiteRDM(stack)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            TwoSiteRDM(np.eye(4) / 2.0)

    def test_rejects_definitely_negative(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            TwoSiteRDM(np.diag([0.7, 0.5, -0.2, 0.0]).astype(complex))

    def test_repairs_roundoff_negativity(self):
        eps = 5e-10
        rho = TwoSiteRDM(np.diag([0.5 + eps / 3, 0.3, 0.2, -eps]).astype(complex))
        w = np.linalg.eigvalsh(rho.matrix)
        assert w[0] >= 0.0
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-14)

    def test_stack_repairs_only_the_flagged_member(self):
        eps = 5e-10
        clean = random_density_matrix(np.random.default_rng(3)).matrix
        noisy = np.diag([0.5 + eps / 3, 0.3, 0.2, -eps]).astype(complex)
        rho = TwoSiteRDM(np.array([clean, noisy, clean]))
        np.testing.assert_array_equal(rho.matrix[0], clean)
        np.testing.assert_array_equal(rho.matrix[2], clean)
        np.testing.assert_array_equal(rho.matrix[1], TwoSiteRDM(noisy).matrix)
        assert np.linalg.eigvalsh(rho.matrix[1])[0] >= 0.0

    def test_stack_rejects_one_bad_member(self):
        clean = np.eye(4) / 4.0
        negative = np.diag([0.7, 0.5, -0.2, 0.0])
        with pytest.raises(ValueError, match="negative eigenvalue -2.000e-01"):
            TwoSiteRDM(np.array([clean, negative, clean]))
        with pytest.raises(ValueError, match=r"trace deviates from 1 by 1\.000e\+00"):
            TwoSiteRDM(np.array([clean, np.eye(4) / 2.0]))
        skewed = clean.copy()
        skewed[0, 1] = 0.3
        with pytest.raises(ValueError, match="Hermitian"):
            TwoSiteRDM(np.array([clean, skewed]))

    def test_reduce_matches_partial_trace(self):
        rng = np.random.default_rng(2)
        rho = random_density_matrix(rng)
        t = rho.matrix.reshape(2, 2, 2, 2)
        for site, expected in ((1, np.einsum("ikjk->ij", t)),
                               (2, np.einsum("kikj->ij", t))):
            got = rho.reduce(site).matrix
            np.testing.assert_allclose(got, expected, atol=1e-12)


def test_pauli_correlations_of_bell_state():
    phi = np.zeros(4)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    rho = TwoSiteRDM(np.outer(phi, phi))
    assert pauli_correlation(rho, "x", "x") == pytest.approx(1.0)
    assert pauli_correlation(rho, "y", "y") == pytest.approx(-1.0)
    assert pauli_correlation(rho, "z", "z") == pytest.approx(1.0)
    assert pauli_correlation(rho, "x", "z") == pytest.approx(0.0, abs=1e-12)


class TestConcurrence:
    def test_bell_state_is_maximally_entangled(self):
        phi = np.zeros(4)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        assert concurrence(TwoSiteRDM(np.outer(phi, phi))) == pytest.approx(1.0)

    def test_product_state_is_unentangled(self):
        rho = TwoSiteRDM(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
        assert concurrence(rho) == pytest.approx(0.0, abs=1e-12)

    def test_werner_state_closed_form(self):
        phi = np.zeros(4)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        for p in (0.2, 1 / 3, 0.6, 0.9):
            m = p * np.outer(phi, phi) + (1 - p) * np.eye(4) / 4.0
            expected = max(0.0, (3 * p - 1) / 2)
            assert concurrence(TwoSiteRDM(m)) == pytest.approx(expected, abs=1e-12)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(8)
        rho = random_density_matrix(rng)
        for _ in range(3):
            u1, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            u2, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            u = np.kron(u1, u2)
            rotated = TwoSiteRDM(u @ rho.matrix @ u.conj().T)
            assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-9)

    def test_agrees_with_nonhermitian_route(self):
        # same quantity via eigvals(rho rho~), no square roots of rho
        rng = np.random.default_rng(15)
        yy = np.kron(PAULI_2["y"], PAULI_2["y"]).real
        for _ in range(6):
            rho = random_density_matrix(rng)
            lam = np.linalg.eigvals(rho.matrix @ yy @ rho.matrix.conj() @ yy)
            lam = np.sqrt(np.clip(np.sort(lam.real)[::-1], 0.0, None))
            expected = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
            assert concurrence(rho) == pytest.approx(expected, abs=5e-7)


def test_stack_measures_equal_per_matrix_values():
    rng = np.random.default_rng(21)
    rhos = [random_density_matrix(rng) for _ in range(5)]
    stack = TwoSiteRDM(np.array([r.matrix for r in rhos]))
    np.testing.assert_allclose(concurrence(stack), [concurrence(r) for r in rhos],
                               rtol=0, atol=1e-15)
    # rank-deficient members too: one-ulp noise in their zero eigenvalues
    # must not reach the concurrence as its square root (~1e-8)
    low = [random_density_matrix(rng, rank) for rank in (1, 2, 3, 1)]
    np.testing.assert_allclose(concurrence(TwoSiteRDM(np.array([r.matrix for r in low]))),
                               [concurrence(r) for r in low], rtol=0, atol=1e-14)
    for a, b in (("z", "z"), ("x", "x"), ("x", "y"), ("x", "z"), ("y", "i")):
        np.testing.assert_allclose(pauli_correlation(stack, a, b),
                                   [pauli_correlation(r, a, b) for r in rhos],
                                   rtol=0, atol=1e-15)
    for site in (1, 2):
        one = stack.reduce(site)
        np.testing.assert_allclose(one.bloch, [r.reduce(site).bloch for r in rhos],
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(one.purity(), [r.reduce(site).purity() for r in rhos],
                                   rtol=0, atol=1e-15)


def test_quench_rdm_stays_physical_over_time():
    for t in (0.3, 1.1, 2.9, 6.0):
        rho = quench_rdm(10, 1.5, t)
        w = np.linalg.eigvalsh(rho.matrix)
        assert w[0] >= -1e-12
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
        # partial trace of the pair must reproduce the one-site state
        one = rho.reduce(1)
        assert np.linalg.norm(one.bloch) <= 1.0 + 1e-12