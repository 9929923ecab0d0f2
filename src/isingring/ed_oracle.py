"""Brute-force reference for small rings: exact diagonalization.

This module recomputes, slowly and from first principles, everything the
fermionic machinery produces fast: H is diagonalized once per (N, g), the
x-polarized initial state is rotated by the eigenphases, and observables
are read off by applying explicit operator factors to the spin-basis state
vector.  It deliberately shares no code with the momentum-space path so
the two can disagree only if one of them is wrong.

H and the initial state are both invariant under rotating the ring by one
site, so the state never leaves the zero-momentum sector.  That sector is
spanned by the normalized sums over rotation orbits of basis states (the
binary necklaces: 352 of them at N=12, 4116 at N=16), and only H's block
in that orbit basis is diagonalized.  `EDQuench.state` expands the block
vector back to all 2^N amplitudes, so every reader below sees the full
spin basis.  `ring_hamiltonian` keeps the full dense matrix as an
independent reference for the block.

Conventions: basis states are bit strings with site 1 as the most
significant bit; bit value 0 means spin up (sz = +1).  Operators are
passed as sequences of (site, 2x2 matrix) factors, applied right to left
like a written product.  Helpers build the Jordan-Wigner composites
(string operators, fermion modes) in terms of such factors.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MAX_SITES = 16
DENSE_MAX_SITES = 12   # the dense 2^N x 2^N matrix is 134 MB here, 34 GB at 16

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SPLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # raises down to up
SMINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
PAULI = {"x": SX, "y": SY, "z": SZ, "+": SPLUS, "-": SMINUS}


def _check_sites(n_sites: int) -> int:
    n = int(n_sites)
    if n < 4 or n % 2 or n > MAX_SITES:
        raise ValueError(
            f"oracle handles even 4 <= N <= {MAX_SITES}, got {n_sites!r}"
        )
    return n


def _terms(n: int, g: float) -> tuple[np.ndarray, list[int]]:
    """H's terms: the field diagonal over all 2^N basis states and the
    N bond masks, each of which flips a pair of neighbouring spins with
    amplitude -1."""
    # popcount of the bit string = number of down spins
    down = np.bitwise_count(np.arange(1 << n)).astype(float)
    masks = [(1 << (n - j)) | (1 << (n - j % n - 1)) for j in range(1, n + 1)]
    return -g * (n - 2.0 * down), masks


def ring_hamiltonian(n_sites: int, g: float) -> np.ndarray:
    """Dense H = -sum_j (sx_j sx_{j+1} + g sz_j) with periodic closure."""
    n = _check_sites(n_sites)
    if n > DENSE_MAX_SITES:
        raise ValueError(f"dense H handles N <= {DENSE_MAX_SITES}, got {n}; "
                         f"EDQuench reaches N = {MAX_SITES}")
    diag, masks = _terms(n, g)
    idx = np.arange(1 << n)
    h = np.diag(diag)
    for mask in masks:
        h[idx, idx ^ mask] -= 1.0
    return h


def _orbits(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rotation-orbit label of every basis state and the orbit sizes."""
    idx = np.arange(1 << n)
    rot, least = idx, idx
    for _ in range(n - 1):
        rot = ((rot << 1) | (rot >> (n - 1))) & ((1 << n) - 1)
        least = np.minimum(least, rot)
    _, label = np.unique(least, return_inverse=True)
    return label, np.bincount(label)


class EDQuench:
    """Exact post-quench evolution of the x-polarized state on a small ring.

    `eigenvalues` is the spectrum of H's zero-momentum block, the only part
    of the spectrum the x-polarized state has weight in.
    """

    def __init__(self, n_sites: int, g: float):
        self.n_sites = _check_sites(n_sites)
        self.g = float(g)
        n = self.n_sites
        self._label, size = _orbits(n)
        self._norm = np.sqrt(size)
        diag, masks = _terms(n, self.g)
        idx = np.arange(1 << n)
        block = np.zeros((size.size, size.size))
        np.add.at(block, (self._label, self._label), diag)
        for mask in masks:
            np.add.at(block, (self._label, self._label[idx ^ mask]), -1.0)
        block /= np.outer(self._norm, self._norm)
        self.eigenvalues, self._eigenvectors = np.linalg.eigh(block)
        # <orbit|psi0> for the uniform psi0 = 2^(-N/2) sum_i |i>
        self._coef0 = self._eigenvectors.T @ (self._norm * 2.0 ** (-n / 2))

    def state(self, t: float) -> np.ndarray:
        """Full 2^N state vector at time t (unit norm up to roundoff)."""
        phases = np.exp(-1j * self.eigenvalues * t)
        block = self._eigenvectors @ (phases * self._coef0)
        return (block / self._norm)[self._label]

    def energy(self) -> float:
        """Conserved energy <R|H|R>."""
        return float(np.sum(self.eigenvalues * self._coef0 ** 2))


@lru_cache(maxsize=2)
def quench_oracle(n_sites: int, g: float) -> EDQuench:
    """Cached EDQuench: one block diagonalization per (N, g)."""
    return EDQuench(n_sites, g)


def apply_factors(state: np.ndarray, n_sites: int, factors) -> np.ndarray:
    """Apply a product of (site, 2x2) factors, rightmost factor first."""
    n = int(n_sites)
    psi = np.asarray(state, dtype=complex)
    if psi.shape != (1 << n,):
        raise ValueError(f"state has shape {psi.shape}, expected ({1 << n},)")
    for site, op in reversed(list(factors)):
        site = int(site)
        if not 1 <= site <= n:
            raise ValueError(f"site {site} outside 1..{n}")
        op = np.asarray(op, dtype=complex)
        if op.shape != (2, 2):
            raise ValueError(f"factor at site {site} has shape {op.shape}")
        block = psi.reshape(1 << (site - 1), 2, -1)
        psi = np.einsum("ab,ibj->iaj", op, block).reshape(-1)
    return psi


def expectation(state: np.ndarray, n_sites: int, factors) -> complex:
    """<state| product of factors |state>."""
    return complex(np.vdot(state, apply_factors(state, n_sites, factors)))


def pauli_factor(axis: str, site: int) -> list[tuple[int, np.ndarray]]:
    return [(site, PAULI[axis])]


def string_x(j: int) -> list[tuple[int, np.ndarray]]:
    """X_j = sz_1 ... sz_{j-1} sx_j, the x operator dressed with the z string."""
    return [(l, SZ) for l in range(1, j)] + [(j, SX)]


def fermion_annihilation(j: int) -> list[tuple[int, np.ndarray]]:
    """Jordan-Wigner c_j = prod_{l<j}(-sz_l) s-_j."""
    return [(l, -SZ) for l in range(1, j)] + [(j, SMINUS)]


def fermion_creation(j: int) -> list[tuple[int, np.ndarray]]:
    return [(l, -SZ) for l in range(1, j)] + [(j, SPLUS)]


def two_site_rdm(state: np.ndarray, n_sites: int, sites=(1, 2)) -> np.ndarray:
    """Reduced density matrix of two sites, basis (uu, ud, du, dd).

    The first element of `sites` indexes the slower bit of the two-site
    basis, so the default (1, 2) matches the adjacent-pair layout used by
    the fermionic path.
    """
    n = int(n_sites)
    a, b = (int(s) for s in sites)
    if not (1 <= a <= n and 1 <= b <= n) or a == b:
        raise ValueError(f"sites must be distinct and within 1..{n}, got {sites}")
    psi = np.asarray(state, dtype=complex).reshape((2,) * n)
    psi = np.moveaxis(psi, (a - 1, b - 1), (0, 1)).reshape(4, -1)
    return psi @ psi.conj().T


def one_site_rdm(state: np.ndarray, n_sites: int, site: int = 1) -> np.ndarray:
    """Reduced density matrix of a single site, basis (u, d)."""
    n = int(n_sites)
    if not 1 <= int(site) <= n:
        raise ValueError(f"sites must be within 1..{n}, got {site}")
    psi = np.asarray(state, dtype=complex).reshape((2,) * n)
    psi = np.moveaxis(psi, site - 1, 0).reshape(2, -1)
    return psi @ psi.conj().T


def parity_weights(state: np.ndarray, n_sites: int) -> tuple[float, float]:
    """Squared norms of the even/odd fermion-parity components.

    Parity of a basis state is (-1)^(number of down spins); the initial
    x-polarized state splits exactly half and half, and the split is
    conserved by H.
    """
    n = int(n_sites)
    psi = np.asarray(state)
    odd = (np.bitwise_count(np.arange(1 << n)) & 1).astype(bool)
    w_odd = float(np.sum(np.abs(psi[odd]) ** 2))
    w_even = float(np.sum(np.abs(psi[~odd]) ** 2))
    return w_even, w_odd
