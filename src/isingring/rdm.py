"""One- and two-site reduced density matrices and entanglement measures.

The two-site RDM of adjacent sites in the quench state has the fixed
sparsity pattern imposed by translation invariance and the remnants of
parity symmetry: the diagonal carries (rho11, rho22, rho22, rho44), the
parity-even off-diagonal entries are rho14 (double flip) and rho23
(exchange), and the parity-odd column entries rho12, rho24 come from the
single-mode expectations <c_1>, <c_2>.

Physical inputs give a positive matrix up to roundoff; construction
repairs eigenvalues in [-NEG_TOL, 0) by clamping and renormalizing and
treats anything more negative as an upstream inconsistency.
Everything here also takes stacks, (..., 4, 4) matrices or (..., 3)
Bloch vectors, and works per member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-9
TRACE_TOL = 1e-9
NEG_TOL = 1e-9

PAULI_2 = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_XYZ = np.stack([PAULI_2[a] for a in "xyz"])
_PAULI_4 = {a + b: np.kron(PAULI_2[a], PAULI_2[b]) for a in PAULI_2 for b in PAULI_2}
_YY = _PAULI_4["yy"].real  # sigma_y x sigma_y, real


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class SingleSiteRDM:
    """A qubit state as its Bloch vector (bx, by, bz), or a (..., 3) stack."""

    bloch: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bloch, dtype=float)
        if b.shape[-1:] != (3,):
            raise ValueError(f"bloch vector must have shape (3,), got {b.shape}")
        norm = np.linalg.norm(b, axis=-1)
        if np.any(norm > 1.0 + 1e-9):
            raise ValueError(f"bloch vector leaves the unit ball: |b| = {norm.max():.6g}")
        object.__setattr__(self, "bloch", b)

    @property
    def matrix(self) -> np.ndarray:
        return 0.5 * (PAULI_2["i"] + np.einsum("...a,aij->...ij", self.bloch, _XYZ))

    def purity(self):
        return 0.5 * (1.0 + np.einsum("...a,...a->...", self.bloch, self.bloch))


@dataclass(frozen=True)
class TwoSiteRDM:
    """A validated 4x4 density matrix in the basis (uu, ud, du, dd).

    `matrix` may be a (..., 4, 4) stack; only members with roundoff
    negativity go through the eigendecomposition repair.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape[-2:] != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        if np.abs(m - _dagger(m)).max() > HERM_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        m = (m + _dagger(m)) / 2.0
        dev = np.ravel(np.trace(m, axis1=-2, axis2=-1).real - 1.0)
        if np.any(np.abs(dev) > TRACE_TOL):
            worst = dev[np.argmax(np.abs(dev))]
            raise ValueError(f"trace deviates from 1 by {worst:.3e}")
        lowest = np.linalg.eigvalsh(m)[..., 0]
        if np.any(lowest < -NEG_TOL):
            raise ValueError(f"negative eigenvalue {lowest.min():.3e} beyond repair")
        flagged = lowest < 0.0
        if np.any(flagged):
            w, v = np.linalg.eigh(m[flagged])
            fixed = (v * np.clip(w, 0.0, None)[:, None, :]) @ _dagger(v)
            m[flagged] = fixed / np.trace(fixed, axis1=1, axis2=2).real[:, None, None]
        object.__setattr__(self, "matrix", m)

    def reduce(self, site: int) -> SingleSiteRDM:
        """Trace out the other site, keeping `site` (1 or 2)."""
        t = self.matrix.reshape(self.matrix.shape[:-2] + (2, 2, 2, 2))
        m = np.einsum("...ikjk->...ij", t) if site == 1 else np.einsum("...kikj->...ij", t)
        return SingleSiteRDM(np.einsum("...ij,aji->...a", m, _XYZ).real)


def assemble_two_site(even, rho12, rho24) -> TwoSiteRDM:
    """Two-site RDM from the parity-even block and the odd entries.

    `even` is an EvenObservables record; rho12 = (<c_1> - <c_2>)/2 and
    rho24 = (<c_1> + <c_2>)/2 fill the parity-breaking positions.  rho44
    closes the unit trace.  Entries of shape (T,) give a (T, 4, 4) stack.
    """
    r11, r14, r23, r22 = even.rho11, even.rho14, even.rho23, even.rho22
    r44 = 1.0 - r11 - 2.0 * r22
    m = np.array([
        [r11, rho12, rho12, r14],
        [np.conj(rho12), r22, r23, rho24],
        [np.conj(rho12), r23, r22, rho24],
        [np.conj(r14), np.conj(rho24), np.conj(rho24), r44],
    ])
    return TwoSiteRDM(np.moveaxis(m, (0, 1), (-2, -1)))


def pauli_correlation(r: TwoSiteRDM, axis1: str, axis2: str):
    """<sigma^{axis1}_1 sigma^{axis2}_2> from the two-site matrix."""
    return np.einsum("...ij,ji->...", r.matrix, _PAULI_4[axis1 + axis2]).real


def concurrence(r: TwoSiteRDM):
    """Wootters concurrence of the two-site state.

    With rho = Psi Psi+ (Psi = V sqrt(W) from the eigendecomposition), the
    square roots l1 >= ... >= l4 of the eigenvalues of rho rho~, where
    rho~ = (y x y) rho* (y x y), are the singular values of the symmetric
    matrix Psi^T (y x y) Psi, and C = max(0, l1 - l2 - l3 - l4).  Taking
    them as singular values keeps roundoff in them at O(eps); square roots
    of computed eigenvalues would turn it into O(sqrt(eps)), ~1e-8 for a
    product state.
    """
    w, v = np.linalg.eigh(r.matrix)
    psi = v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    lam = np.linalg.svd(psi.swapaxes(-1, -2) @ _YY @ psi, compute_uv=False)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])
