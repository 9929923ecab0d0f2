"""Parity-breaking observables via Pfaffian contraction of sector overlaps.

Operators with an odd number of fermions (sigma^x, sigma^y, the dressed
string X_j, the Jordan-Wigner mode c_j itself) have no diagonal matrix
elements within a parity sector.  In the quench state

    |R(t)> = (|phi_+(t)> + exp(-i pi/4) |phi_-(t)>) / sqrt(2)

they live entirely on the cross terms,

    <c_j> = ( exp(-i pi/4) <phi_+| c_j |phi_->
            + exp(+i pi/4) <phi_-| c_j |phi_+> ) / 2,

which mix the antiperiodic and periodic fermion vacua.  The second term
is the complex conjugate of <phi_+| c+_j |phi_->, so both come from one
bra/ket pair with either c_j or c+_j inserted.  The two sector
states are Gaussian but built on different momentum grids, so the usual
same-grid mode bookkeeping does not apply.  The evaluation used here goes
through Wick's theorem directly:

* each evolved pair factor is linearized on the pair vacuum,
      (u_k + v_k c+_k c+_{-k}) |vac> = (u_k c_{-k} + v_k c+_k) c+_{-k} |vac>,
  so bra, inserted operator and ket together form an ordered product of 2N
  linear forms in the real-space modes c_l, c+_l;
* the vacuum expectation of that product is the Pfaffian of the matrix of
  pairwise contractions <A_mu A_nu> = alpha_mu . beta_nu (mu < nu), where
  alpha/beta are the annihilation/creation coefficient vectors of each
  factor.

Factor order is fixed once and for all (bra pairs in reversed momentum
order as conjugates, unpaired k=0 mode adjacent to the inserted operator,
ket pairs in forward order); any reordering flips Pfaffian signs.  The
exp(2it) phase of the odd sector enters through ModeAmplitudes.phase.

The contraction matrix factorizes into a time-independent core (Fourier
overlaps between the two grids) scaled by the time-dependent amplitudes
on each row and column, so a ring size costs one O(N^3) core build.  Per
chunk of times the scaled matrix is assembled once; each site then only
writes the row of c_j or the column of c+_j into the inserted operator's
slot, and each (time, site) costs two Pfaffians, pushed through the
batched elimination for the whole chunk at once.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .model import EVEN, ODD, RELATIVE_PHASE, momentum_grids
from .pfaffian import pfaffian_batch

#: Complex elements per chunk of stacked contraction matrices (memory cap).
CHUNK_ELEMS = 2_000_000


class CrossParityKernel:
    """Evaluator of <c_j> on a ring of fixed size.

    Builds the contraction core of <phi_+| . |phi_-> once; `c_series` then
    needs only the mode amplitudes of the two sectors along the time grid.
    Both cross terms come from that one core: inserting c_j gives
    <phi_+| c_j |phi_->, and inserting c+_j gives <phi_+| c+_j |phi_->,
    the complex conjugate of <phi_-| c_j |phi_+>.

    `core` holds the Fourier part of all pairwise contractions; `fa`/`fb`
    keep the annihilation/creation coefficient rows so the slot row (c_j)
    or slot column (c+_j) of the contraction matrix can be read off per
    site.  Index arrays locate the rows whose amplitude scaling changes
    with time.
    """

    def __init__(self, n_sites: int):
        self.n_sites = n = int(n_sites)
        even, odd = momentum_grids(n)
        k_bra = even.positive[::-1]             # bra pairs, reversed order
        k_ket = odd.positive
        sites = np.arange(1, n + 1)
        omega = np.exp(-1j * np.pi / 4) / np.sqrt(n)
        slot = 2 * k_bra.size                   # inserted operator, per site
        ket_b_rows = slot + 2 + 2 * np.arange(k_ket.size)

        bra_p, bra_m = (np.exp(sign * 1j * np.outer(k_bra, sites)) for sign in (1, -1))
        ket_p, ket_m = (np.exp(sign * 1j * np.outer(k_ket, sites)) for sign in (1, -1))
        fa = np.zeros((2 * n, n), dtype=complex)
        fb = np.zeros((2 * n, n), dtype=complex)
        fa[0:slot:2] = omega * bra_p            # bra pairs: conj(C_k) ...
        fa[1:slot:2] = omega * bra_m            # ... then conj(B_k)
        fb[1:slot:2] = omega.conjugate() * bra_m
        fb[slot + 1] = omega.conjugate()        # leading c+_0 of the ket
        fa[ket_b_rows] = omega * ket_p          # ket pairs: B_k then C_k
        fb[ket_b_rows] = omega.conjugate() * ket_p
        fb[ket_b_rows + 1] = omega.conjugate() * ket_m

        self.a_scale = np.zeros(2 * n, dtype=complex)
        self.b_scale = np.zeros(2 * n, dtype=complex)
        self.a_scale[0:slot:2] = 1.0            # conj(C) rows annihilate
        self.b_scale[ket_b_rows + 1] = 1.0      # C rows create
        self.b_scale[slot + 1] = 1.0
        self.core = fa @ fb.T
        self.fa, self.fb = fa, fb
        self.slot = slot
        self.bra_bdag_rows = 2 * np.arange(k_bra.size) + 1
        self.ket_b_rows = ket_b_rows

    def _matrix_elements(self, eu, ev, ou, ov, sites):
        """Pfaffians with c_j and with c+_j in the slot, each (times, sites)."""
        n_t = eu.shape[0]
        a_all = np.tile(self.a_scale, (n_t, 1))
        b_all = np.tile(self.b_scale, (n_t, 1))
        a_all[:, self.bra_bdag_rows] = ev.conj()[:, ::-1]
        b_all[:, self.bra_bdag_rows] = eu.conj()[:, ::-1]
        a_all[:, self.ket_b_rows] = ou
        b_all[:, self.ket_b_rows] = ov
        m, slot = self.core.shape[0], self.slot
        pf_c = np.empty((n_t, len(sites)), dtype=complex)
        pf_cdag = np.empty_like(pf_c)
        step = max(1, CHUNK_ELEMS // (m * m))
        for start in range(0, n_t, step):
            sl = slice(start, min(start + step, n_t))
            a, b = a_all[sl], b_all[sl]
            # slot row and column are zero here: a_scale and b_scale vanish there
            s = np.triu(a[:, :, None] * self.core[None, :, :] * b[:, None, :], 1)
            s -= np.transpose(s, (0, 2, 1))
            c_row, cdag_row = np.zeros_like(a), np.zeros_like(a)
            for si, j in enumerate(sites):
                # c_j fills the slot row right of the slot, c+_j the column
                # above it; the slot row is stored and its column is -row
                c_row[:, slot + 1:] = b[:, slot + 1:] * self.fb[slot + 1:, j - 1]
                cdag_row[:, :slot] = -a[:, :slot] * self.fa[:slot, j - 1]
                for row, out in ((c_row, pf_c), (cdag_row, pf_cdag)):
                    s[:, slot, :] = row
                    s[:, :, slot] = -row
                    out[sl, si] = pfaffian_batch(s)
        return pf_c, pf_cdag

    def c_series(self, amps_pairs, sites=(1, 2)) -> np.ndarray:
        """<c_j> along (even, odd) amplitude pairs, each holding one time or
        a time grid, stacked in order; shape (times, sites)."""
        sites = [int(s) for s in np.atleast_1d(sites)]
        if any(not 1 <= s <= self.n_sites for s in sites):
            raise ValueError(f"sites must lie in 1..{self.n_sites}, got {sites}")
        expected = {EVEN: self.n_sites // 2, ODD: self.n_sites // 2 - 1}
        for even, odd in amps_pairs:
            if even.sector != EVEN or odd.sector != ODD:
                raise ValueError("pass (even, odd) mode amplitudes in that order")
            if not np.array_equal(even.time, odd.time):
                raise ValueError(f"sector times differ: {even.time} vs {odd.time}")
            if even.u.shape[-1] != expected[EVEN] or odd.u.shape[-1] != expected[ODD]:
                raise ValueError("mode amplitudes do not match this ring size")
        eu = np.concatenate([np.atleast_2d(e.u) for e, _ in amps_pairs])
        ev = np.concatenate([np.atleast_2d(e.v) for e, _ in amps_pairs])
        ou = np.concatenate([np.atleast_2d(o.u) for _, o in amps_pairs])
        ov = np.concatenate([np.atleast_2d(o.v) for _, o in amps_pairs])
        phase = np.concatenate([np.atleast_1d(o.phase) for _, o in amps_pairs])
        pf_c, pf_cdag = self._matrix_elements(eu, ev, ou, ov, sites)
        w = (RELATIVE_PHASE * phase)[:, None]
        return 0.5 * (w * pf_c + np.conj(w * pf_cdag))


@lru_cache(maxsize=4)
def _kernel(n_sites: int) -> CrossParityKernel:
    return CrossParityKernel(n_sites)


def c_expectations_series(amps_pairs, n_sites: int, sites=(1, 2)) -> np.ndarray:
    """<c_j> along a sequence of (even, odd) amplitude pairs, shape (T, S).

    The one entry point to the odd path (cached kernel per ring size):
    every parity-odd observable is read off these values.  A pair may hold
    one time or a time grid; rows follow the pairs' times in order.
    """
    return _kernel(int(n_sites)).c_series(list(amps_pairs), sites)


def longitudinal_magnetization(c1):
    """(<sigma^x>, <sigma^y>) of site 1 from <c_1> (a scalar or an array).

    sigma^x_1 = c_1 + c+_1 and sigma^y_1 = -i(c+_1 - c_1), so the pair is
    (2 Re<c_1>, -2 Im<c_1>).
    """
    return 2.0 * c1.real, -2.0 * c1.imag


def string_signs(sites) -> np.ndarray:
    """(-1)^(j-1) prefactors relating <X_j> to 2 Re<c_j>.

    The string operator <X_j> = <sz_1 ... sz_{j-1} sx_j> is
    (-1)^(j-1) (c_j + c+_j) in fermion language.
    """
    sites = np.atleast_1d(sites).astype(int)
    return np.where((sites - 1) % 2, -1.0, 1.0)


def odd_rdm_entries(c1: complex, c2: complex) -> tuple[complex, complex]:
    """Parity-odd two-site entries (rho_12, rho_24) from <c_1>, <c_2>."""
    return (c1 - c2) / 2.0, (c1 + c2) / 2.0
