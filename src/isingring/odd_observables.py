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
on each row and column, so a ring size costs one O(N^3) core build.  Its
blocks are sparse in a way the evaluation exploits: the bra-bra block A
is 2x2-block-diagonal with one entry p_k per bra pair, the ket-ket block B
is 2x2-block-diagonal too, the bra-ket block C is dense, and the inserted
operator touches only ket columns (c_j) or only bra rows (c+_j).
Eliminating A by a Schur complement,

    Pf(S) = Pf(A) Pf([[0, border], [-border^T, M]]),   M = B + C^T A^-1 C,

leaves an (N-1) x (N-1) matrix M that is the same for every site; the
site enters only through the border row, and the Pfaffian is linear in
it.  Bordering M once with a fixed reference row gives, from one pivoted
elimination per time, both its Pfaffian and the vector w that turns
every site's border into its Pfaffian by a dot product.  So a time costs
one matrix product to form M and one N-dimensional elimination, plus O(N)
per site, whatever the site list.

p_k is conj(u_k) of a bra pair, which vanishes exactly at g=1 whenever
Lambda_k t = pi/2, and A^-1 would then amplify roundoff by 1/|p_k|.  Bra
pairs whose |p_k| falls below PAIR_TOL times the largest one at any time
of the evaluated batch are therefore kept in the reduced matrix instead
of being eliminated, where the pivoted elimination handles them; every
time of a batch shares that retained set, so the stack has one shape.
A batch is EVAL_BLOCK consecutive times of the grid a call is given, so
which times share a batch, and with it the low bits of every value,
depends on that grid alone.

Pf(A) and Pf(M) each grow or shrink geometrically with N and leave
double range near N = 800, while their product, the O(1) matrix
element, does not: both are carried as a mantissa and a binary exponent
and meet before the one rescaling of w.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .model import EVEN, ODD, RELATIVE_PHASE, momentum_grids
from .pfaffian import _ldexp, _normalized, pfaffian_batch

#: Times per batch of the cross-parity evaluation; simulate uses it for
#: its pool tasks.
EVAL_BLOCK = 16

#: Bra pairs with |p_k| <= PAIR_TOL * max |p_k| stay in the reduced matrix.
PAIR_TOL = 1e-3

#: Golden-ratio phases of the fixed reference border row.
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


class CrossParityKernel:
    """Evaluator of <c_j> on a ring of fixed size.

    Builds the time-independent parts of the contraction matrix of
    <phi_+| . |phi_-> once; `c_series` then needs only the mode amplitudes
    of the two sectors along the time grid.  Both cross terms come from
    that one matrix: inserting c_j gives <phi_+| c_j |phi_->, and
    inserting c+_j gives <phi_+| c+_j |phi_->, the complex conjugate of
    <phi_-| c_j |phi_+>.

    Factor order: bra pairs (reversed momentum order) as rows 2i
    (conj(C_k), annihilating) and 2i+1 (conj(B_k)); then the inserted
    operator; then the ket's c+_0 and its pairs as B_q, C_q.  `fa_bra`
    holds the annihilation coefficients of the bra rows and `fb_ket` the
    creation coefficients of the ket rows, per site; `c_core` is their
    overlap, the bra-ket block before amplitude scaling.  Inside a pair
    the two plane waves overlap to exactly 1, so the bra-bra entry of
    pair k is conj(u_k) and the ket-ket entry of pair q is u_q.
    """

    def __init__(self, n_sites: int):
        self.n_sites = n = int(n_sites)
        even, odd = momentum_grids(n)
        k_bra = even.positive[::-1]             # bra pairs, reversed order
        k_ket = odd.positive
        sites = np.arange(1, n + 1)
        omega = np.exp(-1j * np.pi / 4) / np.sqrt(n)

        bra_p, bra_m = (np.exp(sign * 1j * np.outer(k_bra, sites)) for sign in (1, -1))
        ket_p, ket_m = (np.exp(sign * 1j * np.outer(k_ket, sites)) for sign in (1, -1))
        fa_bra = np.empty((n, n), dtype=complex)
        fa_bra[0::2] = omega * bra_p            # bra pairs: conj(C_k) ...
        fa_bra[1::2] = omega * bra_m            # ... then conj(B_k)
        fb_ket = np.empty((n - 1, n), dtype=complex)
        fb_ket[0] = omega.conjugate()           # leading c+_0 of the ket
        fb_ket[1::2] = omega.conjugate() * ket_p   # ket pairs: B_q then C_q
        fb_ket[2::2] = omega.conjugate() * ket_m
        self.fa_bra, self.fb_ket = fa_bra, fb_ket
        self.c_core = fa_bra @ fb_ket.T

    def _matrix_elements(self, eu, ev, ou, ov, sites):
        """Pfaffians with c_j and with c+_j in the slot, each (times, sites)."""
        n_t, n = eu.shape[0], self.n_sites
        cols = np.asarray(sites) - 1
        u_bra, v_bra = eu.conj()[:, ::-1], ev.conj()[:, ::-1]
        a_bra = np.ones((n_t, n), dtype=complex)     # conj(C) rows: 1
        a_bra[:, 1::2] = v_bra
        b_ket = np.ones((n_t, n - 1), dtype=complex)  # c+_0 and C rows: 1
        b_ket[:, 1::2] = ov
        p = u_bra                                     # A[2i, 2i+1]
        absp = np.abs(p)
        keep = np.any(absp <= PAIR_TOL * absp.max(-1, keepdims=True), axis=0)
        kept = np.flatnonzero(keep)
        kept_rows = np.column_stack([2 * kept, 2 * kept + 1]).ravel()
        inv_p = np.zeros_like(p)
        np.divide(1.0, p, out=inv_p, where=~keep)

        # reduced matrix: reference border, kept bra rows, ket rows
        nr = kept_rows.size
        dim = n + nr
        mat = np.zeros((n_t, dim, dim), dtype=complex)
        rho = np.exp(2j * np.pi * _GOLDEN * np.arange(dim - 1))
        mat[:, 0, 1:] = rho
        mat[:, 1:, 0] = -rho
        # M = B + C^T A^-1 C over the eliminated pairs, one matmul per batch
        half = np.matmul(self.c_core[1::2].T * (v_bra * inv_p)[:, None, :], self.c_core[0::2])
        m = mat[:, 1 + nr:, 1 + nr:]
        m[:] = b_ket[:, :, None] * (half - half.transpose(0, 2, 1)) * b_ket[:, None, :]
        q = np.arange(ou.shape[1])
        m[:, 1 + 2 * q, 2 + 2 * q] += ou
        m[:, 2 + 2 * q, 1 + 2 * q] -= ou
        c_kept = a_bra[:, kept_rows, None] * self.c_core[kept_rows] * b_ket[:, None, :]
        mat[:, 1:1 + nr, 1 + nr:] = c_kept
        mat[:, 1 + nr:, 1:1 + nr] = -c_kept.transpose(0, 2, 1)
        s = np.arange(kept.size)
        mat[:, 1 + 2 * s, 2 + 2 * s] = p[:, kept]
        mat[:, 2 + 2 * s, 1 + 2 * s] = -p[:, kept]

        rhs = np.zeros((n_t, dim), dtype=complex)
        rhs[:, 0] = 1.0
        pf_m, pf_e, x = pfaffian_batch(mat, rhs)
        # x[1:] spans the null vector of M, so the Pfaffian with border b
        # is b . w with w = Pf(A over eliminated pairs) Pf(M_rho) x[1:];
        # Pf(A) = prod p, as mantissas and exponents, 512 factors at a time
        # so that mantissa products cannot underflow
        mant, expo = _normalized(np.where(keep, 1.0, p))
        pf_e = pf_e + expo.sum(-1)
        for i in range(0, mant.shape[1], 512):
            pf_m, e = _normalized(np.prod(mant[:, i:i + 512], axis=-1) * pf_m)
            pf_e += e
        w = _ldexp(pf_m, pf_e)[:, None] * x[:, 1:]
        bw = b_ket * w[:, nr:]
        pf_c = bw @ self.fb_ket[:, cols]
        # the c+_j border is [q_kept, -q^T A^-1 C] with q = -a_bra fa_bra[:, j]
        y = a_bra * (bw @ self.c_core.T)             # C w, bra rows
        h = np.empty_like(y)
        h[:, 0::2] = -y[:, 1::2] * inv_p
        h[:, 1::2] = y[:, 0::2] * inv_p
        h *= a_bra
        h[:, kept_rows] = -a_bra[:, kept_rows] * w[:, :nr]
        pf_cdag = h @ self.fa_bra[:, cols]
        return pf_c, pf_cdag

    def c_series(self, amps_pairs, sites=(1, 2)) -> np.ndarray:
        """<c_j> along (even, odd) amplitude pairs, each holding one time or
        a time grid, stacked in order; shape (times, sites).

        The stacked times are evaluated EVAL_BLOCK at a time, each batch
        one (EVAL_BLOCK, n, n) stack with one retained-pair set."""
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
        blocks = [self._matrix_elements(eu[i:i + EVAL_BLOCK], ev[i:i + EVAL_BLOCK],
                                        ou[i:i + EVAL_BLOCK], ov[i:i + EVAL_BLOCK], sites)
                  for i in range(0, phase.size, EVAL_BLOCK)]
        pf_c, pf_cdag = (np.concatenate(part) for part in zip(*blocks))
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
