"""Pfaffians of complex skew-symmetric matrices.

The Pfaffian shows up here as the value of a fermionic vacuum expectation
of a product of linear forms (Wick's theorem): the contraction matrix is
skew-symmetric and its Pfaffian is the full sum over pairings, signs
included.  The evaluator below eliminates two rows/columns at a time,
picking the largest pivot in each column pair; every row/column swap
flips the sign, and the Pfaffian is that sign times the product of the
2x2 pivot entries.  The Schur update of a step with pivot b and pivot
columns c1, c2 is [c2, -c1] @ [c1, c2]^T / b, the two-column skew
Parlett-Reid step.  Cost is O(n^3) like an LU factorization.

The updates are delayed over a panel of PANEL_STEPS steps, as in the
blocked reduction of Wimmer, ACM TOMS 38, 30 (2012): a step brings only
its two pivot columns up to date (stored column plus the panel's left
factors times that column's row of earlier pivot columns), stores them in
place, and appends [c2, -c1] / b to the left factors.  The stored columns
are the right factors, so at the panel's end the whole trailing block
takes one matrix product.  A right-hand side to solve for rides along as
the matrix's skew border (last column rhs, last row -rhs), so the swaps
and updates that act on the matrix act on it too, and back-substitution
reads the stored pivot columns (row k of a skew matrix is minus its
column k).

The product of pivots grows or shrinks geometrically with n and leaves
double range on large rings, so it is formed as a mantissa and an integer
binary exponent: every pivot is split into both by exact power-of-two
scaling, and the mantissas are multiplied 512 at a time, renormalizing
after each group.  A Pfaffian that does not fit in double range thus
saturates to inf or 0 instead of becoming NaN.

Pivot magnitudes are compared as |Re| + |Im| rather than the complex
modulus: the L1 size is within sqrt(2) of the modulus (so pivoting is
just as stable) and is computed with exactly-rounded operations only,
which keeps the pivot choice, and therefore the low-order bits of the
result, independent of array layout and batch size.
"""

from __future__ import annotations

import warnings

import numpy as np


class PfaffianConditionWarning(RuntimeWarning):
    """Emitted when elimination hits a pivot below the underflow guard.

    The returned value is 0 in that case (the matrix is numerically
    singular at working precision), never NaN.
    """


#: Pivots with L1 magnitude |Re| + |Im| below this are treated as zeros.
PIVOT_GUARD = 1e-300

#: Pivot steps (two columns each) whose rank-2 updates are delayed and
#: applied to the trailing block as one matrix product.
PANEL_STEPS = 16


def _l1_abs(z: np.ndarray) -> np.ndarray:
    """|Re z| + |Im z|, an exactly-rounded stand-in for the modulus."""
    return np.abs(z.real) + np.abs(z.imag)


def _ldexp(z: np.ndarray, e) -> np.ndarray:
    """z * 2**e for complex z, part by part: exact within double range,
    inf or 0 outside it, never NaN."""
    out = np.empty_like(z)
    with np.errstate(over="ignore", under="ignore"):
        out.real = np.ldexp(z.real, e)
        out.imag = np.ldexp(z.imag, e)
    return out


def _normalized(z: np.ndarray):
    """(m, e) with z = m * 2**e exactly and 0.5 <= |m| < 1 up to rounding;
    z must be finite and normal (so 2**-e is a finite double)."""
    _, e = np.frexp(np.abs(z))
    return z * np.ldexp(1.0, -e), e


def _product(z: np.ndarray):
    """(m, e) with prod(z, axis=-1) = m * 2**e and 0.5 <= |m| < 1 up to
    rounding, or (1, 0) for no factors; factors must be finite and normal.
    Each factor is normalized, and the normalized factors are multiplied
    512 at a time, a partial product no smaller than 2**-512 in modulus,
    so none leaves double range."""
    mant, expo = _normalized(z)
    m = np.ones(z.shape[:-1], dtype=complex)
    e = expo.sum(-1)
    for i in range(0, z.shape[-1], 512):
        m, de = _normalized(np.prod(mant[..., i:i + 512], axis=-1) * m)
        e += de
    return m, e


def pfaffian_batch(mats: np.ndarray, rhs: np.ndarray | None = None):
    """Pfaffians of a stack of skew-symmetric matrices, shape (B, n, n).

    The pivoted, panel-blocked elimination described in the module
    docstring, advanced in lockstep across the batch so the per-step numpy
    overhead is shared.  The input is trusted to be skew-symmetric and is
    copied, not modified; an empty matrix has Pfaffian 1.  Stacks whose
    pivot column vanishes are retired with Pfaffian 0 and dragged along
    inertly (their pivot is replaced by 1 to keep the arithmetic finite).

    With a right-hand side `rhs` of shape (B, n) the same elimination also
    solves mats @ x = rhs, and (mantissa, exponent, x) is returned, with
    Pf = mantissa * 2**exponent: the rhs borders the matrix as its last
    column (and its negation as the last row), so every swap and update
    carries it, and x is back-substituted from the stored pivot columns.
    A retired matrix gets x = 0.
    """
    a = np.asarray(mats)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a (B, n, n) stack, got shape {a.shape}")
    nb, n = a.shape[0], a.shape[1]
    if n % 2:
        raise ValueError(f"dimension must be even, got {n}")
    if rhs is not None and np.shape(rhs) != (nb, n):
        raise ValueError(f"rhs must have shape {(nb, n)}, got {np.shape(rhs)}")
    dim = n if rhs is None else n + 1
    a = np.zeros((nb, dim, dim), dtype=complex)
    a[:, :n, :n] = mats
    if rhs is not None:
        a[:, :n, n] = rhs
        a[:, n, :n] = -a[:, :n, n]
    order = np.tile(np.arange(n), (nb, 1))         # column of x held by each row
    rows = np.arange(nb)
    alive = np.ones(nb, dtype=bool)
    sign = np.ones(nb)
    pivots = np.ones((nb, n // 2), dtype=complex)
    # the open panel's [c2, -c1]/b, no wider than the matrix
    u = np.empty((nb, dim, min(2 * PANEL_STEPS, n)), dtype=complex)
    for k in range(0, n, 2):
        k0 = k - k % (2 * PANEL_STEPS)
        r = k - k0
        a[:, k:, k] += (u[:, k:, :r] @ a[:, k, k0:k, None])[..., 0]
        col = _l1_abs(a[:, k + 1:n, k])
        rel = np.argmax(col, axis=1)
        piv = col[rows, rel]
        dying = alive & (piv < PIVOT_GUARD)
        if np.any(dying):
            if np.any(piv[dying] > 0.0):
                warnings.warn(
                    "pivot below underflow guard; returning 0",
                    PfaffianConditionWarning,
                    stacklevel=2,
                )
            alive &= ~dying
            if not np.any(alive):
                break
        p = k + 1 + rel
        need = alive & (p != k + 1)
        if np.any(need):
            nb_i, p_i = rows[need], p[need]
            a[nb_i, k + 1, :], a[nb_i, p_i, :] = a[nb_i, p_i, :], a[nb_i, k + 1, :]
            a[nb_i, :, k + 1], a[nb_i, :, p_i] = a[nb_i, :, p_i], a[nb_i, :, k + 1]
            u[nb_i, k + 1], u[nb_i, p_i] = u[nb_i, p_i], u[nb_i, k + 1]
            order[nb_i, k + 1], order[nb_i, p_i] = order[nb_i, p_i], order[nb_i, k + 1]
            sign[need] = -sign[need]
        a[:, k:, k + 1] += (u[:, k:, :r] @ a[:, k + 1, k0:k, None])[..., 0]
        b = a[:, k, k + 1]
        pivots[:, k // 2] = safe = np.where(_l1_abs(b) < PIVOT_GUARD, 1.0, b)
        u[:, k + 2:, r] = a[:, k + 2:, k + 1] / safe[:, None]
        u[:, k + 2:, r + 1] = a[:, k + 2:, k] / -safe[:, None]
        e = k + 2
        if e - k0 == 2 * PANEL_STEPS and e < n:
            a[:, e:, e:] += u[:, e:] @ a[:, e:, k0:e].mT
    pf, expo = _product(pivots)
    pf *= np.where(alive, sign, 0.0)
    if rhs is None:
        return _ldexp(pf, expo)
    # back-substitution through the 2x2 pivots [[0, b], [-b, 0]], reading
    # the stored columns (row k is minus column k) and x's last entry -1
    # for the border row
    x = np.zeros((nb, n + 1), dtype=complex)
    x[:, n] = -1.0
    for k in range(n - 2, -1, -2):
        y = (x[:, None, k + 2:] @ a[:, k + 2:, k:k + 2])[:, 0]
        b = pivots[:, k // 2]
        x[:, k] = -y[:, 1] / b
        x[:, k + 1] = y[:, 0] / b
    x = x[:, :n]
    x[~alive] = 0.0
    out = np.empty_like(x)
    out[rows[:, None], order] = x
    return pf, expo, out
