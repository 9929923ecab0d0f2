"""Pfaffians of complex skew-symmetric matrices.

The Pfaffian shows up here as the value of a fermionic vacuum expectation
of a product of linear forms (Wick's theorem): the contraction matrix is
skew-symmetric and its Pfaffian is the full sum over pairings, signs
included.  The evaluator below eliminates two rows/columns at a time with
a Schur-complement update, picking the largest pivot in each column pair;
every row/column swap flips the sign, and the product of the 2x2 pivot
blocks accumulates the Pfaffian.  Cost is O(n^3) like an LU factorization.

That product grows or shrinks geometrically with n and leaves double
range on large rings, so it is carried as a mantissa and an integer
binary exponent, rescaled by a power of two after every pivot.  Power-of-
two scaling is exact, so a Pfaffian that fits in double range keeps the
bits of the plain running product, and one that does not saturates to inf
or 0 instead of becoming NaN.

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


def pfaffian_batch(mats: np.ndarray, rhs: np.ndarray | None = None):
    """Pfaffians of a stack of skew-symmetric matrices, shape (B, n, n).

    The pivoted elimination described in the module docstring, advanced
    in lockstep across the batch so the per-step numpy overhead is shared.
    The input is trusted to be skew-symmetric and is copied, not modified;
    an empty matrix has Pfaffian 1.  Stacks whose pivot column vanishes
    are retired with Pfaffian 0 and dragged along inertly (their pivot is
    replaced by 1 to keep the arithmetic finite).

    With a right-hand side `rhs` of shape (B, n) the same elimination also
    solves mats @ x = rhs, and (mantissa, exponent, x) is returned, with
    Pf = mantissa * 2**exponent: the rhs is carried through every swap and
    Schur update, then the stored pivot rows are back-substituted.  A
    retired matrix gets x = 0.
    """
    a = np.asarray(mats)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a (B, n, n) stack, got shape {a.shape}")
    nb, n = a.shape[0], a.shape[1]
    if n % 2:
        raise ValueError(f"dimension must be even, got {n}")
    if rhs is not None and np.shape(rhs) != (nb, n):
        raise ValueError(f"rhs must have shape {(nb, n)}, got {np.shape(rhs)}")
    pf = np.ones(nb, dtype=complex)
    expo = np.zeros(nb, dtype=int)
    if n == 0 or nb == 0:
        return pf if rhs is None else (pf, expo, np.zeros((nb, n), dtype=complex))
    a = a.astype(complex, copy=True)
    r = order = None
    if rhs is not None:
        r = np.array(rhs, dtype=complex)
        order = np.tile(np.arange(n), (nb, 1))     # column of x held by each row
    rows = np.arange(nb)
    alive = np.ones(nb, dtype=bool)
    pivots = np.ones((nb, n // 2), dtype=complex)
    for k in range(0, n, 2):
        col = _l1_abs(a[:, k + 1:, k])
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
            pf[dying] = 0.0
            alive &= ~dying
            if not np.any(alive):
                break
        p = k + 1 + rel
        need = alive & (p != k + 1)
        if np.any(need):
            nb_i, p_i = rows[need], p[need]
            tmp = a[nb_i, k + 1, :].copy()
            a[nb_i, k + 1, :] = a[nb_i, p_i, :]
            a[nb_i, p_i, :] = tmp
            tmp = a[nb_i, :, k + 1].copy()
            a[nb_i, :, k + 1] = a[nb_i, :, p_i]
            a[nb_i, :, p_i] = tmp
            if r is not None:
                for v in (r, order):
                    v[nb_i, k + 1], v[nb_i, p_i] = v[nb_i, p_i], v[nb_i, k + 1]
            pf[need] = -pf[need]
        b = a[:, k, k + 1]
        pf[alive] *= b[alive]
        pf, e = _normalized(pf)
        expo += e
        safe = np.where(np.abs(b) < PIVOT_GUARD, 1.0, b)
        pivots[:, k // 2] = safe
        if k + 2 < n:
            c1 = a[:, k + 2:, k]
            c2 = a[:, k + 2:, k + 1]
            upd = c2[:, :, None] * c1[:, None, :]
            upd -= c1[:, :, None] * c2[:, None, :]
            upd /= safe[:, None, None]
            a[:, k + 2:, k + 2:] += upd
            if r is not None:
                r[:, k + 2:] -= (c2 * r[:, k, None] - c1 * r[:, k + 1, None]) / safe[:, None]
    if r is None:
        return _ldexp(pf, expo)
    # back-substitution through the 2x2 pivots [[0, b], [-b, 0]]
    x = np.zeros_like(r)
    for k in range(n - 2, -1, -2):
        y = r[:, k:k + 2] - (a[:, k:k + 2, k + 2:] * x[:, None, k + 2:]).sum(-1)
        b = pivots[:, k // 2]
        x[:, k] = -y[:, 1] / b
        x[:, k + 1] = y[:, 0] / b
    x[~alive] = 0.0
    out = np.empty_like(x)
    out[rows[:, None], order] = x
    return pf, expo, out
