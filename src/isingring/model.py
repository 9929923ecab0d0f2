"""Quench kinematics of the transverse-field Ising ring.

The system is a ring of N spins (N even) with

    H = - sum_j ( sx_j sx_{j+1} + g sz_j ),

prepared in the fully x-polarized product state (the g=0 ground state) and
evolved with transverse field g > 0 from t = 0.

A Jordan-Wigner transformation maps the ring onto spinless fermions with a
boundary condition tied to fermion parity, giving two decoupled sectors:

* even parity ("+"): antiperiodic fermions, momenta at half-odd multiples
  of 2*pi/N, all of them paired as (k, -k);
* odd parity ("-"): periodic fermions, momenta at integer multiples of
  2*pi/N, which pair up except for the two self-conjugate modes k = 0 and
  k = -pi.

Each (k, -k) pair evolves inside the two-dimensional block spanned by the
pair vacuum and the doubly occupied state c+_k c+_{-k} |vac>.  Measuring
from the pair content of the initial state, the block propagator gives the
amplitudes u_k(t) (vacuum) and v_k(t) (occupied) implemented below; the
traceless-block convention used here pushes all residual phases of the odd
sector into the single factor exp(2it) carried by `ModeAmplitudes.phase`.

The initial state has equal weight on both sector ground states,

    |R> = (|G_+> + exp(-i pi/4) |G_->) / sqrt(2),

so every observable needs both grids: parity-even operators average the two
sector expectations, parity-odd operators live entirely on the cross terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

EVEN = "even"
ODD = "odd"

#: Relative phase of the odd-parity component in the initial state |R>.
RELATIVE_PHASE = np.exp(-1j * np.pi / 4)

#: Below this dispersion scale sin(L t)/L switches to its Taylor expansion.
SMALL_DISPERSION = 1e-8


def _validate_n_sites(n_sites: int) -> int:
    n = int(n_sites)
    if n != n_sites or n < 4 or n % 2:
        raise ValueError(f"n_sites must be an even integer >= 4, got {n_sites!r}")
    return n


def _validate_field(g: float) -> None:
    if not np.isfinite(g) or g < 0:
        raise ValueError(f"field_g must be finite and >= 0, got {g}")


@dataclass(frozen=True)
class MomentumGrid:
    """Momenta of one parity sector.

    `positive` holds the strictly positive momenta, one per (k, -k) pair,
    in increasing order.  `unpaired` holds the self-conjugate momenta
    (empty for the even sector, (-pi, 0) for the odd one).
    """

    sector: str
    positive: np.ndarray
    unpaired: tuple[float, ...]

    @property
    def n_pairs(self) -> int:
        return self.positive.size


@lru_cache(maxsize=8)
def momentum_grids(n_sites: int) -> tuple[MomentumGrid, MomentumGrid]:
    """The (even, odd) momentum grids of an N-site ring, cached and read-only."""
    n = _validate_n_sites(n_sites)
    step = 2.0 * np.pi / n
    k_even = (np.arange(n // 2) + 0.5) * step          # pi/N, 3*pi/N, ..., pi - pi/N
    k_odd = np.arange(1, n // 2) * step                # 2*pi/N, ..., pi - 2*pi/N
    k_even.flags.writeable = k_odd.flags.writeable = False
    even = MomentumGrid(EVEN, k_even, ())
    odd = MomentumGrid(ODD, k_odd, (-np.pi, 0.0))
    return even, odd


def dispersion(g: float, k) -> np.ndarray:
    """Post-quench single-mode energy Lambda_k = 2 sqrt(g^2 + 2 g cos k + 1)."""
    radicand = g * g + 2.0 * g * np.cos(k) + 1.0
    # roundoff can push the g=1, k=pi zero slightly negative
    return 2.0 * np.sqrt(np.clip(radicand, 0.0, None))


def _sin_over(lam, t):
    """sin(lam*t)/lam, switching to the Taylor series for tiny lam."""
    lam = np.asarray(lam, dtype=float)
    small = lam < SMALL_DISPERSION
    safe = np.where(small, 1.0, lam)
    series = t * (1.0 - (lam * t) ** 2 / 6.0)
    return np.where(small, series, np.sin(lam * t) / safe)


def mode_uv(g: float, k, t) -> tuple[np.ndarray, np.ndarray]:
    """Pair amplitudes (u_k(t), v_k(t)) for a quench g: 0 -> g.

    u multiplies the pair vacuum and v the doubly occupied state
    c+_k c+_{-k} |vac>; the pair starts in its g=0 ground state
    sin(k/2)|vac> + cos(k/2)|kk>.  |u|^2 + |v|^2 = 1 identically.
    k is 1-d; a scalar t gives (P,) arrays, T times give (T, P).
    """
    k = np.asarray(k, dtype=float)
    t = np.asarray(t, dtype=float)[..., None]
    lam = dispersion(g, k)
    ct = np.cos(lam * t)
    st = _sin_over(lam, t)
    u = np.sin(k / 2) * (ct + 2j * (1.0 - g) * st)
    v = np.cos(k / 2) * (ct + 2j * (1.0 + g) * st)
    return u, v


@dataclass(frozen=True)
class ModeAmplitudes:
    """Pair amplitudes of one sector at one time or along T times.

    `u[..., i]`, `v[..., i]` refer to the pair at `momenta[i]` (the
    positive grid of the sector), shape (P,) or (T, P); `time` and `phase`
    are scalars or (T,).  `phase` is the phase of the whole sector state
    relative to the even one: 1 for the even sector, exp(2it) for the odd
    sector, where the occupied unpaired k=0 mode accumulates the only
    energy that survives the traceless-block convention.
    """

    sector: str
    momenta: np.ndarray
    u: np.ndarray
    v: np.ndarray
    time: float | np.ndarray
    phase: complex | np.ndarray


def evolve_amplitudes(grid: MomentumGrid, g: float, t) -> ModeAmplitudes:
    """Evolve the sector described by `grid` to time t (scalar or 1-d array)."""
    _validate_field(g)
    t = np.asarray(t, dtype=float)
    u, v = mode_uv(g, grid.positive, t)
    phase = np.exp(2j * t) if grid.sector == ODD else np.ones_like(t, dtype=complex)
    return ModeAmplitudes(grid.sector, grid.positive, u, v, t[()], phase[()])


@dataclass(frozen=True)
class QuenchConfig:
    """A quench run: ring size, post-quench field and output time grid."""

    n_sites: int
    field_g: float
    time_grid: np.ndarray

    def __post_init__(self):
        _validate_n_sites(self.n_sites)
        _validate_field(self.field_g)
        grid = np.atleast_1d(np.asarray(self.time_grid, dtype=float))
        if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)):
            raise ValueError("time_grid must be a non-empty 1-d array of finite times")
        if grid[0] < 0 or (grid.size > 1 and np.any(np.diff(grid) <= 0)):
            raise ValueError("time_grid must be non-negative and strictly increasing")
        object.__setattr__(self, "time_grid", grid)

    def amplitudes(self, t) -> tuple[ModeAmplitudes, ModeAmplitudes]:
        """(even, odd) mode amplitudes at time t, a scalar or a 1-d array."""
        even, odd = momentum_grids(self.n_sites)
        return (
            evolve_amplitudes(even, self.field_g, t),
            evolve_amplitudes(odd, self.field_g, t),
        )
