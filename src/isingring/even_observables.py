"""Parity-even observables: Wick averages of the sector two-point functions.

Operators with an even number of Jordan-Wigner fermions (sigma^z, the
number-conserving and pair-creating two-site terms) take equal-weight
diagonal expectations in the two parity sectors,

    <A> = ( <phi_+|A|phi_+> + <phi_-|A|phi_-> ) / 2.

Each sector state is Gaussian, so by Wick's theorem each sector value is
a polynomial in that sector's two-point functions <c+_i c_j> and
<c_i c_j>, translation invariant and O(N) momentum sums per distance
(Calabrese, Essler & Fagotti, PRL 106, 227203 (2011)).  Every sum runs
over the momentum axis (the last one), so a whole time grid of
amplitudes is reduced at once.

The same integrands evaluated on a continuous momentum give the
thermodynamic limits (transverse magnetization, xx correlator, double
occupancy) used to cross-check large rings, plus the asymptotic decay law
A(g) exp(-gamma(g) t) of the order parameter after quenches within the
ordered phase.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .model import ODD, ModeAmplitudes, _sin_over, dispersion, mode_uv
from .pfaffian import pfaffian_batch


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge and the fallback disagreed."""


@dataclass(frozen=True)
class EvenObservables:
    """Parity-even data at one time (scalars) or along a grid ((T,) arrays)."""

    sz: float | np.ndarray
    rho14: complex | np.ndarray
    rho23: float | np.ndarray
    rho11: float | np.ndarray

    @property
    def rho22(self):
        """Up-down weight: <n_1> - <n_1 n_2> with <n_1> = (1 + <sz>)/2."""
        return 0.5 + self.sz / 2.0 - self.rho11


def _two_point(amps: ModeAmplitudes, n_sites: int, d):
    """(<c+_i c_{i+d}>, <c_i c_{i+d}>) of one sector state at the distances d,

        <c+_i c_{i+d}> = (2/N) sum_k cos(kd) |v_k|^2  (+1/N, odd sector),
        <c_i c_{i+d}>  = -(2/N) sum_k sin(kd) u*_k v_k,

    summed over the sector's pairs; the odd sector's extra 1/N is its
    occupied unpaired k=0 mode (its k=-pi mode is empty).  Shape (..., d).
    """
    k = amps.momenta
    occupied = 1.0 if amps.sector == ODD else 0.0
    hop = (2.0 * (np.abs(amps.v) ** 2 @ np.cos(np.outer(k, d))) + occupied) / n_sites
    pair = -2.0 * ((np.conj(amps.u) * amps.v) @ np.sin(np.outer(k, d))) / n_sites
    return hop, pair


def evaluate_even(even: ModeAmplitudes, odd: ModeAmplitudes,
                  n_sites: int) -> EvenObservables:
    """All parity-even entries, reduced over the momenta (the last axis).

    With n = <c+_1 c_1>, h = <c+_1 c_2> and p = <c_1 c_2> of a sector,
    its entries are sz = 2n - 1, rho23 = h, rho14 = -p and, by Wick's
    theorem, rho11 = <n_1 n_2> = n^2 - h^2 + |p|^2; each is then averaged
    over the two sectors.
    """
    sectors = []
    for amps in (even, odd):
        hop, pair = _two_point(amps, n_sites, np.arange(2))
        n, h, p = hop[..., 0], hop[..., 1], pair[..., 1]
        sectors.append((2.0 * n - 1.0, -p, h, n * n - h * h + np.abs(p) ** 2))
    return EvenObservables(*(((a + b) / 2.0)[()] for a, b in zip(*sectors)))


def xx_correlator(even: ModeAmplitudes, odd: ModeAmplitudes, n_sites: int, r: int):
    """<sigma^x_1 sigma^x_{1+r}>, the two-point function of the order parameter.

    sigma^x_1 sigma^x_{1+r} = B_1 A_2 B_2 A_3 ... B_r A_{r+1} with
    A_j = c+_j + c_j and B_j = c+_j - c_j; it is parity-even, so its value
    is the average of the two sector values.  By Wick's theorem a sector
    value is the Pfaffian of the 2r x 2r matrix of pairwise contractions
    of that operator list, built from the sector's two-point functions.
    Nothing of the cross-sector machinery enters, which makes this an
    independent check of the parity-odd path: outside the light cone the
    correlator factorizes into <sigma^x>^2.  Scalar for one time, (T,)
    along a grid.
    """
    r = int(r)
    if not 1 <= r < n_sites:
        raise ValueError(f"distance r must lie in 1..{n_sites - 1}, got {r}")
    # operator list: B at site m (s = -1), then A at site m+1 (s = +1)
    op_site = np.repeat(np.arange(r + 1), 2)[1:-1]
    s = np.tile([-1.0, 1.0], r)
    sep = op_site[None, :] - op_site[:, None]                 # j - i
    ij, ji = sep + r, r - sep                                 # into d = -r..r
    upper = np.triu(np.ones((2 * r, 2 * r), dtype=bool), 1)
    d = np.arange(-r, r + 1)
    total = 0.0
    for amps in (even, odd):
        hop, pair = _two_point(amps, n_sites, d)
        # <X_mu X_nu> with X = c+ + s c, at the sites i of mu and j of nu
        contraction = (np.conj(pair[..., ji]) + s[None, :] * hop[..., ij]
                       + s[:, None] * ((sep == 0) - hop[..., ji])
                       + np.outer(s, s) * pair[..., ij])
        contraction = np.where(upper, contraction, 0.0)
        contraction -= np.swapaxes(contraction, -1, -2)
        shape = contraction.shape[:-2]
        total = total + pfaffian_batch(contraction.reshape(-1, 2 * r, 2 * r)).reshape(shape)
    return (0.5 * total).real[()]


# --------------------------------------------------------------------------
# thermodynamic limit
# --------------------------------------------------------------------------

def _safe_quad(f, a: float, b: float) -> float:
    """quad() that escalates its accuracy warning, then falls back.

    The fallback is composite Simpson on 2^14+1 and 2^15+1 nodes; if the
    two refinements disagree beyond 1e-7 the integral is reported as
    non-convergent instead of returning a silently wrong number.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, _ = integrate.quad(f, a, b, epsabs=1e-11, epsrel=1e-11, limit=400)
            return val
        except integrate.IntegrationWarning:
            pass
    coarse = None
    for exp in (14, 15):
        x = np.linspace(a, b, 2**exp + 1)
        y = np.array([f(xi) for xi in x])
        coarse, fine = coarse, integrate.simpson(y, x=x)
    if abs(fine - coarse) > 1e-7 * max(1.0, abs(fine)):
        raise QuadratureError(
            f"quadrature did not converge: refinements {coarse!r} vs {fine!r}"
        )
    return fine


def _quench_integral(g: float, t: float) -> float:
    """I(g,t) = int_0^pi sin^2 k sin^2(Lambda_k t) / Lambda_k^2 dk."""

    def integrand(k):
        lam = dispersion(g, k)
        return np.sin(k) ** 2 * float(_sin_over(lam, t)) ** 2

    return _safe_quad(integrand, 0.0, np.pi)


def thermo_sz(g: float, t: float) -> float:
    """N -> infinity transverse magnetization, (8g/pi) I(g,t)."""
    return 8.0 * g / np.pi * _quench_integral(g, t)


def thermo_cxx(g: float, t: float) -> float:
    """N -> infinity nearest-neighbour xx correlator, 1 - (8g^2/pi) I(g,t)."""
    return 1.0 - 8.0 * g * g / np.pi * _quench_integral(g, t)


def thermo_rho11(g: float, t: float) -> float:
    """N -> infinity double occupancy (2/pi^2 double integral over k' < k).

    An accuracy warning from the adaptive double quadrature is raised as
    QuadratureError rather than returning an unconverged value.
    """

    def integrand(kp, k):
        u, v = mode_uv(g, np.array([k, kp]), t)
        w = np.abs(v) ** 2
        z = np.conj(u) * v
        pair = (1.0 - np.cos(k) * np.cos(kp)) * w[0] * w[1]
        cross = np.sin(k) * np.sin(kp) * (z[0] * np.conj(z[1])).real
        return pair + cross

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, _ = integrate.dblquad(integrand, 0.0, np.pi, 0.0, lambda k: k,
                                       epsabs=1e-10, epsrel=1e-10)
        except integrate.IntegrationWarning as exc:
            raise QuadratureError(f"rho11 double integral did not converge: {exc}") from exc
    return 2.0 / np.pi**2 * val


def asymptotic_order_decay(g: float) -> tuple[float, float]:
    """(A, gamma) of the long-time law <sigma^x>(t) ~ A exp(-gamma t).

    Valid for quenches within the ordered phase, 0 <= g <= 1.  A comes
    from the closed form sqrt((1 + sqrt(1 - g^2))/2); gamma from the
    quadrature

        gamma = (4g/pi) int_{-1}^{1} du / Lambda(u) *
                ln[ Lambda(u) / (2 (1 + g u)) ],

    the k-integral under u = cos k, whose endpoint singularity at g = 1 is
    integrable.  gamma(0) = 0 (no dephasing without a quench) and
    gamma -> 4/pi as g -> 1.
    """
    if not 0.0 <= g <= 1.0:
        raise ValueError(f"decay law applies to 0 <= g <= 1, got {g}")
    prefactor = np.sqrt((1.0 + np.sqrt(max(0.0, 1.0 - g * g))) / 2.0)
    if g == 0.0:
        return float(prefactor), 0.0

    def integrand(u):
        lam = 2.0 * np.sqrt(g * g + 2.0 * g * u + 1.0)
        return np.log(lam / (2.0 * (1.0 + g * u))) / lam

    rate = 4.0 * g / np.pi * _safe_quad(integrand, -1.0, 1.0)
    return float(prefactor), float(rate)

