"""Parity-even observables: closed mode sums and their N -> infinity limits.

Operators with an even number of Jordan-Wigner fermions (sigma^z, the
number-conserving and pair-creating two-site terms) take equal-weight
diagonal expectations in the two parity sectors,

    <A> = ( <phi_+|A|phi_+> + <phi_-|A|phi_-> ) / 2,

and each sector expectation reduces to sums over its own pair modes.  The
double momentum sums entering the double occupancy <n_1 n_2> are
rearranged exactly into rank-one quadratic forms, so every observable here
costs O(N) per time point; every sum runs over the momentum axis (the
last one), so a whole time grid of amplitudes is reduced at once.

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

from .model import EVEN, ModeAmplitudes, _sin_over, dispersion, mode_uv
from .pfaffian import pfaffian_batch


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge and the fallback disagreed."""


def transverse_magnetization(even: ModeAmplitudes, odd: ModeAmplitudes,
                             n_sites: int):
    """<sigma^z> per site; the +1 counts the occupied unpaired k=0 mode."""
    total = (np.abs(even.v) ** 2).sum(-1) + (np.abs(odd.v) ** 2).sum(-1)
    return (2.0 * total + 1.0) / n_sites - 1.0


def pair_entries(even: ModeAmplitudes, odd: ModeAmplitudes, n_sites: int):
    """(rho_14, rho_23): pair-creation and exchange entries of the 2-site RDM.

    rho_14 = <c_1 c_2> collects sin(k) u*_k v_k over both grids; rho_23 =
    <c+_1 c_2> collects cos(k) |u_k|^2, with the -1/2N offset again from
    the unpaired modes.
    """
    rho14 = 0j
    cos_u2 = 0.0
    for amps in (even, odd):
        k, u = amps.momenta, amps.u
        rho14 += (np.sin(k) * np.conj(u) * amps.v).sum(-1)
        cos_u2 += (np.cos(k) * np.abs(u) ** 2).sum(-1)
    rho23 = -(2.0 * cos_u2 - 1.0) / (2.0 * n_sites)
    return rho14 / n_sites, rho23


def double_occupancy(even: ModeAmplitudes, odd: ModeAmplitudes, n_sites: int):
    """rho_11 = <n_1 n_2>, the up-up weight of the two-site RDM.

    The k > k' double sums are evaluated through the exact identities

        sum_{k>k'} (1 - cos k cos k') w_k w_k'
            = [ (sum w)^2 - sum w^2 - (sum c w)^2 + sum (c w)^2 ] / 2,
        sum_{k>k'} sin k sin k' Re(z_k conj(z_k'))
            = [ |sum s z|^2 - sum s^2 |z|^2 ] / 2,

    with w = |v|^2 and z = u* v, which keeps the cost linear in N and
    avoids accumulating N^2 mixed-sign terms.
    """
    n2 = float(n_sites) ** 2
    total = 0.0
    for amps in (even, odd):
        k = amps.momenta
        c, s = np.cos(k), np.sin(k)
        w = np.abs(amps.v) ** 2
        z = np.conj(amps.u) * amps.v
        cw = c * w
        sz = s * z
        t1 = w.sum(-1) ** 2 - (w**2).sum(-1) - cw.sum(-1) ** 2 + (cw**2).sum(-1)
        t2 = np.abs(sz.sum(-1)) ** 2 - (s**2 * np.abs(z) ** 2).sum(-1)
        total += t1 + t2
        if amps.sector == EVEN:
            total += (s**2 * w).sum(-1)
        else:
            total += ((2.0 + c) * (1.0 - c) * w).sum(-1)
    return 2.0 * total / n2


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


def evaluate_even(even: ModeAmplitudes, odd: ModeAmplitudes,
                  n_sites: int) -> EvenObservables:
    """All parity-even entries, reduced over the momenta (the last axis)."""
    rho14, rho23 = pair_entries(even, odd, n_sites)
    return EvenObservables(
        sz=transverse_magnetization(even, odd, n_sites),
        rho14=rho14,
        rho23=rho23,
        rho11=double_occupancy(even, odd, n_sites),
    )


def xx_correlator(even: ModeAmplitudes, odd: ModeAmplitudes, n_sites: int, r: int):
    """<sigma^x_1 sigma^x_{1+r}>, the two-point function of the order parameter.

    sigma^x_1 sigma^x_{1+r} = B_1 A_2 B_2 A_3 ... B_r A_{r+1} with
    A_j = c+_j + c_j and B_j = c+_j - c_j; it is parity-even, so its value
    is the average of the two sector values.  Each sector state is
    Gaussian, so by Wick's theorem a sector value is the Pfaffian of the
    2r x 2r matrix of pairwise contractions of that operator list
    (Calabrese, Essler & Fagotti, PRL 106, 227203 (2011)), built from

        <c+_i c_j> = (2/N) sum_k cos(k(j-i)) |v_k|^2  (+1/N, odd sector),
        <c_i c_j>  = -(2/N) sum_k sin(k(j-i)) u*_k v_k,

    where the odd sector's extra 1/N is its occupied k=0 mode.  Nothing of
    the cross-sector machinery enters, which makes this an independent
    check of the parity-odd path: outside the light cone the correlator
    factorizes into <sigma^x>^2.  Scalar for one time, (T,) along a grid.
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
    for amps, occupied in ((even, 0.0), (odd, 1.0)):
        k = amps.momenta
        hop = (2.0 * (np.abs(amps.v) ** 2 @ np.cos(np.outer(k, d))) + occupied) / n_sites
        pair = -2.0 * ((np.conj(amps.u) * amps.v) @ np.sin(np.outer(k, d))) / n_sites
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

