"""Field spectral densities and the transforms built on them.

A bath is described by its spectral weight rho(omega) on the half line
(after radial reduction), so the correlation function is

    gamma(t) = int_0^inf rho(omega) exp(-i omega t) domega.

All Fourier transforms use the symmetric convention
ghat(alpha) = (2 pi)^{-1/2} int exp(i alpha t) gamma(t) dt, which for
densities of this form gives ghat(alpha) = sqrt(2 pi) rho(alpha) on the
support and 0 elsewhere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from .errors import DiscretizationError, QuadratureError

__all__ = [
    "BathSpec",
    "ExpSum",
    "TestObservable",
    "reference_bath",
    "bath_from_csv",
    "bath_from_name",
    "correlation",
    "fourier_hat",
    "exp_sum",
    "half_line_transform",
    "decay_rate",
    "decay_and_shift",
    "correlation_l1_norm",
    "check_decay_bound",
]

SQRT_2PI = np.sqrt(2.0 * np.pi)
DECAY_T_MAX = 1e3     # check_decay_bound's last time
DECAY_POINTS = 60     # check_decay_bound's log-spaced times after t = 0
CERT_POINTS = 400     # equally spaced points per interval on which a fit of gamma is checked
EXPSUM_PANEL = 1.5    # width in log s of exp_sum's 16-node Gauss-Legendre panels
EXPSUM_TAIL = 1e-9    # envelope mass past exp_sum's x_max
EXPSUM_CHUNK = 128    # level values per block of half_line_transform's (n, K) sum


@dataclass(frozen=True)
class BathSpec:
    """Spectral weight of the field plus certified decay data.

    density:      vectorized rho(omega) >= 0
    support_max:  upper edge of the spectral support (may be inf)
    quad_cutoff:  finite frequency used for numerical transforms; the
                  density tail beyond it must be negligible (< 1e-8 mass)
    decay_amplitude, decay_power:  certify |gamma(t)| <= C/(1+t)^m, m > 2
    closed_form_correlation:  optional analytic gamma(t), vectorized
    analytic:     the density continues analytically to complex omega with
                  -pi/4 <= arg omega <= 0, decays there, and ``density``
                  accepts complex arguments; exp_sum then rotates the
                  frequency contour onto that edge
    """

    density: Callable[[np.ndarray], np.ndarray]
    support_max: float
    quad_cutoff: float
    decay_amplitude: float
    decay_power: float
    closed_form_correlation: Optional[Callable[[np.ndarray], np.ndarray]] = None
    analytic: bool = False

    def rho(self, omega):
        omega = np.asarray(omega, dtype=float)
        out = np.where(
            (omega >= 0.0) & (omega <= self.support_max),
            self.density(np.clip(omega, 0.0, None)),
            0.0,
        )
        return out


@dataclass(frozen=True)
class TestObservable:
    """Frequency-space test function B(omega) weighting the emitted density."""

    weight: Callable[[np.ndarray], np.ndarray]
    label: str = "B"

    def __call__(self, omega):
        return self.weight(np.asarray(omega, dtype=float))


_REFERENCE_BATH = BathSpec(
    density=lambda w: w**2 * np.exp(-w),
    support_max=np.inf,
    quad_cutoff=25.0,  # tail mass beyond 25 is ~9e-9
    decay_amplitude=6.0,
    decay_power=3.0,
    closed_form_correlation=lambda t: 2.0 / (1.0 + 1j * np.asarray(t)) ** 3,
    analytic=True,
)


def reference_bath() -> BathSpec:
    """rho(omega) = omega^2 exp(-omega): every transform has a closed form.

    gamma(t) = 2/(1+it)^3, ghat(alpha) = sqrt(2 pi) alpha^2 exp(-alpha),
    |gamma(t)| = 2/(1+t^2)^{3/2} <= 6/(1+t)^3.
    Every call returns the same frozen instance: BathSpec hashes its
    functions by identity, so one instance is what lets correlation_l1_norm's
    cache hit.
    """
    return _REFERENCE_BATH


def bath_from_csv(path, decay_amplitude=None, decay_power=2.5) -> BathSpec:
    """Tabulated bath from CSV columns (omega, rho), strictly increasing omega."""
    from scipy.interpolate import PchipInterpolator

    data = np.loadtxt(path, delimiter=",", skiprows=1)
    omega, rho = data[:, 0], data[:, 1]
    if np.any(np.diff(omega) <= 0):
        raise ValueError("tabulated bath requires strictly increasing omega")
    if np.any(rho < 0):
        raise ValueError("tabulated bath requires rho >= 0")
    interp = PchipInterpolator(omega, rho, extrapolate=False)
    hi = float(omega[-1])

    def density(w):
        out = interp(w)
        return np.nan_to_num(out, nan=0.0)

    if decay_amplitude is None:
        # conservative default: |gamma| <= gamma(0) and the tabulated support
        # is compact, so a generic algebraic envelope is assumed. Nothing
        # checks it on load: only run_validate (`awwlab validate`) calls
        # check_decay_bound, after correlation_l1_norm has used its tail.
        decay_amplitude = 4.0 * float(np.trapezoid(rho, omega))
    return BathSpec(
        density=density,
        support_max=hi,
        quad_cutoff=hi,
        decay_amplitude=float(decay_amplitude),
        decay_power=float(decay_power),
    )


def bath_from_name(name: str) -> BathSpec:
    if name in ("reference", "ref"):
        return reference_bath()
    raise KeyError(f"unknown builtin bath {name!r}")


# ---------------------------------------------------------------------------
# oscillatory quadrature over the spectral support
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = leggauss(16)


def _gl_panels(a, b, width, min_panels=1):
    """Nodes and weights, each shaped (n_panels, 16), of composite 16-point
    Gauss-Legendre on [a, b] with panels no wider than ``width``."""
    n_panels = max(min_panels, int(np.ceil((b - a) / width)))
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    return mid[:, None] + half[:, None] * _GL_NODES[None, :], half[:, None] * _GL_WEIGHTS[None, :]


def _osc_quad(f, a, b, rate, tol=1e-9):
    """Panel quadrature of a scalar integral with a doubled-resolution error
    estimate; correlation's quadrature for a bath without a closed form.

    ``rate`` is the angular frequency of the integrand's oscillation. The
    coarse pass puts at most one wavelength (2 pi rad of phase) on each
    16-node panel, never a panel wider than pi; the fine pass panels half as
    wide. That is enough: n-point Gauss-Legendre is exact for polynomials of
    degree 2n - 1 and converges geometrically for analytic integrands,
    needing only about pi nodes per wavelength (Trefethen, SIAM Rev. 50,
    2008); on one wavelength the 16-point rule's error for exp(i rate x) is
    about pi^32/32! ~ 3e-20, so for the reference bath the two passes agree
    to roundoff. Both passes take at least four panels.

    ``f`` takes the nodes shaped ``(n_panels, 16)`` and returns its values
    there. The estimate is ``max(|fine - coarse|, 50 * eps * resabs)``, with
    ``resabs`` the fine pass's quadrature of ``|f|``, the scale of the
    roundoff in its value: the two resolutions can agree to the last bit, so
    the difference alone may read zero, and the roundoff floor (as in
    QUADPACK) keeps it positive.
    ``tol`` and ``QuadratureError.achieved`` cover the discretisation and
    roundoff error on ``[a, b]`` only; the truncation of an integral at
    ``b`` is not part of the estimate. A value or estimate that is not
    finite (an integrand that yields NaN or inf) raises as well.
    """
    x, w = _gl_panels(a, b, np.pi / max(abs(rate) / 2.0, 1.0), min_panels=4)
    coarse = np.sum(w * f(x))
    x, w = _gl_panels(a, b, np.pi / max(abs(rate), 2.0), min_panels=4)
    terms = w * f(x)
    fine = np.sum(terms)
    err = float(max(abs(fine - coarse), 50.0 * np.finfo(float).eps * np.sum(np.abs(terms))))
    if not (np.isfinite(fine) and err <= tol):
        raise QuadratureError(
            f"oscillatory quadrature did not converge (error {err:.2e} > {tol:.0e})",
            achieved=err,
        )
    return fine


def correlation(bath: BathSpec, t, tol=1e-9):
    """Field correlation function gamma(t); hermitian in t by construction.

    Without a closed form, gamma(t) is computed by quadrature.
    ``tol`` and ``QuadratureError.achieved`` bound the discretisation and
    roundoff error on ``[0, quad_cutoff]``. The truncation beyond
    ``quad_cutoff`` is not included; it is governed by the
    ``BathSpec.quad_cutoff`` contract (tail mass < 1e-8).
    """
    t_arr = np.asarray(t, dtype=float)
    if bath.closed_form_correlation is not None:
        return bath.closed_form_correlation(t_arr)[()] if t_arr.ndim == 0 \
            else bath.closed_form_correlation(t_arr)
    if t_arr.ndim > 0:
        return np.array([correlation(bath, ti, tol) for ti in t_arr.ravel()]).reshape(t_arr.shape)
    ta = abs(float(t_arr))
    val = _osc_quad(
        lambda w: bath.rho(w) * np.exp(-1j * w * ta),
        0.0, bath.quad_cutoff, rate=ta, tol=tol,
    )
    return np.conj(val) if t_arr < 0 else val


def fourier_hat(bath: BathSpec, alpha):
    """ghat(alpha) = sqrt(2 pi) rho(alpha) on the support, else 0; always >= 0."""
    alpha = np.asarray(alpha, dtype=float)
    out = np.where(alpha >= 0.0, SQRT_2PI * bath.rho(alpha), 0.0)
    return out[()] if out.ndim == 0 else out


def half_line_transform(bath: BathSpec, alpha, T):
    """int_0^T exp(i x alpha) gamma(x) dx, elementwise over alpha and T.

    ``alpha`` (level frequencies) and ``T`` (horizons, each >= 0 or inf)
    broadcast against each other; scalars give a scalar. The transform is the
    closed form of the bath's exp_sum,
    sum_k c_k (1 - exp(-(lam_k - i alpha) T)) / (lam_k - i alpha),
    formed in blocks of EXPSUM_CHUNK values; its error is at most the sum's
    l1_error at every T, T = inf included. At T = inf the real part is
    replaced by decay_rate(bath, 1, alpha), and the imaginary part is
    PV int rho(omega)/(alpha - omega) domega. A bath without an exp_sum
    raises DiscretizationError (exp_sum's).
    """
    alpha, T = np.broadcast_arrays(np.asarray(alpha, dtype=float), np.asarray(T, dtype=float))
    if not np.all(T >= 0.0):
        raise ValueError("T must be >= 0 or inf")
    kern = exp_sum(bath)
    out = _in_blocks(functools.partial(_sum_transform, kern), alpha.ravel(), T.ravel())
    out = out.reshape(alpha.shape)
    inf = np.isinf(T)
    out.real[inf] = decay_rate(bath, 1.0, alpha[inf])
    return out[()]


def _sum_transform(kern: "ExpSum", alpha, T):
    """The exp_sum transform at 1-D alpha and T of one length, its real part at
    T = inf to be replaced.

    It is sum_k c_k (1 - e^{i alpha T} e^{-lam_k T}) / (lam_k - i alpha). The
    exponentials e^{-lam_k T}, the bulk of the work, are taken once per run
    of equal T, so levels at one time share them: a horizon of shape (n, 1)
    broadcast against (n, d) levels puts each time's d levels side by side.
    """
    finite = np.isfinite(T)
    T = np.where(finite, T, 0.0)
    new = np.ones(len(T), dtype=bool)
    new[1:] = T[1:] != T[:-1]
    starts = np.flatnonzero(new)
    run = np.searchsorted(starts, np.arange(len(T)), side="right") - 1
    decay = np.exp(-np.outer(T[starts], kern.lam))[run]
    phase = np.where(finite, np.exp(1j * alpha * T), 0.0)
    return ((1.0 - phase[:, None] * decay) / (kern.lam - 1j * alpha[:, None])) @ kern.c


def decay_rate(bath: BathSpec, v, alpha):
    """Golden-rule decay rate beta = pi |v|^2 rho(alpha), elementwise over levels."""
    return np.abs(v) ** 2 * (np.pi * bath.rho(alpha))


def decay_and_shift(bath: BathSpec, v, alpha):
    """Golden-rule decay rate and level shift for coupling v at frequency alpha.

    |v|^2 half_line_transform(bath, alpha, inf) = beta + i shift, so beta is
    decay_rate's and shift = |v|^2 PV int rho(omega)/(alpha-omega), within
    |v|^2 l1_error of the bath's exp_sum. Elementwise over arrays of levels;
    returns the pair (beta, shift). A bath without an exp_sum raises
    DiscretizationError.
    """
    val = np.abs(v) ** 2 * half_line_transform(bath, alpha, np.inf)
    return val.real, val.imag


# ---------------------------------------------------------------------------
# the correlation as a sum of exponentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpSum:
    """gamma(x) ~ sum_k c_k exp(-lam_k x) for x >= 0, with every Re lam_k > 0.

    sup_error is the largest |sum - gamma| at the certification points of
    [0, x_max]; l1_error bounds int_0^inf |sum - gamma| dx, and with it the
    error of every half-line transform of the sum, T = inf included.
    """

    c: np.ndarray
    lam: np.ndarray
    l1_error: float
    x_max: float
    sup_error: float


@functools.lru_cache(maxsize=None)
def exp_sum(bath: BathSpec) -> ExpSum:
    """The bath's certified ExpSum, built on first use; the one kernel from
    which every half-line transform, and so every reduced description, reads
    the bath. A bath not marked analytic has none and raises
    DiscretizationError, from here alone.

    On the ray omega = e^{-i pi/4} s the kernel exp(-i omega x) is
    exp(-e^{i pi/4} s x), which decays for x > 0, so rotating the contour
    onto it gives gamma(x) = e^{-i pi/4} int_0^inf rho(e^{-i pi/4} s)
    exp(-e^{i pi/4} s x) ds, an integrand that decays instead of oscillating.
    Gauss-Legendre panels of width EXPSUM_PANEL in log s on
    [1/x_max, 2 quad_cutoff] make it the sum: the slowest rate follows gamma
    out to x_max, and the ray, on which a density like exp(-omega) decays
    only as exp(-s cos(pi/4)), is followed past quad_cutoff/cos(pi/4).

    x_max is where the envelope C/(1+x)^m leaves EXPSUM_TAIL of mass (at most
    DECAY_T_MAX without a closed-form correlation, as in correlation_l1_norm).
    The sum is compared with ``correlation`` on CERT_POINTS equally spaced
    points of [0, x_max/10^k], the first such interval shorter than 1, and
    of each decade [h/10, h] from there up to h = x_max: the points thin out
    as x grows, as the scale of the fit's error does. l1_error is the
    trapezoid of |sum - gamma| on them plus the tails past x_max of the
    envelope and of sum_k |c_k| exp(-Re lam_k x). The arrays are read-only,
    as every caller shares them.
    """
    if not bath.analytic:
        raise DiscretizationError("the bath has no exp_sum: only a bath marked analytic "
                                  "has one, and every half-line transform needs it")
    x_max = _envelope_horizon(bath, EXPSUM_TAIL)
    u, w = _gl_panels(-np.log(x_max), np.log(2.0 * bath.quad_cutoff), EXPSUM_PANEL)
    s = np.exp(u.ravel())
    ray = np.exp(-0.25j * np.pi)
    c = ray * bath.density(ray * s) * s * w.ravel()
    lam = np.conj(ray) * s
    c.setflags(write=False)
    lam.setflags(write=False)

    edges = x_max / 10.0 ** np.arange(int(np.log10(x_max)) + 1, -1, -1)
    xs = np.concatenate([np.linspace(0.0, edges[0], CERT_POINTS)] + [
        np.linspace(a, b, CERT_POINTS)[1:] for a, b in zip(edges[:-1], edges[1:])])
    fit = _in_blocks(lambda x: np.exp(-np.outer(x, lam)) @ c, xs)
    err = np.abs(fit - correlation(bath, xs))
    tail = (_envelope_tail(bath, x_max)
            + np.sum(np.abs(c) * np.exp(-lam.real * x_max) / lam.real))
    return ExpSum(c=c, lam=lam, l1_error=float(np.trapezoid(err, xs) + tail),
                  x_max=float(x_max), sup_error=float(np.max(err)))


def _in_blocks(fn, *args):
    """fn over blocks of EXPSUM_CHUNK entries of the equal-length 1-D args,
    joined: the (block, K) temporaries of a sum over the K terms stay small."""
    out = np.empty(len(args[0]), dtype=complex)
    for lo in range(0, len(out), EXPSUM_CHUNK):
        out[lo:lo + EXPSUM_CHUNK] = fn(*(a[lo:lo + EXPSUM_CHUNK] for a in args))
    return out


# ---------------------------------------------------------------------------
# integral norms and certified decay
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def correlation_l1_norm(bath: BathSpec, tol=1e-8) -> float:
    """||gamma||_{L1(R)} with the certified algebraic tail added analytically.

    Without a closed-form correlation each |gamma(x)| is a quadrature to
    tol whose cost grows with x, so the body stops at DECAY_T_MAX, where
    check_decay_bound last certifies the envelope. The body then errs by at
    most DECAY_T_MAX tol, and the norm's error is that envelope's tail: 1.7e-4
    per half line for bath_from_csv's default envelope on a table of w^2 e^-w.
    """
    x_max = _envelope_horizon(bath, tol / 10.0)
    if bath.closed_form_correlation is not None:
        f = lambda x: abs(complex(bath.closed_form_correlation(x)))
    else:
        f = lambda x: abs(correlation(bath, x, tol))
    body, _ = quad(f, 0.0, x_max, limit=500)
    return 2.0 * (body + _envelope_tail(bath, x_max))


def _envelope_horizon(bath: BathSpec, tail: float) -> float:
    """The x (at least 10) past which the envelope C/(1+x)^m holds ``tail`` of
    mass; at most DECAY_T_MAX, the last time check_decay_bound certifies, for
    a bath whose correlation is a quadrature with a cost that grows with x."""
    m, c = bath.decay_power, bath.decay_amplitude
    x_max = max((c / ((m - 1.0) * tail)) ** (1.0 / (m - 1.0)) - 1.0, 10.0)
    return x_max if bath.closed_form_correlation is not None else min(x_max, DECAY_T_MAX)


def _envelope_tail(bath: BathSpec, x: float) -> float:
    """int_x^inf C/(1+y)^m dy."""
    m, c = bath.decay_power, bath.decay_amplitude
    return c / ((m - 1.0) * (1.0 + x) ** (m - 1.0))


def check_decay_bound(bath: BathSpec) -> bool:
    """Verify |gamma(t)| <= C/(1+t)^m on a log-spaced grid up to DECAY_T_MAX."""
    ts = np.concatenate([[0.0], np.logspace(-2, np.log10(DECAY_T_MAX), DECAY_POINTS)])
    vals = np.abs(correlation(bath, ts))
    bound = bath.decay_amplitude / (1.0 + ts) ** bath.decay_power
    return bool(np.all(vals <= bound * (1.0 + 1e-12) + 1e-15))
