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

from .errors import DiscretizationError

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
CERT_POINTS = 400     # equally spaced points per interval on which gamma or a fit of it is checked
EXPSUM_PANEL = 1.5    # width in log s of exp_sum's 16-node Gauss-Legendre panels
EXPSUM_TAIL = 1e-9    # envelope mass past the x_max of exp_sum and correlation_l1_norm
EXPSUM_CHUNK = 128    # level values per block of half_line_transform's (n, K) sum
_L1_RTOL = 1e-13      # agreement of two Gauss-Legendre estimates of correlation_l1_norm's body
_L1_HALVINGS = 12     # most halvings of correlation_l1_norm's panels


@dataclass(frozen=True)
class BathSpec:
    """Spectral weight of the field plus certified decay data.

    density:      vectorized rho(omega) >= 0
    support_max:  upper edge of the spectral support (may be inf)
    quad_cutoff:  finite frequency on which the mode grid and exp_sum are
                  built; both certificates compare against the exact gamma,
                  so the density's tail beyond it lies inside them
    decay_amplitude, decay_power:  certify |gamma(t)| <= C/(1+t)^m, m > 2
    closed_form_correlation:  analytic gamma(t), vectorized; the bath's only
                  correlation, without which every reader of gamma refuses it
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


def bath_from_csv(path) -> BathSpec:
    """Tabulated bath from CSV columns (omega, rho), strictly increasing omega.

    A table has no closed-form correlation, so it serves the readers of rho
    alone (`awwlab regimes`); every reader of gamma refuses it by name. Its
    envelope is a generic algebraic one that nothing reads for that reason.
    """
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

    return BathSpec(
        density=density,
        support_max=hi,
        quad_cutoff=hi,
        decay_amplitude=4.0 * float(np.trapezoid(rho, omega)),
        decay_power=2.5,
    )


def bath_from_name(name: str) -> BathSpec:
    if name in ("reference", "ref"):
        return reference_bath()
    raise KeyError(f"unknown builtin bath {name!r}")


def correlation(bath: BathSpec, t):
    """Field correlation function gamma(t), the bath's closed form; hermitian in t.

    A bath without a closed form (every bath_from_csv table) raises
    DiscretizationError, from _closed_form.
    """
    t_arr = np.asarray(t, dtype=float)
    return _closed_form(bath)(t_arr)[()]


def _closed_form(bath: BathSpec):
    """The bath's closed-form gamma, the one site that refuses a bath without it."""
    if bath.closed_form_correlation is None:
        raise DiscretizationError(
            "the bath has no closed-form correlation: a tabulated bath runs "
            "`awwlab regimes` alone, which reads only its density")
    return bath.closed_form_correlation


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

    x_max is where the envelope C/(1+x)^m leaves EXPSUM_TAIL of mass. The
    sum is compared with ``correlation`` on CERT_POINTS equally spaced points
    of each piece of [0, x_max] that _decade_edges gives: the points thin out
    as x grows, as the scale of the fit's error does. l1_error is the
    trapezoid of |sum - gamma| on them plus the tails past x_max of the
    envelope and of sum_k |c_k| exp(-Re lam_k x). The arrays are read-only,
    as every caller shares them.
    """
    if not bath.analytic:
        raise DiscretizationError("the bath has no exp_sum: only a bath marked analytic "
                                  "has one, and every half-line transform needs it")
    x_max = _envelope_horizon(bath)
    a, b = -np.log(x_max), np.log(2.0 * bath.quad_cutoff)
    u, w = _gl_panels(np.linspace(a, b, int(np.ceil((b - a) / EXPSUM_PANEL)) + 1))
    s = np.exp(u.ravel())
    ray = np.exp(-0.25j * np.pi)
    c = ray * bath.density(ray * s) * s * w.ravel()
    lam = np.conj(ray) * s
    c.setflags(write=False)
    lam.setflags(write=False)

    xs = _cert_points(x_max)
    fit = _in_blocks(lambda x: np.exp(-np.outer(x, lam)) @ c, xs)
    err = np.abs(fit - correlation(bath, xs))
    tail = (_envelope_tail(bath, x_max)
            + np.sum(np.abs(c) * np.exp(-lam.real * x_max) / lam.real))
    return ExpSum(c=c, lam=lam, l1_error=float(np.trapezoid(err, xs) + tail),
                  x_max=float(x_max), sup_error=float(np.max(err)))


_GL_NODES, _GL_WEIGHTS = leggauss(16)


def _gl_panels(edges):
    """Nodes and weights, each shaped (n_panels, 16), of 16-point Gauss-Legendre
    on each panel between consecutive edges."""
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    return mid[:, None] + half[:, None] * _GL_NODES[None, :], half[:, None] * _GL_WEIGHTS[None, :]


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
def correlation_l1_norm(bath: BathSpec) -> float:
    """||gamma||_{L1(R)} with the certified algebraic tail added analytically.

    The body integrates |gamma| by 16-point Gauss-Legendre on the pieces of
    [0, x_max] that _decade_edges gives, as exp_sum certifies its fit, so the
    peak at x ~ 1 is resolved however far x_max lies. Every panel is halved
    until two estimates agree to _L1_RTOL; DiscretizationError if they still
    differ after _L1_HALVINGS halvings. A bath without a closed form raises
    DiscretizationError, from _closed_form.
    """
    gamma = _closed_form(bath)
    x_max = _envelope_horizon(bath)
    edges, body = _decade_edges(x_max), None
    for _ in range(_L1_HALVINGS + 1):
        x, w = _gl_panels(edges)
        previous, body = body, float(np.sum(w * np.abs(gamma(x))))
        if previous is not None and abs(body - previous) <= _L1_RTOL * body:
            return 2.0 * (body + _envelope_tail(bath, x_max))
        edges = np.insert(edges, np.arange(1, len(edges)), 0.5 * (edges[:-1] + edges[1:]))
    raise DiscretizationError(
        f"correlation_l1_norm: the Gauss-Legendre estimates of int |gamma| still differ "
        f"by {abs(body - previous) / body:.1e} (relative) after {_L1_HALVINGS} halvings "
        f"of every panel")


def _envelope_horizon(bath: BathSpec) -> float:
    """The x (at least 10) past which the envelope C/(1+x)^m holds EXPSUM_TAIL
    of mass."""
    m, c = bath.decay_power, bath.decay_amplitude
    return max((c / ((m - 1.0) * EXPSUM_TAIL)) ** (1.0 / (m - 1.0)) - 1.0, 10.0)


def _decade_edges(x_max: float) -> np.ndarray:
    """0, x_max/10^k (the first such point below 1), x_max/10^(k-1), ..., x_max:
    the edges of the pieces of [0, x_max] on which exp_sum checks its fit,
    check_decay_bound the envelope and correlation_l1_norm integrates, each
    piece a decade wide past the first."""
    return np.concatenate([[0.0], x_max / 10.0 ** np.arange(int(np.log10(x_max)) + 1, -1, -1)])


def _cert_points(x_max: float) -> np.ndarray:
    """0 and CERT_POINTS equally spaced points of each of _decade_edges' pieces
    (their shared edges once): they thin out as x grows, as gamma does."""
    edges = _decade_edges(x_max)
    return np.concatenate([edges[:1]] + [
        np.linspace(a, b, CERT_POINTS)[1:] for a, b in zip(edges[:-1], edges[1:])])


def _envelope_tail(bath: BathSpec, x: float) -> float:
    """int_x^inf C/(1+y)^m dy."""
    m, c = bath.decay_power, bath.decay_amplitude
    return c / ((m - 1.0) * (1.0 + x) ** (m - 1.0))


def check_decay_bound(bath: BathSpec) -> bool:
    """Verify |gamma(t)| <= C/(1+t)^m at t = 0 and CERT_POINTS equally spaced
    points of each piece of [0, x_max] that _decade_edges gives: out to where
    exp_sum and correlation_l1_norm take the envelope's tail in its place."""
    ts = _cert_points(_envelope_horizon(bath))
    vals = np.abs(correlation(bath, ts))
    bound = bath.decay_amplitude / (1.0 + ts) ** bath.decay_power
    return bool(np.all(vals <= bound * (1.0 + 1e-12) + 1e-15))
