"""Reduced atomic dynamics: memory-kernel Volterra equation and effective generator.

Both descriptions act on the d atomic amplitudes alone. The Volterra form
keeps the full memory integral against the bath correlation; the effective
form replaces it by a local non-Hermitian generator built from the half-line
transform of the correlation at the instantaneous level frequencies.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline

from . import bath as bath_mod
from .atom import (PHASE_PER_NODE, PHASE_PER_STEP, AtomPath, EigenFrame,
                   coupling_in_working_basis, magnus_grid, magnus_propagate)
from .errors import IntegratorError, ResolutionError
from .exact import DT_OUT, Trajectory, output_grid

__all__ = [
    "PropagatorTable",
    "volterra_solve",
    "EffectiveGenerator",
    "effective_generator",
    "effective_solve",
]

TRANSFORM_GRID = 121   # times at which EffectiveGenerator tabulates the half-line transforms
HISTORY_BLOCK = 32     # Volterra history lags summed directly; older lags come by FFT


class PropagatorTable:
    """Free atomic propagator U_eps(t, 0) cached on a uniform grid.

    Grid values are the magnus_propagate products on the magnus_grid of
    `intervals` equal intervals of [0, t_end], so times[::sub] are the
    interval ends. at(t) reads the table at one of its times; U_eps(t, s)
    is at(t) @ at(s)^H.
    """

    def __init__(self, atom: AtomPath, eps: float, t_end: float, intervals: int = 1):
        self.times, self.sub = magnus_grid(atom, eps, t_end, intervals)
        self.table = magnus_propagate(atom.matrix, self.times, -1j / eps)
        u_end = self.table[-1]
        defect = np.abs(u_end @ u_end.conj().T - np.eye(atom.dim)).max()
        if defect > 1e-8:
            raise IntegratorError(f"propagator unitarity drift {defect:.2e}")

    def at(self, t: float) -> np.ndarray:
        """U_eps(t, 0) for a time t of the table; ValueError for any other t."""
        k = int(np.searchsorted(self.times, t + 1e-14) - 1)
        if k < 0 or abs(t - self.times[k]) >= 1e-13:
            raise ValueError(f"t = {t!r} is not a node of the table ({len(self.times)} "
                             f"nodes on [{self.times[0]:g}, {self.times[-1]:g}])")
        return self.table[k]


def volterra_solve(atom: AtomPath, frame: EigenFrame, bath: bath_mod.BathSpec,
                   eps: float, lam: float, z0: np.ndarray, t_end: Optional[float] = None,
                   x_step: Optional[float] = None) -> Trajectory:
    """Memory-kernel dynamics of the atomic amplitudes alone.

    In the interaction picture y = U_eps^{-1} z the equation is
    dy/dt = -(lam/eps)^2 beta(t) int_0^t <beta(s), y(s)> gamma((t-s)/eps) ds
    with beta(t) = U_eps(t)^{-1} u(t). Heun stepping with a product-trapezoid
    history on n = t_end / (x_step eps) equal steps, where x_step, the node
    spacing in x = (t-s)/eps, defaults to min(1/20, eps/2). The history sum
    is one discrete convolution of <beta, y> with gamma at the nodes, formed
    once per step by _History in O(n log^2 n) over the whole run.
    """
    t_end = frame.check_end(t_end)
    z0 = np.asarray(z0, dtype=complex)
    d = atom.dim
    if x_step is None:
        # second-order history quadrature: shrinking the x-grid with eps makes
        # the discretization error fall alongside the model remainder
        x_step = min(1.0 / 20, eps / 2.0)
    h = x_step * eps
    n = int(np.ceil(t_end / h))
    ts = np.linspace(0.0, t_end, n + 1)
    h = ts[1] - ts[0]

    # U_eps at the solution nodes from Magnus steps on a refinement of them
    free = PropagatorTable(atom, eps, t_end, intervals=n)
    if free.sub * PHASE_PER_STEP > PHASE_PER_NODE:
        raise ResolutionError(
            f"history grid too coarse: over {PHASE_PER_NODE} rad of fast phase per node "
            f"({free.sub} Magnus steps)")
    u_all = free.table[::free.sub]
    beta = (np.swapaxes(u_all.conj(), 1, 2)
            @ coupling_in_working_basis(atom, frame, ts)[:, :, None])[:, :, 0]

    kernel = bath_mod.correlation(bath, ts / eps)   # gamma(x) at x = k*h/eps
    rate = (lam / eps) ** 2

    # memory(k) = h * trapezoid of inner[j] gamma((t_k - s_j)/eps) over j = 0..k.
    # Its sum over j < k serves both step k-1's corrector and step k's
    # predictor, so history forms it once. Heun's inner products with y all
    # follow from p = <beta_{k+1}, y_k>, cross_k = <beta_{k+1}, beta_k> and
    # norm2_k = |beta_k|^2.
    cross = np.einsum("ki,ki->k", beta[1:].conj(), beta[:-1])
    norm2 = np.einsum("ki,ki->k", beta.conj(), beta)
    c = rate * h
    y = np.empty((n + 1, d), dtype=complex)
    y[0] = z0
    inner = np.empty(n + 1, dtype=complex)          # <beta(s_k), y(s_k)>
    inner[0] = np.vdot(beta[0], z0)
    history = _History(inner, kernel)
    first = 0.5 * inner[0] * kernel                 # the trapezoid's j = 0 end
    half_g0 = 0.5 * kernel[0]                       # and its j = k end
    mem = 0.0
    for k in range(n):
        p = np.vdot(beta[k + 1], y[k])
        past = history(k + 1) - first[k + 1]
        mem_pred = h * (past + half_g0 * (p - c * mem * cross[k]))
        a, b = -0.5 * c * mem, -0.5 * c * mem_pred
        y[k + 1] = y[k] + a * beta[k] + b * beta[k + 1]
        inner[k + 1] = p + a * cross[k] + b * norm2[k + 1]
        mem = h * (past + half_g0 * inner[k + 1])

    z = np.einsum("kij,kj->ki", u_all, y)
    return Trajectory(times=ts, z=z,
                      meta={"eps": eps, "lam": lam, "scheme": "volterra-heun",
                            "x_step": x_step})


class _History:
    """Running sums S_m = sum_{j<m} a[j] g[m-j] while a is filled in order.

    The blocked convolution of Hairer, Lubich & Schlichte (SIAM J. Sci.
    Stat. Comput. 6, 1985): the node axis is cut into blocks of
    HISTORY_BLOCK, and blocks pair up into blocks twice their size. A pair
    (j, m) in one block is summed directly when S_m is asked for. Every
    other pair is added to far[m] ahead of time: when a[:e] is final at a
    block end e, the last s values of a, with s the block size at which e
    ends a left half, reach far[e:e+s] through one FFT convolution of
    length 2s with g[:2s]. Over m = 1..n that is O(n log^2 n) work.
    """

    def __init__(self, a: np.ndarray, g: np.ndarray):
        self.a, self.g = a, g
        self.far = np.zeros(len(g), dtype=complex)
        self._spectra = {}          # block size s -> FFT of g[:2s]

    def __call__(self, m: int) -> complex:
        """S_m, once a[:m] is final; call with m = 1, 2, ... in order."""
        lo = m - m % HISTORY_BLOCK
        if m == lo:
            self._push(m)
        return self.far[m] + np.dot(self.a[lo:m], self.g[m - lo:0:-1])

    def _push(self, e: int):
        blocks = e // HISTORY_BLOCK
        s = HISTORY_BLOCK * (blocks & -blocks)
        spec = self._spectra.get(s)
        if spec is None:
            spec = self._spectra[s] = np.fft.fft(self.g[:2 * s], 2 * s)
        stop = min(e + s, len(self.far))
        conv = np.fft.ifft(np.fft.fft(self.a[e - s:e], 2 * s) * spec)
        self.far[e:stop] += conv[s:s + stop - e]


class EffectiveGenerator:
    """t -> G_{eps,lam}(t) = A(t) - i lam^2 |u(t)><u(t)| Gamma_eps(t).

    Gamma_eps(t) = sum_j I(t/eps, alpha_j(t)) P_j(t) where I is the finite
    half-line transform of the bath correlation. `transforms` is the cubic
    spline of the d values I(t/eps, alpha_j(t)) through TRANSFORM_GRID times
    of [0, t_end], one transform call per time; everything else is
    evaluated spectrally at call time.
    """

    def __init__(self, atom: AtomPath, frame: EigenFrame, bath: bath_mod.BathSpec,
                 eps: float, lam: float, t_end: Optional[float] = None):
        t_end = frame.check_end(t_end)
        self.atom, self.frame, self.bath = atom, frame, bath
        self.eps, self.lam = eps, lam
        ts = np.linspace(0.0, t_end, TRANSFORM_GRID)
        vals = [bath_mod.half_line_transform(bath, alphas, t / eps)
                for t, alphas in zip(ts, frame.energies_at(ts))]
        self.transforms = CubicSpline(ts, vals, axis=0)

    def __call__(self, t) -> np.ndarray:
        """G_{eps,lam}(t) for a scalar t, or the (..., d, d) stack for an array."""
        return _generator(self.atom, self.frame, self.lam, t, self.transforms)


def effective_generator(atom: AtomPath, frame: EigenFrame, bath: bath_mod.BathSpec,
                        eps: float, lam: float, t: float) -> np.ndarray:
    """Single evaluation of G_{eps,lam}(t) without grid caching."""
    return _generator(atom, frame, lam, t, lambda s: bath_mod.half_line_transform(
        bath, frame.energies_at(s), s / eps))


def _gamma_op(frame: EigenFrame, t, i_vals) -> np.ndarray:
    """sum_j I_j P_j(t) from the level values i_vals = (..., d) at t."""
    vecs = frame.vectors_at(t)
    return (vecs * i_vals[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)


def _generator(atom: AtomPath, frame: EigenFrame, lam: float, t, transforms) -> np.ndarray:
    """A(t) - i lam^2 |u(t)><u(t)| sum_j I_j P_j(t) with I_j = transforms(t)."""
    a = atom.matrix(t)
    if lam == 0.0:
        return a
    u = coupling_in_working_basis(atom, frame, t)
    row = (u.conj()[..., None, :] @ _gamma_op(frame, t, transforms(t)))[..., 0, :]
    return a - 1j * lam**2 * (u[..., :, None] * row[..., None, :])


def effective_solve(atom: AtomPath, frame: EigenFrame, bath: bath_mod.BathSpec,
                    eps: float, lam: float, z0: np.ndarray, t_end: Optional[float] = None,
                    dt_out: float = DT_OUT) -> Trajectory:
    """Integrate i eps dz/dt = G_{eps,lam}(t) z by stepped Magnus exponentials.

    magnus_propagate of the non-Hermitian generator on the magnus_grid that
    refines output_grid(t_end, dt_out).
    """
    t_end = frame.check_end(t_end)
    z0 = np.asarray(z0, dtype=complex)
    gen = EffectiveGenerator(atom, frame, bath, eps, lam, t_end)
    t_out = output_grid(t_end, dt_out)
    fine, sub = magnus_grid(atom, eps, t_end, len(t_out) - 1)
    z = magnus_propagate(gen, fine, -1j / eps)[::sub] @ z0
    return Trajectory(times=t_out, z=z,
                      meta={"eps": eps, "lam": lam, "scheme": "effective-magnus"})
