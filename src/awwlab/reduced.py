"""Reduced atomic dynamics: memory-kernel Volterra equation and effective generator.

Both descriptions act on the d atomic amplitudes alone. The Volterra form
keeps the full memory integral against the bath correlation: the bath's
exponential sum turns it into a linear system with one memory entry per
exponential, stepped at fourth order by an exponential Runge-Kutta scheme.
The effective form replaces it by a local non-Hermitian generator built from
the half-line transform of the correlation at the instantaneous level
frequencies.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import bath as bath_mod
from .atom import (PHASE_PER_NODE, PHASE_PER_STEP, AtomPath, EigenFrame,
                   coupling_in_working_basis, fine_grid, magnus_propagate)
from .errors import DiscretizationError, IntegratorError, ResolutionError
from .exact import DT_OUT, Trajectory, output_grid

__all__ = [
    "PropagatorTable",
    "volterra_solve",
    "EffectiveGenerator",
    "effective_solve",
]

X_STEP_FACTOR = 0.5     # the Volterra step defaults to x_step = X_STEP_FACTOR sqrt(eps)
# the unit circle's points on which _phi averages phi_k about a small z
_CIRCLE = np.exp(2j * np.pi * (np.arange(16) + 0.5) / 16)


class PropagatorTable:
    """Free propagator U_eps(t, stops[0]) of frame.atom at the ascending times `stops`.

    magnus_propagate steps A(t)/eps over fine_grid(stops, h), the fast phase
    frame.a_norm h / eps at most PHASE_PER_STEP, and the table keeps its
    products at the stops alone, stops less than 1e-13 apart counting as one.
    A stop outside the frame raises ValueError (EigenFrame.check_times). at(t)
    reads the table at one of its times, or at an array of them; U_eps(t, s)
    is at(t) @ at(s)^H.
    """

    def __init__(self, frame: EigenFrame, eps: float, stops):
        grid, at = fine_grid(frame.check_times(stops), PHASE_PER_STEP * eps / frame.a_norm)
        self.times = grid[at]
        self.table = magnus_propagate(frame.atom.matrix, grid, -1j / eps)[at]
        u_end = self.table[-1]
        defect = np.abs(u_end @ u_end.conj().T - np.eye(frame.dim)).max()
        if defect > 1e-8:
            raise IntegratorError(f"propagator unitarity drift {defect:.2e}")

    def at(self, t) -> np.ndarray:
        """U_eps(t, 0) for a time t of the table, or the (..., d, d) stack for an
        array of them; ValueError for any other t."""
        t = np.asarray(t, dtype=float)
        k = np.searchsorted(self.times, t + 1e-14) - 1
        off = (k < 0) | (np.abs(t - self.times[k]) >= 1e-13)
        if np.any(off):
            raise ValueError(f"t = {t[off].flat[0]!r} is not a node of the table "
                             f"({len(self.times)} nodes on [{self.times[0]:g}, "
                             f"{self.times[-1]:g}])")
        return self.table[k]


def _phi(z: np.ndarray) -> np.ndarray:
    """(3, ...) phi_1, phi_2, phi_3 at every entry of z: phi_1(z) = (e^z - 1)/z
    and phi_{k+1}(z) = (phi_k(z) - 1/k!)/z.

    That recursion cancels where |z| is small, so there each phi_k is instead
    the mean of its values on the circle of radius 1 about z, on which
    |w| >= 1/2 (Kassam & Trefethen, SIAM J. Sci. Comput. 26, 2005).
    """
    def recursion(w):
        p1 = (np.exp(w) - 1.0) / w
        p2 = (p1 - 1.0) / w
        return np.stack([p1, p2, (p2 - 0.5) / w])

    small = np.abs(z) < 0.5
    out = np.empty((3,) + z.shape, dtype=complex)
    out[:, ~small] = recursion(z[~small])
    out[:, small] = recursion(z[small, None] + _CIRCLE).mean(axis=-1)
    return out


def volterra_solve(frame: EigenFrame, bath: bath_mod.BathSpec, eps: float, lam: float,
                   z0: np.ndarray, x_step: Optional[float] = None,
                   dt_out: float = DT_OUT) -> Trajectory:
    """Memory-kernel dynamics of frame.atom's amplitudes on [0, t_end = frame.times[-1]].

    In the interaction picture y = U_eps^{-1} z and the fast time x = t/eps
    the equation is
    dy/dx = -lam^2 beta(x) int_0^x <beta(x'), y(x')> gamma(x - x') dx'
    with beta = U_eps^{-1} u. With the bath's exp_sum gamma(x) = sum_k c_k
    exp(-lam_k x) the memory is the vector m_k = int_0^x <beta, y>
    exp(-lam_k (x - x')) dx', and (y, m) solve the linear system
    dy/dx = -lam^2 beta (c . m), dm/dx = <beta, y> - lam_k m_k.
    Cox & Matthews' fourth-order exponential Runge-Kutta scheme ETDRK4
    (J. Comput. Phys. 176, 2002) steps it on n = ceil(t_end / (x_step eps))
    equal steps and takes the decays exp(-lam_k x) exactly, so the fast
    lam_k do not limit the step. x_step defaults to
    min(X_STEP_FACTOR sqrt(eps), PHASE_PER_NODE / frame.a_norm), so the error
    falls as eps^2 on n ~ eps^-1.5 steps; a larger x_step raises ResolutionError.
    The coupling has rank one, so a stage reads m only through the sums
    c . m, (c e^{-lam h/2}) . m and (c e^{-lam h}) . m, and y only through
    its inner products with beta at the step's start, middle and end.

    z is returned on output_grid(t_end, dt_out): U_eps there times the cubic
    Hermite interpolant of the slowly varying y through its values and slopes
    at the step ends, fourth order as the step is. U_eps at the steps' ends
    and middles and at the output times comes from one PropagatorTable. A bath
    without an exp_sum raises DiscretizationError.
    """
    kern = bath_mod.exp_sum(bath)
    if kern is None:
        raise DiscretizationError("volterra_solve needs the bath's exp_sum, which only "
                                  "an analytic bath has")
    t_end = float(frame.times[-1])
    z0 = np.asarray(z0, dtype=complex)
    x_cap = PHASE_PER_NODE / frame.a_norm
    if x_step is None:
        # fourth order: the error goes as x_step^4 = eps^2 / 16
        x_step = min(X_STEP_FACTOR * np.sqrt(eps), x_cap)
    elif x_step > x_cap:
        raise ResolutionError(
            f"Volterra step too coarse: x_step = {x_step:g} turns over {PHASE_PER_NODE} "
            f"rad of fast phase per step (at most {x_cap:.3g})")
    n = int(np.ceil(t_end / (x_step * eps)))
    halves = np.linspace(0.0, t_end, 2 * n + 1)       # step ends and middles
    t_out = output_grid(t_end, dt_out)
    free = PropagatorTable(frame, eps, np.union1d(halves, t_out))
    beta = (np.swapaxes(free.at(halves).conj(), 1, 2)
            @ coupling_in_working_basis(frame, halves)[:, :, None])[:, :, 0]
    # rows[k]: beta at the start, middle and end of step k
    rows = np.stack([beta[:-1:2], beta[1::2], beta[2::2]], axis=1)
    rows_h = rows.conj()
    # <beta_mid, beta_start>, |beta_mid|^2, <beta_end, beta_mid>
    gram = np.einsum("kji,kli->kjl", rows_h, rows)
    g_ms, g_mm, g_em = (gram[:, 1, 0].tolist(), gram[:, 1, 1].real.tolist(),
                        gram[:, 2, 1].tolist())

    h = t_end / n / eps                               # the step in x
    half = np.exp(-kern.lam * (h / 2))
    full = half * half
    p1, p2, p3 = _phi(-kern.lam * h)
    # Cox & Matthews' Q = (h/2) phi_1(z/2), and phi_1(z) = phi_1(z/2) (e^{z/2} + 1)/2
    q = h * p1 / (half + 1.0)
    # m <- full m + weights.T @ (p_start, p_a + p_b, p_c)
    weights = h * np.stack([p1 - 3 * p2 + 4 * p3, 2 * (p2 - 2 * p3), 4 * p3 - p2])
    sums = np.stack([kern.c, kern.c * half, kern.c * full])
    cq, chq = complex(kern.c @ q), complex(kern.c @ (half * q))
    r = lam**2
    ra, rc, rs = 0.5 * r * h, r * h, -r * h / 6

    y = np.empty((n + 1, frame.dim), dtype=complex)
    y[0] = z0
    m = np.zeros(len(kern.c), dtype=complex)
    s_ends = [0j] * (n + 1)                           # c . m at every step end
    # s = c . m and p = <beta, y> of the step's start (0) and of Cox & Matthews'
    # stages a and b (at the middle) and c (at the end); y and m then take the
    # weighted sum of the four stages' derivatives
    for k in range(n):                                # ndarray.dot: less call overhead than @
        s0, s_half, s_full = sums.dot(m).tolist()
        s_ends[k] = s0
        p0, q_mid, q_end = rows_h[k].dot(y[k]).tolist()
        sa = s_half + p0 * cq
        pa = q_mid - ra * s0 * g_ms[k]
        sb = s_half + pa * cq
        pb = q_mid - ra * sa * g_mm[k]
        sc = s_full + p0 * chq + (2 * pb - p0) * cq
        pc = q_end - rc * sb * g_em[k]
        y[k + 1] = y[k] + np.array([rs * s0, 2 * rs * (sa + sb), rs * sc]).dot(rows[k])
        m = full * m + np.array([p0, pa + pb, pc]).dot(weights)

    s_ends[n] = complex(kern.c @ m)
    # y on the output grid: the cubic Hermite interpolant through y and its
    # slope dy/dx = -lam^2 beta (c . m) at every step end (dy is slope times h)
    dy = (-r * h) * np.array(s_ends)[:, None] * beta[::2]
    pos = t_out * (n / t_end)
    idx = np.minimum(pos.astype(int), n - 1)
    th = (pos - idx)[:, None]
    y_out = ((1 + 2 * th) * (1 - th) ** 2 * y[idx] + th * (1 - th) ** 2 * dy[idx]
             + th ** 2 * (3 - 2 * th) * y[idx + 1] - th ** 2 * (1 - th) * dy[idx + 1])
    z = np.einsum("kij,kj->ki", free.at(t_out), y_out)
    return Trajectory(times=t_out, z=z,
                      meta={"eps": eps, "lam": lam, "scheme": "volterra-etdrk4",
                            "x_step": x_step, "steps": n})


class EffectiveGenerator:
    """t -> G_{eps,lam}(t) = A(t) - i lam^2 |u(t)><u(t)| Gamma_eps(t).

    Gamma_eps(t) = sum_j I(t/eps, alpha_j(t)) P_j(t) where I is the finite
    half-line transform of the bath correlation. Everything is evaluated at
    call time: `transforms` makes one half_line_transform call for all the
    times and levels asked for, in closed form when the bath has an exp_sum
    and by one quadrature per distinct time when it has not. `atom` must be
    frame.atom, and `t_end`, when given, is checked as a solver's last time
    (EigenFrame.check_end); every time of the frame can be asked for.
    """

    def __init__(self, atom: AtomPath, frame: EigenFrame, bath: bath_mod.BathSpec,
                 eps: float, lam: float, t_end: Optional[float] = None):
        frame.check_atom(atom)
        frame.check_end(t_end)
        self.atom, self.frame, self.bath = atom, frame, bath
        self.eps, self.lam = eps, lam

    def transforms(self, t) -> np.ndarray:
        """The d values I(t/eps, alpha_j(t)) at a scalar t, or the (..., d) stack."""
        t = self.frame.check_times(t)
        return bath_mod.half_line_transform(self.bath, self.frame.energies_at(t),
                                            t[..., None] / self.eps)

    def __call__(self, t) -> np.ndarray:
        """G_{eps,lam}(t) for a scalar t, or the (..., d, d) stack for an array."""
        a = self.atom.matrix(t)
        if self.lam == 0.0:
            return a
        u = coupling_in_working_basis(self.frame, t)
        vecs = self.frame.vectors_at(t)
        gamma = (vecs * self.transforms(t)[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)
        row = (u.conj()[..., None, :] @ gamma)[..., 0, :]
        return a - 1j * self.lam**2 * (u[..., :, None] * row[..., None, :])


def effective_solve(frame: EigenFrame, bath: bath_mod.BathSpec, eps: float, lam: float,
                    z0: np.ndarray, dt_out: float = DT_OUT) -> Trajectory:
    """Integrate i eps dz/dt = G_{eps,lam}(t) z by stepped Magnus exponentials.

    magnus_propagate of frame.atom's non-Hermitian generator on the fine_grid of
    output_grid(frame.times[-1], dt_out), with PropagatorTable's longest step.
    """
    t_end = float(frame.times[-1])
    z0 = np.asarray(z0, dtype=complex)
    gen = EffectiveGenerator(frame.atom, frame, bath, eps, lam)
    t_out = output_grid(t_end, dt_out)
    fine, at = fine_grid(t_out, PHASE_PER_STEP * eps / frame.a_norm)
    z = magnus_propagate(gen, fine, -1j / eps)[at] @ z0
    return Trajectory(times=t_out, z=z,
                      meta={"eps": eps, "lam": lam, "scheme": "effective-magnus"})
