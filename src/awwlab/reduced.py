"""Reduced atomic dynamics: memory-kernel Volterra equation and effective generator.

Both descriptions act on the d atomic amplitudes alone. The Volterra form
keeps the full memory integral against the bath correlation; the effective
form replaces it by a local non-Hermitian generator built from the half-line
transform of the correlation at the instantaneous level frequencies.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import bath as bath_mod
from .atom import (PHASE_PER_NODE, PHASE_PER_STEP, AtomPath, EigenFrame,
                   coupling_in_working_basis, magnus_grid, magnus_propagate)
from .errors import DiscretizationError, IntegratorError, ResolutionError
from .exact import DT_OUT, Trajectory, output_grid

__all__ = [
    "PropagatorTable",
    "volterra_solve",
    "EffectiveGenerator",
    "effective_generator",
    "effective_solve",
]

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
    spacing in x = (t-s)/eps, defaults to min(1/20, eps/2). gamma is the
    bath's exp_sum, sum_k c_k exp(-lam_k x), so at node m the history sum is
    terms @ c with terms = sum_{j<m} w_j <beta_j, y_j> rho^{m-j}, one entry
    per exponential, rho = exp(-lam h/eps) and the trapezoid weights w_0 = 1/2,
    w_j = 1: the update terms <- rho (terms + w_m <beta_m, y_m>) costs O(K)
    per step. A bath without an exp_sum raises DiscretizationError.
    """
    kern = bath_mod.exp_sum(bath)
    if kern is None:
        raise DiscretizationError("volterra_solve needs the bath's exp_sum, which only "
                                  "an analytic bath has")
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

    rate = (lam / eps) ** 2
    rho = np.exp(-kern.lam * (h / eps))             # gamma at lag m is rho^m @ kern.c

    # memory(k) = h * trapezoid of inner[j] gamma((t_k - s_j)/eps) over j = 0..k.
    # Its sum over j < k serves both step k-1's corrector and step k's
    # predictor. terms starts at -inner[0]/2, so that the first update gives
    # the trapezoid's j = 0 end its half weight.
    # Heun's inner products with y all follow from p = <beta_{k+1}, y_k>,
    # cross_k = <beta_{k+1}, beta_k> and norm2_k = |beta_k|^2.
    cross = np.einsum("ki,ki->k", beta[1:].conj(), beta[:-1])
    norm2 = np.einsum("ki,ki->k", beta.conj(), beta)
    c = rate * h
    y = np.empty((n + 1, d), dtype=complex)
    y[0] = z0
    inner = np.empty(n + 1, dtype=complex)          # <beta(s_k), y(s_k)>
    inner[0] = np.vdot(beta[0], z0)
    terms = np.full(len(rho), -0.5 * inner[0])
    half_g0 = 0.5 * kern.c.sum()                    # the trapezoid's j = k end
    mem = 0.0
    for k in range(n):
        terms = rho * (terms + inner[k])
        past = terms @ kern.c
        p = np.vdot(beta[k + 1], y[k])
        mem_pred = h * (past + half_g0 * (p - c * mem * cross[k]))
        a, b = -0.5 * c * mem, -0.5 * c * mem_pred
        y[k + 1] = y[k] + a * beta[k] + b * beta[k + 1]
        inner[k + 1] = p + a * cross[k] + b * norm2[k + 1]
        mem = h * (past + half_g0 * inner[k + 1])

    z = np.einsum("kij,kj->ki", u_all, y)
    return Trajectory(times=ts, z=z,
                      meta={"eps": eps, "lam": lam, "scheme": "volterra-heun",
                            "x_step": x_step})


class EffectiveGenerator:
    """t -> G_{eps,lam}(t) = A(t) - i lam^2 |u(t)><u(t)| Gamma_eps(t).

    Gamma_eps(t) = sum_j I(t/eps, alpha_j(t)) P_j(t) where I is the finite
    half-line transform of the bath correlation. Everything is evaluated at
    call time: `transforms` makes one half_line_transform call for all the
    times and levels asked for, in closed form when the bath has an exp_sum
    and by one quadrature per distinct time when it has not. `t_end`, when
    given, is checked as a solver's last time (EigenFrame.check_end); every
    time of the frame can be asked for.
    """

    def __init__(self, atom: AtomPath, frame: EigenFrame, bath: bath_mod.BathSpec,
                 eps: float, lam: float, t_end: Optional[float] = None):
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
        u = coupling_in_working_basis(self.atom, self.frame, t)
        vecs = self.frame.vectors_at(t)
        gamma = (vecs * self.transforms(t)[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)
        row = (u.conj()[..., None, :] @ gamma)[..., 0, :]
        return a - 1j * self.lam**2 * (u[..., :, None] * row[..., None, :])


def effective_generator(atom: AtomPath, frame: EigenFrame, bath: bath_mod.BathSpec,
                        eps: float, lam: float, t: float) -> np.ndarray:
    """G_{eps,lam}(t) at one time: EffectiveGenerator(atom, frame, bath, eps, lam)(t)."""
    return EffectiveGenerator(atom, frame, bath, eps, lam)(t)


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
