"""Observable averages of the emitted excitation and their limit laws.

The emitted density in frequency is |f_t(omega)|^2; averages of a test
weight B are mode sums on the quadrature grid. Two closed-form limits
cover fast decay (the density freezes at the initial transition line) and
order-one decay (the line sweeps while depleting).
"""

from __future__ import annotations

import numpy as np

from . import bath as bath_mod
from .asymptotics import AsymptoticTables
from .atom import AtomPath, EigenFrame, _simpson
from .errors import WellCouplednessError
from .exact import ModeGrid, Trajectory

__all__ = [
    "observable_average",
    "regime_A_limit",
    "regime_B_limit",
]


def observable_average(traj: Trajectory, grid: ModeGrid,
                       obs: bath_mod.TestObservable):
    """<B>_t = sum_i B(omega_i) |f_t(omega_i)|^2 at every stored sample."""
    if traj.field is None:
        raise ValueError("trajectory carries no field amplitudes")
    b_vals = obs(grid.omegas)
    return np.abs(traj.field) ** 2 @ b_vals


def regime_A_limit(frame: EigenFrame, bath: bath_mod.BathSpec,
                   obs: bath_mod.TestObservable, j: int) -> float:
    """Fast-decay limit ghat_B(alpha_j(0)) / ghat(alpha_j(0)), which is B(alpha_j(0))."""
    alpha0 = float(frame.energies[0, j])
    if bath_mod.fourier_hat(bath, alpha0) == 0.0:
        raise WellCouplednessError(
            f"level frequency {alpha0:.3f} outside the bath support")
    return float(obs(alpha0))


def regime_B_limit(frame: EigenFrame, bath: bath_mod.BathSpec, atom: AtomPath,
                   obs: bath_mod.TestObservable, j: int, r: float, t: float) -> float:
    """Order-one-decay limit.

    sqrt(2 pi) r int_0^t |v_j(s)|^2 e^{-2 r int_0^s beta_j} ghat_B(alpha_j(s)) ds.
    The grid refines with r so the depleting exponential stays resolved.
    `atom` must be frame.atom, and t must lie in the frame's range.
    """
    frame.check_atom(atom)
    if r <= 0.0:
        raise ValueError("r must be positive")
    if frame.check_times(t) == 0.0:
        return 0.0
    n_grid = int(min(max(201, 40 * r), 40001)) | 1
    ss = np.linspace(0.0, t, n_grid)
    alphas = frame.energies_at(ss)[:, j]
    v_j = atom.couplings(ss)[:, j]
    decay = np.exp(-2.0 * r * AsymptoticTables(frame, bath).int_beta(ss)[:, j])
    ghat_b = obs(alphas) * bath_mod.fourier_hat(bath, alphas)
    integrand = np.abs(v_j) ** 2 * decay * ghat_b
    return float(np.sqrt(2.0 * np.pi) * r * _simpson(integrand, ss))
