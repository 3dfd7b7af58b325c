"""Closed-form leading-order descriptions of the slow-atom dynamics.

Everything here evaluates formulas rather than integrating equations of
motion: per-level phases with second-order corrections, exponential
population decay, the de-excitation regime taxonomy, and the long-time
semigroup of the autonomous model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import bath as bath_mod
from .atom import EigenFrame, _cubic_spline, berry_phase
from .errors import WellCouplednessError

__all__ = [
    "AsymptoticTables",
    "leading_order_z",
    "RegimeReport",
    "regime_classify",
    "semigroup_time_independent",
]

STRONG_RATIO = 10.0   # lam^2/eps where the strong regime begins: a convention
DAVIES_RATIO = 0.1    # lam^2/eps where the davies regime begins: a convention


class AsymptoticTables:
    """Per-level running integrals int_0^t of frequency, decay rate and Lamb shift.

    Each is the antiderivative of a cubic spline through values at the frame's
    nodes, with the couplings of frame.atom: int_alpha of the energies, int_beta
    of decay_rate, and _int_shift of one decay_and_shift call, built on its first
    read, so only leading_order_z reads the Lamb shift, and with it the bath's
    exp_sum: the tables of a bath without one serve regime_classify alone.
    """

    def __init__(self, frame: EigenFrame, bath: bath_mod.BathSpec):
        beta = bath_mod.decay_rate(bath, frame.atom.couplings(frame.times), frame.energies)
        self.frame, self.bath = frame, bath
        self.int_alpha = frame.energies_at.antiderivative()
        self.int_beta = _cubic_spline(frame.times, beta).antiderivative()

    @cached_property
    def _int_shift(self):
        frame = self.frame
        _, shift = bath_mod.decay_and_shift(self.bath, frame.atom.couplings(frame.times),
                                            frame.energies)
        return _cubic_spline(frame.times, shift).antiderivative()


def leading_order_z(tables: AsymptoticTables, eps: float, lam: float, z0: np.ndarray,
                    t) -> np.ndarray:
    """Leading-order amplitudes on the tables' frame at a scalar t, or at each time of an array.

    Per level: dynamical phase with the Lamb-shift correction, exponential
    decay at rate beta_j/eps, and the geometric phase, all riding on the
    instantaneous eigenvector.
    """
    frame = tables.frame
    t = frame.check_times(t)
    v0 = frame.vectors[0]
    z0_levels = v0.conj().T @ np.asarray(z0, dtype=complex)
    phase = tables.int_alpha(t) + lam**2 * tables._int_shift(t)
    decay = tables.int_beta(t)
    xi = np.stack([berry_phase(frame, j, t) for j in range(frame.dim)], axis=-1)
    amps = (np.exp(-1j * phase / eps)
            * np.exp(-(lam**2 / eps) * decay)
            * np.exp(1j * xi) * z0_levels)
    return (frame.vectors_at(t) @ amps[..., None])[..., 0]


@dataclass
class RegimeReport:
    regime: str          # strong | davies | weak_a | weak_b
    ratio: float         # r = lam^2 / eps
    p_down: float        # predicted de-excitation at t


def regime_classify(eps: float, lam: float, tables: AsymptoticTables, z0: np.ndarray,
                    t: Optional[float] = None) -> RegimeReport:
    """Coupling-vs-slowness taxonomy with an evaluated de-excitation prediction.

    The ratio r = lam^2/eps orders the regimes; the prediction
    1 - sum_j exp(-2 r int beta_j)|z0_j|^2, with z0_j on the frame's t = 0
    eigenvectors, interpolates all of them (saturating near 1 when strong,
    vanishing when weak), at time t: by default the end of the tables'
    frame, and ValueError outside the frame.
    """
    if not (0.0 < eps <= 1.0 and 0.0 < lam <= 1.0):
        raise ValueError("eps and lam must lie in (0, 1]")
    r = lam**2 / eps
    if r >= STRONG_RATIO:
        regime = "strong"
    elif r >= DAVIES_RATIO:
        regime = "davies"
    else:
        regime = "weak_a" if lam**2 / eps**2 >= 1.0 else "weak_b"
    frame = tables.frame
    weights = np.abs(frame.vectors[0].conj().T @ np.asarray(z0, dtype=complex)) ** 2
    t = frame.times[-1] if t is None else frame.check_times(t)
    survive = np.exp(-2.0 * r * np.asarray(tables.int_beta(t)))
    p_down = float(1.0 - np.dot(survive, weights))
    return RegimeReport(regime=regime, ratio=r, p_down=p_down)


def semigroup_time_independent(a: np.ndarray, v: np.ndarray,
                               bath: bath_mod.BathSpec, lam: float,
                               z0: np.ndarray, t) -> np.ndarray:
    """Autonomous long-time law z(t) = sum_j e^{-i t (alpha_j + lam^2 a'_j)} P_j z0.

    a'_j = shift_j - i beta_j with the coupling component <phi_j, v>, from
    decay_and_shift, so a bath without an exp_sum raises DiscretizationError.
    Physical time t; no slow rescaling enters.
    """
    a = np.asarray(a, dtype=complex)
    v = np.asarray(v, dtype=complex)
    z0 = np.asarray(z0, dtype=complex)
    energies, vecs = np.linalg.eigh(a)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    beta, shift = bath_mod.decay_and_shift(bath, vecs.conj().T @ v, energies)
    if np.any(beta <= 0.0):
        raise WellCouplednessError(
            f"level frequency {energies[beta <= 0.0][0]:.3f} outside the bath support")
    comps = vecs.conj().T @ z0
    phases = np.exp(-1j * np.outer(t_arr, energies + lam**2 * (shift - 1j * beta)))
    out = np.einsum("kj,ij->ki", phases * comps[None, :], vecs)
    return out if np.ndim(t) > 0 else out[0]
