"""Non-Hermitian spectral machinery for the effective generator.

Eigenvalues of G pick up negative imaginary parts of order lam^2; the
associated rank-one projections come either from the matched eigenvectors,
P_j = r_j (R^-1)_j, or, independently, from resolvent contour integrals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bath as bath_mod
from .atom import AtomPath, EigenFrame, _cubic_spline, _simpson, magnus_propagate
from .errors import ContourError, FrameSmoothnessError, MatchingError
from .reduced import EffectiveGenerator

__all__ = [
    "PerturbedSpectrum",
    "perturbed_spectrum",
    "riesz_projection",
    "residue_integral",
    "adiabatic_evolution_diagnostic",
]

CONTOUR_NODES = 64        # trapezoid nodes on a contour circle before any doubling
CONTOUR_DOUBLINGS = 3     # node doublings riesz_projection tries for an idempotent
DIAGNOSTIC_GRID = 401     # times on [s, t] of adiabatic_evolution_diagnostic


@dataclass
class PerturbedSpectrum:
    """Eigenvalues and rank-one projections of G, ordered by unperturbed level."""

    eigenvalues: np.ndarray    # (..., d) complex, entry j matched to level j
    projections: np.ndarray    # (..., d, d, d), generally non-orthogonal


def perturbed_spectrum(g: np.ndarray, energies: np.ndarray,
                       vectors: np.ndarray) -> PerturbedSpectrum:
    """Eigendecomposition of G matched to the unperturbed levels.

    g is one (d, d) generator or a (..., d, d) stack; energies (..., d) and
    vectors (..., d, d), eigenvectors as columns, are the Hermitian reference
    spectrum at the same times. Returns eigenvalues (..., d) and projections
    (..., d, d, d). Level j takes the eigenvalue nearest alpha_j: under the
    coupling-smallness condition Bauer-Fike puts each eigenvalue of G within
    lam^2 ||v||^2 ||gamma||_L1 < gap/4 of its own level, so this is one-to-one.
    As a check, the eigenvector overlapping reference column j most must name
    the same eigenvalue; MatchingError if not, or if two levels share one.
    """
    w, vr = np.linalg.eig(g)
    order = np.argmin(np.abs(w[..., None, :] - np.asarray(energies)[..., :, None]), axis=-1)
    overlap = np.abs(np.swapaxes(np.conj(vectors), -1, -2) @ vr)    # (..., level, eig)
    if (np.any(np.sort(order, axis=-1) != np.arange(w.shape[-1]))
            or np.any(np.argmax(overlap, axis=-1) != order)):
        raise MatchingError("two levels share a nearest eigenvalue, or distance "
                            "and eigenvector overlap name different ones")

    vr = np.take_along_axis(vr, order[..., None, :], axis=-1)
    # P_j = r_j (R^-1)_j: the rows of R^-1 are the left eigenvectors, scaled
    # so that each pairs to 1 with its right eigenvector
    projections = np.einsum("...aj,...jb->...jab", vr, np.linalg.inv(vr))
    return PerturbedSpectrum(eigenvalues=np.take_along_axis(w, order, axis=-1),
                             projections=projections)


def _contour(center: complex, radius: float, m: int):
    theta = 2.0 * np.pi * np.arange(m) / m
    return center + radius * np.exp(1j * theta)


def riesz_projection(g: np.ndarray, center: complex, radius: float) -> np.ndarray:
    """-(2 pi i)^{-1} of the resolvent (G - z)^{-1} around the circle.

    Trapezoid on the circle converges spectrally for the analytic resolvent;
    node count doubles if an eigenvalue sits close to the contour.
    """
    eye = np.eye(g.shape[0])
    eigs = np.linalg.eigvals(g)
    if np.min(np.abs(np.abs(eigs - center) - radius)) < 1e-8:
        raise ContourError("an eigenvalue lies within 1e-8 of the contour circle")
    m = CONTOUR_NODES
    for _ in range(CONTOUR_DOUBLINGS + 1):
        zs = _contour(center, radius, m)[:, None, None]
        p = -np.sum(np.linalg.inv(g - zs * eye) * (zs - center), axis=0) / m
        if np.linalg.norm(p @ p - p, 2) < 1e-10:
            return p
        m *= 2
    raise ContourError("contour quadrature failed to produce an idempotent")


def residue_integral(center: complex, radius: float, pole: complex) -> complex:
    """-(2 pi i)^{-1} contour integral of z/(pole - z)^2 around the circle."""
    zs = _contour(center, radius, CONTOUR_NODES)
    vals = zs / (pole - zs) ** 2 * (zs - center)
    return -np.mean(vals)


def adiabatic_evolution_diagnostic(atom: AtomPath, frame: EigenFrame,
                                   bath: bath_mod.BathSpec, eps: float, lam: float,
                                   t: float, s: float = 0.0, *,
                                   gen: EffectiveGenerator) -> np.ndarray:
    """Factorized adiabatic evolution V(t, s) = W(t, s) Psi(t, s).

    W transports the perturbed projections (generator sum_j dP_j P_j, with
    dP_j from centered differences checked under step halving); Psi carries
    the dynamical phases with the second-order level corrections
    -i|v_j|^2 I_j, read from gen.transforms at the times of [s, t]. `atom` must
    be frame.atom, `gen` must have been built for this frame, bath, eps and lam,
    and [s, t] must lie in the frame (EigenFrame.check_times); ValueError if
    not. Used as a diagnostic against the stepped effective propagator.
    """
    frame.check_atom(atom)
    if s > t:
        raise ValueError("require s <= t")
    if gen.frame is not frame or gen.bath is not bath or (gen.eps, gen.lam) != (eps, lam):
        raise ValueError("gen was built for another frame, bath, eps or lam")
    frame.check_times([s, t])
    if t == s:
        return np.eye(atom.dim, dtype=complex)

    ts = np.linspace(s, t, DIAGNOSTIC_GRID)
    h = ts[1] - ts[0]
    p_tab = perturbed_spectrum(gen(ts), frame.energies_at(ts), frame.vectors_at(ts)).projections
    dp = np.gradient(p_tab, h, axis=0, edge_order=2)

    # step-halving consistency of the finite-difference derivative
    coarse = p_tab[::2]
    dp_c = np.gradient(coarse, 2.0 * h, axis=0, edge_order=2)
    mism = np.max(np.abs(dp_c[1:-1] - dp[2:-2:2]))
    if mism > 50.0 * h:
        raise FrameSmoothnessError(
            f"projection derivative unstable under step halving ({mism:.2e})")

    k_tab = np.einsum("kjab,kjbc->kac", dp, p_tab)
    k_spline = _cubic_spline(ts, k_tab)

    w = magnus_propagate(k_spline, ts)[-1]

    # dynamical phases: Simpson of alpha_j + lam^2 alpha'_j over [s, t]
    corr = -1j * np.abs(atom.couplings(ts)) ** 2 * gen.transforms(ts)
    phases = _simpson(frame.energies_at(ts) + lam**2 * corr, ts)
    return w @ np.einsum("j,jab->ab", np.exp(-1j * phases / eps), p_tab[0])
