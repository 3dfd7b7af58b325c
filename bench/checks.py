"""Output checks of the benchmark workloads.

Every check compares the program's output with a value the benchmark
computes itself, or with a property the method must have; none compares
with a stored copy of earlier output. Each returns a list of failure
messages, empty when the output passes.
"""

from __future__ import annotations

import numpy as np

# Reference bath rho(w) = w^2 e^{-w}, computed here apart from awwlab.
# ||gamma||_L1 = int_R 2 (1 + x^2)^{-3/2} dx = 4 for gamma(x) = 2/(1 + ix)^3.
GAMMA_L1 = 4.0


def rho(omega):
    omega = np.asarray(omega, dtype=float)
    return omega**2 * np.exp(-omega)


def golden_rule_weight(r, alpha=1.0, v2=1.0):
    """Emitted weight at t = 1 of a level at alpha decaying at the golden rule.

    The amplitude decays as exp(-(lam^2/eps) pi |v|^2 rho(alpha) t), so the
    weight left at t = 1 is exp(-2 pi r |v|^2 rho(alpha)) with r = lam^2/eps.
    """
    return 1.0 - np.exp(-2.0 * np.pi * r * v2 * rho(alpha))


def loglog_slope(xs, ys):
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _fail(ok, message):
    return [] if ok else [message]


# --- ladder ------------------------------------------------------------

def check_ladder_point(row, eps):
    """One sweep.csv row on the lam^2 = eps line of ww-ref-2level."""
    out = _fail(row["status"] == "ok", f"status {row['status']!r}")
    out += _fail(row["regime"] == "davies", f"regime {row['regime']!r}")
    want = golden_rule_weight(1.0)
    p_down = float(row["p_down"])
    out += _fail(abs(p_down - want) <= eps,
                 f"p_down {p_down:.6f} vs golden rule {want:.6f} (tol {eps})")
    return out


def check_ladder_fit(rows, slopes):
    """Slopes of E_lead and E_eff near 1; E_volt falls 1.5x per halving.

    `rows` maps eps to its sweep.csv row, `slopes` maps a metric to its
    slopes.csv row. The slopes are refitted here from the sweep rows.
    """
    eps = sorted(rows, reverse=True)
    out = []
    for metric in ("E_lead", "E_eff"):
        mine = loglog_slope(eps, [float(rows[e][metric]) for e in eps])
        theirs = float(slopes[metric]["slope"])
        out += _fail(abs(mine - theirs) <= 1e-9,
                     f"{metric} slope {theirs:.6f} in slopes.csv, refit {mine:.6f}")
        out += _fail(0.7 <= theirs <= 1.3, f"{metric} slope {theirs:.4f} outside [0.7, 1.3]")
    e_volt = [float(rows[e]["E_volt"]) for e in eps]
    for (e1, v1), (e2, v2) in zip(zip(eps, e_volt), zip(eps[1:], e_volt[1:])):
        out += _fail(v1 >= 1.5 * v2,
                     f"E_volt {v1:.3e} at eps {e1} -> {v2:.3e} at eps {e2}: "
                     "falls less than 1.5x")
    return out


# --- emission ----------------------------------------------------------

def check_norm(z, field, tol=1e-8):
    """sum |f_i|^2 + |z|^2 = 1 at every stored time."""
    total = np.sum(np.abs(field) ** 2, axis=1) + np.sum(np.abs(z) ** 2, axis=1)
    defect = float(np.max(np.abs(total - 1.0)))
    return _fail(defect <= tol, f"norm defect {defect:.2e} > {tol:.0e}")


def check_emitted_weight(weight, r, eps):
    """Final emitted weight within eps of the golden-rule weight."""
    want = golden_rule_weight(r)
    return _fail(abs(weight - want) <= eps,
                 f"emitted weight {weight:.6f} vs golden rule {want:.6f} (tol {eps})")


def check_mean_frequency(mean, eps, alpha=1.0):
    """Mean emitted frequency within 2 eps of the emitting level alpha_1.

    The line has a width of order eps in frequency, over which rho and
    omega rho change, so the mean sits O(eps) off the level.
    """
    return _fail(abs(mean - alpha) <= 2.0 * eps,
                 f"mean emitted frequency {mean:.6f} vs {alpha} (tol {2.0 * eps})")


def check_reconstruction(f_rec, f_int, tol=1e-3):
    """Closed-form field against the integrated field, relative to its size.

    The source history holds at most 0.1 rad of mode phase per step; the
    trapezoid error of a pure phase at that step is below 0.1^2/12 < 1e-3.
    """
    scale = float(np.max(np.abs(f_int)))
    err = float(np.max(np.abs(np.asarray(f_rec) - f_int)))
    return _fail(scale > 0.0 and err <= tol * scale,
                 f"reconstructed field off by {err:.2e} (field size {scale:.2e})")


def check_limit_law(limit_one, limit_omega, r, tol=1e-6):
    """Regime-B limits of the constant level alpha_1 = 1, |v_1| = 1.

    For B = 1 the limit is the golden-rule weight; for B = omega it is
    alpha_1 times that.
    """
    want = golden_rule_weight(r)
    out = _fail(abs(limit_one - want) <= tol * want,
                f"B=1 limit {limit_one:.9f} vs golden rule {want:.9f}")
    ratio = limit_omega / limit_one if limit_one else np.inf
    out += _fail(abs(ratio - 1.0) <= tol, f"B=omega limit / B=1 limit {ratio:.9f} vs 1")
    return out


# --- spectral-d3 -------------------------------------------------------

def check_norm_defect(defects, tol=1e-8):
    defect = float(np.max(np.abs(defects)))
    return _fail(np.isfinite(defect) and defect <= tol,
                 f"oracle norm defect {defect:.2e} > {tol:.0e}")


def check_kato_berry(moved, want, tol=1e-6):
    """W(t,0) phi_j(0) = exp(i xi_j(t)) phi_j(t) for every level."""
    gap = float(np.max(np.linalg.norm(np.asarray(moved) - np.asarray(want), axis=0)))
    return _fail(gap <= tol, f"Kato transport vs Berry phase gap {gap:.2e} > {tol:.0e}")


def check_projections(p_riesz, p_eig, tol=1e-8):
    gap = float(np.max([np.linalg.norm(a - b) for a, b in zip(p_riesz, p_eig)]))
    return _fail(gap <= tol, f"Riesz vs eigensolver projection gap {gap:.2e} > {tol:.0e}")


def decay_rate_tolerance(v2, lam2, horizon, gap, pred):
    """Allowed |Im lambda_j - pred_j| at the first order in lam^2.

    Two terms: the half-line transform stops at T = t/eps, which drops at
    most int_T^inf |gamma| <= 1/T^2 of its real part; and the next order
    of perturbation theory, relative size lam^2 ||v||^2 ||gamma||_L1 / gap.
    """
    return lam2 * v2 / horizon**2 + np.abs(pred) * lam2 * np.sum(v2) * GAMMA_L1 / gap


def check_decay_rates(imag, alphas, v2, lam2, horizon):
    """Im of the perturbed eigenvalues against -lam^2 pi |v_j|^2 rho(alpha_j)."""
    alphas = np.asarray(alphas, dtype=float)
    pred = -lam2 * np.pi * np.asarray(v2) * rho(alphas)
    tol = decay_rate_tolerance(np.asarray(v2), lam2, horizon,
                               float(np.min(np.diff(alphas))), pred)
    err = np.abs(np.asarray(imag) - pred)
    return _fail(bool(np.all(err <= tol)),
                 f"Im eigenvalues {np.round(imag, 8)} vs golden rule "
                 f"{np.round(pred, 8)} (tol {np.round(tol, 8)})")


def check_adiabatic_norms(col_norms, predicted, lam2, v2_max, gap_min):
    """|V(1,0) phi_j(0)| against the golden-rule survival amplitude.

    The diagnostic transports the perturbed projections, which are not
    orthogonal: at first order they move by lam^2 ||v||^2 |I| / gap, with
    |I| <= ||gamma||_L1 / 2 the size of a half-line transform. That bounds
    the change of norm, and is the tolerance.
    """
    tol = lam2 * v2_max * 0.5 * GAMMA_L1 / gap_min
    err = float(np.max(np.abs(np.asarray(col_norms) - predicted)))
    return _fail(err <= tol, f"adiabatic evolution norms {np.round(col_norms, 6)} vs "
                 f"golden rule {np.round(predicted, 6)} (tol {tol:.4f})")


def check_error_falls(errors, factor=1.5):
    """Volterra-oracle error falls at least `factor`x per halving of eps.

    `errors` maps eps to the error; the eps values are successive halvings.
    """
    eps = sorted(errors, reverse=True)
    out = []
    for e1, e2 in zip(eps, eps[1:]):
        out += _fail(errors[e1] >= factor * errors[e2],
                     f"E_volt {errors[e1]:.3e} at eps {e1} -> {errors[e2]:.3e} "
                     f"at eps {e2}: falls less than {factor}x")
    return out
