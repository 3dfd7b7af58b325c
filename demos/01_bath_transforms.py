"""Tour of the bath layer: correlation function, transforms, certificates.

The reference spectral weight rho(omega) = omega^2 exp(-omega) has every
transform in closed form, which makes it easy to see what the numerics are
supposed to reproduce. Its density is entire, so the bath carries a
certified sum of exponentials for gamma, from which every half-line
transform is a closed form; a bath without one is refused by name.
"""

import numpy as np
from scipy.integrate import quad

from awwlab import bath as B

bath = B.reference_bath()

print("=== correlation function gamma(t) = 2/(1+it)^3 ===")
for t in (0.0, 0.5, 1.0, 5.0):
    print(f"  gamma({t:>4}) = {B.correlation(bath, t):+.6f}")

print("\n=== L1 norm and decay certificate ===")
print(f"  ||gamma||_L1        = {B.correlation_l1_norm(bath):.9f}  (exact: 4)")
print(f"  |gamma| <= 6/(1+t)^3 holds: {B.check_decay_bound(bath)}")

print("\n=== Fourier transform ghat(alpha) = sqrt(2 pi) alpha^2 e^-alpha ===")
for a in (0.5, 1.0, 2.0):
    print(f"  ghat({a}) = {float(B.fourier_hat(bath, a)):.6f}")

print("\n=== half-line transform int_0^T e^{i x alpha} gamma(x) dx ===")
for T in (1.0, 5.0, 20.0, np.inf):
    val = B.half_line_transform(bath, 1.0, T)
    print(f"  T = {T:>4}: {val:+.6f}")
print("  the T = inf real part equals pi rho(1) =", f"{np.pi * np.exp(-1):.6f}")

print("\n=== exponential-sum kernel gamma(x) ~ sum_k c_k exp(-lam_k x) ===")
kern = B.exp_sum(bath)
print(f"  K = {len(kern.c)} terms, min Re lam = {kern.lam.real.min():.2e}")
print(f"  sup error {kern.sup_error:.1e} on [0, {kern.x_max:.3g}], "
      f"certified L1 error {kern.l1_error:.1e} on [0, inf)")


def quadpack(alpha, T):
    """An independent check: QUADPACK's Fourier-weighted integral of the
    closed-form gamma, QAWO on [0, T] and QAWF on [0, inf)."""
    limit = {"limit": 200} if np.isfinite(T) else {}

    def part(f, weight):
        return quad(f, 0.0, T, weight=weight, wvar=alpha, epsabs=1e-12, **limit)[0]

    re = lambda x: B.correlation(bath, x).real
    im = lambda x: B.correlation(bath, x).imag
    return part(re, "cos") - part(im, "sin") + 1j * (part(im, "cos") + part(re, "sin"))


levels = (0.4, 1.0, 2.3)
for T in (0.5, 20.0, 320.0, np.inf):
    gap = max(abs(B.half_line_transform(bath, a, T) - quadpack(a, T)) for a in levels)
    print(f"  |sum - QUADPACK| at T = {T:>5}: {gap:.1e}")

print("\n=== golden-rule decay rate and level shift ===")
beta, shift = B.decay_and_shift(bath, 1.0, 1.0)
print(f"  beta  = {beta:.6f}  (exact: pi/e = {np.pi * np.exp(-1):.6f})")
print(f"  shift = {shift:+.6f}")
