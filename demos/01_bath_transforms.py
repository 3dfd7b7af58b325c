"""Tour of the bath layer: correlation function, transforms, certificates.

The reference spectral weight rho(omega) = omega^2 exp(-omega) has every
transform in closed form, which makes it easy to see what the quadrature
machinery is supposed to reproduce. Its density is entire, so the bath also
carries a certified sum of exponentials for gamma, from which every
half-line transform is a closed form.
"""

import numpy as np

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
# the same density without the analytic mark takes the quadrature path
quad_bath = B.BathSpec(density=bath.density, support_max=bath.support_max,
                       quad_cutoff=bath.quad_cutoff, decay_amplitude=bath.decay_amplitude,
                       decay_power=bath.decay_power)
levels = np.array([0.4, 1.0, 2.3])
for T in (0.5, 20.0, 320.0, np.inf):
    gap = np.max(np.abs(B.half_line_transform(bath, levels, T)
                        - B.half_line_transform(quad_bath, levels, T)))
    print(f"  |sum - quadrature| at T = {T:>5}: {gap:.1e}")
print("  (the quadrature stops at quad_cutoff = 25, where ~9e-9 of mass is left)")

print("\n=== golden-rule decay rate and level shift ===")
beta, shift = B.decay_and_shift(bath, 1.0, 1.0)
print(f"  beta  = {beta:.6f}  (exact: pi/e = {np.pi * np.exp(-1):.6f})")
print(f"  shift = {shift:+.6f}")
