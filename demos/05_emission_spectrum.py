"""Where the emitted excitation ends up in frequency.

The emitted density |f_t(omega)|^2 concentrates near the instantaneous
transition line of the decaying level. Observable averages over this
density obey two limit laws: a frozen-line law when the decay is much
faster than the drive, and a swept-line law at comparable rates.
"""

import numpy as np

from awwlab import bath as B, emission, exact
from awwlab.harness import builtin_scenario

scen = builtin_scenario("ww-ref-2level")
frame = scen.frame()
one = B.TestObservable(weight=lambda w: np.ones_like(w))
omega_w = B.TestObservable(weight=lambda w: np.asarray(w, dtype=float))

eps = 0.02
r = 1.0
lam = np.sqrt(r * eps)
modes = exact.discretize_bath(scen.bath, eps)
traj = exact.propagate_exact(scen.atom, frame, modes, scen.z0, eps, lam,
                             bath=scen.bath, override_smallness=True)

total = emission.observable_average(traj, modes, one)[-1]
mean_w = emission.observable_average(traj, modes, omega_w)[-1] / total
print(f"exact run at eps = {eps}, r = {r}:")
print(f"  emitted weight <1>_1   = {total:.5f}")
print(f"  mean emitted frequency = {mean_w:.5f} (transition line alpha_1 = 1)")

# the line's half-width, lam^2 beta_1 ~ 0.02, is under the node spacing near it
# (~0.04), so a bin edge on the line would split it by where nodes happen to fall
print("\ncoarse emitted spectrum (weight per frequency bin; the line, about 0.02")
print("wide, is narrower than the mode-node spacing near it, so the bins are centred on it):")
edges = np.linspace(0.125, 3.125, 13)
dens = np.abs(traj.field[-1]) ** 2
for lo, hi in zip(edges[:-1], edges[1:]):
    mask = (modes.omegas >= lo) & (modes.omegas < hi)
    bar = "#" * int(80 * dens[mask].sum())
    print(f"  [{lo:5.3f}, {hi:5.3f}) {dens[mask].sum():8.5f} {bar}")

print("\nlimit laws for B = 1:")
b_val = emission.regime_B_limit(frame, scen.bath, scen.atom, one, 0, r, 1.0)
a_val = emission.regime_A_limit(frame, scen.bath, one, 0)
print(f"  swept-line law (r = {r})  = {b_val:.5f}"
      f"   rel. gap to exact: {abs(total - b_val) / b_val:.2%}")
print(f"  frozen-line law (r -> oo) = {a_val:.5f}")
for big_r in (10.0, 100.0, 1000.0):
    v = emission.regime_B_limit(frame, scen.bath, scen.atom, one, 0, big_r, 1.0)
    print(f"  swept-line law at r = {big_r:<6g} = {v:.7f}")
