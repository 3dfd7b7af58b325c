"""How much of the excitation leaves the atom by the end of the drive.

The ratio r = lam^2/eps orders three behaviours: strong coupling relative
to the drive empties the atom, comparable scales empty it partially with a
computable survival factor, and weak coupling leaves it essentially intact.
Each classification is checked against the exact simulation.
"""

import numpy as np

from awwlab import asymptotics, exact
from awwlab.harness import builtin_scenario

scen = builtin_scenario("ww-ref-2level")
frame = scen.frame()
tables = asymptotics.tables_for(frame, scen.bath)

points = [
    ("strong", 0.01, 0.1),
    ("davies", 0.05, 0.05),
    ("weak", 0.1, 0.1**3),
]

print(f"{'label':>7} {'eps':>6} {'lam^2':>8} {'r':>7} {'regime':>7} "
      f"{'p_down pred':>12} {'p_down meas':>12}")
for label, eps, lam2 in points:
    lam = np.sqrt(lam2)
    rep = asymptotics.regime_classify(eps, lam, tables=tables, z0=scen.z0)
    modes = exact.discretize_bath(scen.bath, eps)
    traj = exact.propagate_exact(scen.atom, frame, modes, scen.z0, eps, lam,
                                 bath=scen.bath, override_smallness=True)
    measured = exact.de_excitation(traj)[-1]
    print(f"{label:>7} {eps:6.3f} {lam2:8.5f} {rep.ratio:7.3f} {rep.regime:>7} "
          f"{rep.p_down:12.5f} {measured:12.5f}")

print("\nthe prediction 1 - sum_j e^{-2 r int beta_j}|z0_j|^2 interpolates")
print("all three regimes; only its O(eps) defect distinguishes the rows")
