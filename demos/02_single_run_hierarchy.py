"""One simulation, four descriptions.

The same slow two-level atom is propagated four ways: exactly against the
discretized field, through the memory-kernel equation for the atomic
amplitudes, through the local effective generator, and by evaluating the
closed leading-order formula. The table shows how the descriptions nest.
"""

import numpy as np

from awwlab import asymptotics, exact, reduced
from awwlab.harness import builtin_scenario

scen = builtin_scenario("ww-ref-2level")
frame = scen.frame()
eps = 0.05
lam = np.sqrt(eps)          # the partial de-excitation line lam^2 = eps

modes = exact.discretize_bath(scen.bath, eps)
print(f"field discretized with {modes.size} modes "
      f"(correlation error {modes.achieved_error:.1e})")

traj = exact.propagate_exact(scen.atom, frame, modes, scen.z0, eps, lam,
                             bath=scen.bath, override_smallness=True)
tr_volt = reduced.volterra_solve(frame, scen.bath, eps, lam, scen.z0)
tr_eff = reduced.effective_solve(frame, scen.bath, eps, lam, scen.z0)
tables = asymptotics.AsymptoticTables(frame, scen.bath)
z_lead = asymptotics.leading_order_z(tables, eps, lam, scen.z0, traj.times)

print(f"\n{'t':>5} {'p_1 exact':>10} {'p_down':>8} "
      f"{'|volt-ex|':>10} {'|eff-ex|':>9} {'|lead-ex|':>10}")
p, p_down = exact.populations(traj, frame)
for k in range(0, len(traj.times), 40):
    t = traj.times[k]
    ev = np.linalg.norm(tr_volt.z[k] - traj.z[k])      # one output grid for all
    ee = np.linalg.norm(tr_eff.z[k] - traj.z[k])
    el = np.linalg.norm(z_lead[k] - traj.z[k])
    print(f"{t:5.2f} {p[k, 0]:10.5f} {p_down[k]:8.4f} {ev:10.2e} {ee:9.2e} {el:10.2e}")

print("\nthe memory-kernel solution tracks the oracle to discretization")
print("accuracy; the effective and leading-order answers differ by the")
print("adiabatic remainder, which shrinks with eps")
