"""Simulate one measurement record and cross-check every route to it.

A single record of complex Wiener increments drives the group-valued
diffusion.  The same endpoint is computed four ways: the exact
one-increment recursion, the stochastic-integral closed forms, the
Cartan-chart SDE integration, and the time-ordered Kraus product in a
truncated Fock representation.
"""

import numpy as np

from spqm import fock, group, paths

KAPPA = 1.0
DT = 1e-3
N = 1000  # kT = 1
SEED = 2024

path = paths.sample_wiener(N, DT, KAPPA, seed=SEED)
print(f"record: N={N}, dt={DT}, kappa={KAPPA}, kT={KAPPA * DT * N}")

# Route 1: scan the exact recursion in the HC chart; the trajectory is
# one HCCoords whose fields hold the N + 1 points.
traj = paths.propagate_sde(path, chart="hc")
end = group.HCCoords(nu=traj.nu[-1], r=traj.r[-1], z=traj.z[-1],
                     mu=traj.mu[-1])
print(f"\nHC endpoint:  nu={end.nu:.6f}  mu={end.mu:.6f}")
print(f"              r={end.r:.3f}  s={end.s:.6f}  psi={end.psi:.6f}")

# Route 2: closed-form stochastic-integral sums (identical in exact
# arithmetic, so the deviation is pure floating point).
closed = paths.closed_form_hc(path)
dev = max(abs(end.nu - closed.nu), abs(end.mu - closed.mu),
          abs(end.z - closed.z))
print(f"closed-form sums deviate by {dev:.2e}")

# Route 3: integrate in the Cartan chart and transform back.
cartan = paths.propagate_sde(path, chart="cartan")
ref = group.hc_to_cartan(end)
print(f"\nCartan endpoint: beta={cartan.beta[-1]:.6f}  "
      f"alpha={cartan.alpha[-1]:.6f}")
print(f"cross-chart deviation: beta {abs(cartan.beta[-1] - ref.beta):.2e}, "
      f"ell {abs(cartan.ell[-1] - ref.ell):.2e}")
f_gauge, _ = group.gauge_functions(end)
print(f"ell = s - f residual: {abs(cartan.ell[-1] - (end.s - f_gauge)):.2e}")

# Route 4: the time-ordered Kraus product converges to the represented
# closed form at O(dt) on a fixed Brownian record.
DIM = 24
product = paths.kraus_time_ordered(path, DIM)
rep = group.represent(closed, DIM)
err = (np.linalg.norm(fock.interior_block(product - rep))
       / np.linalg.norm(fock.interior_block(rep)))
print(f"\nKraus product vs represented closed form (dim {DIM}): {err:.2e}")
fine = paths.refine_path(path, 4, seed=SEED + 1)
product4 = paths.kraus_time_ordered(fine, DIM)
rep4 = group.represent(paths.closed_form_hc(fine), DIM)
err4 = (np.linalg.norm(fock.interior_block(product4 - rep4))
        / np.linalg.norm(fock.interior_block(rep4)))
print(f"same record at dt/4: {err4:.2e}  (ratio {err / err4:.2f}, "
      "first-order convergence)")
