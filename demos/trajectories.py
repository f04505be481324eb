"""Simulate one measurement record and cross-check every route to it.

A single record of complex Wiener increments drives the group-valued
diffusion.  The same endpoint is reached four ways: the exact
one-increment recursion, the stochastic-integral closed forms, the
Cartan trajectory (`group.hc_to_cartan` of the recursion's HC points
after the identity, checked against the dense Cartan decomposition
`fock.cartan_decomposition`), and the time-ordered Kraus product in a
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
traj = paths.propagate_sde(path)
end = traj[-1]
print(f"\nHC endpoint:  nu={end.nu:.6f}  mu={end.mu:.6f}")
print(f"              r={end.r:.3f}  s={end.s:.6f}  psi={end.psi:.6f}")

# Route 2: closed-form stochastic-integral sums (identical in exact
# arithmetic, so the deviation is pure floating point).
closed = paths.closed_form_hc(path)
dev = max(abs(end.nu - closed.nu), abs(end.mu - closed.mu),
          abs(end.z - closed.z))
print(f"closed-form sums deviate by {dev:.2e}")

# Route 3: the Cartan trajectory is the chart transform of the HC scan's
# points after the identity, as both charts decompose one group element.
# The dense decomposition D_beta e^{i phi - Ho r - ell} D_alpha_dag of
# its endpoint must equal the represented HC endpoint on the top block.
DIM, BIG = 24, 80
y = group.hc_to_cartan(traj[1:])[-1]
print(f"\nCartan endpoint: beta={y.beta:.6f}  alpha={y.alpha:.6f}")
print(f"                 ell={y.ell:.6f}  phi={y.phi:.6f}")
dense = fock.cartan_decomposition(BIG, y.beta, y.phi, y.r, y.ell,
                                  y.alpha)[:DIM, :DIM]
rep_end = group.represent(end, DIM)
print("dense Cartan decomposition vs represented HC endpoint: "
      f"{np.max(np.abs(dense - rep_end)) / np.max(np.abs(rep_end)):.2e}")

# Route 4: the time-ordered Kraus product converges to the represented
# closed form at O(dt) on a fixed Brownian record.
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
