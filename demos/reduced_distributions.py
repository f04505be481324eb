"""Reduced endpoint distributions and their Feynman-Kac Monte Carlo.

At time T the coset-valued endpoint is ballistic in the ruler
(r = 2 kappa T) and Gaussian in the phase-plane pair.  The weighted
path averages reproduce the closed-form normalization and moments.
"""

import numpy as np

from spqm import dists, group, moments

KT = 0.5

print(f"kT = {KT}")
print(f"Sigma width        = {dists.sigma_width(KT):.7f}  (kT - tanh kT)")
print(f"normalization N(kT) = {dists.normalization_factor(KT):.7f}"
      "  (e^(2kT)/(1+kT))")

# The Cartan form depends only on beta - alpha; the HC form splits over
# sum and difference variables.  They differ by the gauge factor e^{2f}.
# A coset is given in Cartan coordinates; its phi and ell are ignored.
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(100):
    point = group.CartanCoords(
        beta=rng.normal() + 1j * rng.normal(), phi=0.0, r=2 * KT, ell=0.0,
        alpha=rng.normal() + 1j * rng.normal())
    worst = max(worst, dists.gauge_relation_residual(point, KT))
print(f"gauge relation C = e^(2f) B, worst residual on 100 cosets: "
      f"{worst:.2e}")

# Feynman-Kac: the e^{-2s}-weighted unit observable estimates N(kT).
est = dists.feynman_kac_estimate("plain", "exp_neg_2s", "one",
                                 n_paths=100_000, N=50, dt=1e-2,
                                 kappa=1.0, seed=99)
print(f"\nE[e^(-2s)] Monte Carlo = {est.mean:.4f} +- {est.stderr:.4f}"
      f"  (effective sample size {est.ess:.0f})")
print(f"closed form N(kT)      = {dists.normalization_factor(KT):.4f}")

# Under the modified measure the endpoint moments are the normalized
# ones: <|nu|^2> = kT/(1+kT).
est = dists.feynman_kac_estimate("modified", "none", "nu_abs2",
                                 n_paths=50_000, N=1000, dt=1e-3,
                                 kappa=1.0, seed=7)
closed = moments.analytic_moments(1.0)
print(f"\nmodified-measure <|nu|^2> at kT=1: {est.mean:.4f} +- "
      f"{est.stderr:.4f}  (closed form {closed.n})")
