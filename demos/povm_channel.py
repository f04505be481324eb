"""POVM completeness and the total channel, verified numerically.

The POVM elements of the measurement integrate to the identity; the
scalar core is a partition-function identity, the operator statement a
phase-space quadrature.  Averaging Kraus conjugations over records
reproduces the Gaussian-smoothing channel, and at late times the
elements collapse onto coherent-state outer products.
"""

import numpy as np

from spqm import povm

KT = 1.0
DIM = 16

report = povm.partition_function_check(KT, 60)
print(f"partition identity at kT={KT}: trace = {report['trace']:.7f}, "
      f"1/(2 sinh 2kT) = {report['closed_form']:.7f}, "
      f"residual {report['residual']:.2e}")

dev = povm.completeness_quadrature(KT, DIM)
print(f"completeness quadrature (dim {DIM}, top {DIM // 2}x{DIM // 2} "
      f"block): deviation from identity {dev:.2e}")

# Monte Carlo channel vs the superoperator, exponentiated in offset blocks.
dim = 8
rho = np.zeros((dim, dim), dtype=complex)
rho[0, 0] = 1.0
channel = povm.channel_monte_carlo(rho, kT=0.3, n_paths=20_000, dt=1e-3,
                                   dim=dim, seed=314)
print(f"\nchannel Monte Carlo (dim {dim}, kT=0.3, {channel.n_paths} paths):")
print(f"  trace distance to the superoperator: {channel.trace_distance:.4f}")
print(f"  trace preservation: {channel.trace_mean:.4f} +- "
      f"{channel.trace_stderr:.4f}")

print("\nlate-time collapse onto coherent-state outer products:")
for kt in (2.0, 3.0, 4.0):
    res = povm.late_time_coherent_residual(kt, 0.5, 0.3, 40)
    print(f"  kT={kt}: residual {res:.2e}  (reference e^(-2kT) = "
          f"{np.exp(-2 * kt):.2e})")
