"""The package runs without loading scipy, and imports start no thread.

scipy is imported only inside the dense oracle
`fock.matrix_exponential`, and the worker thread of `paths._run_blocks`
is made on first use.  pytest has loaded scipy already, so the check
runs in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# One small call per layer, as the benchmark's warm-up makes, then the
# channel Monte Carlo and its verify check.
SCRIPT = """
import sys
import threading
import numpy as np
import spqm
from spqm import dists, fock, group, moments, paths, povm, verify

assert threading.active_count() == 1, threading.enumerate()
assert paths._worker is None

fock.displacement_operator(4, 0.1)
group.represent(group.HCCoords.identity(), 4)
paths.closed_form_hc(paths.sample_wiener(8, 1e-3, 1.0, 0))
moments.direct_moments(moments.build_kernel(8, 1e-3, 1.0))
dists.feynman_kac_estimate("plain", "none", "one", 100, 8, 1e-3, 1.0, 0)
povm.partition_function_check(1.0, 8)
rho = np.zeros((4, 4), dtype=complex)
rho[0, 0] = 1.0
povm.channel_monte_carlo(rho, 0.01, 20, 1e-3, 4, 2)
assert verify.run_check(14).passed
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""


def test_no_scipy_on_import_or_first_calls():
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
