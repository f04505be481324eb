"""The package runs without loading scipy, imports start no thread, and
every name a layer exports exists.

scipy is imported only inside the dense oracle
`fock.matrix_exponential`, and the worker thread of `paths._run_blocks`
is made on first use.  pytest has loaded scipy already, so the check
runs in a fresh interpreter.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# One small call per layer, as the benchmark's warm-up makes, the dense
# Cartan oracle, then the channel Monte Carlo and its verify check, and
# the checks whose dense references are built from
# `fock.displacement_operator` (eigh) and `group.represent` alone.
SCRIPT = """
import sys
import threading
import numpy as np
import spqm
from spqm import dists, fock, group, moments, paths, povm, verify

assert threading.active_count() == 1, threading.enumerate()
assert paths._worker is None

fock.displacement_operator(4, 0.1)
fock.cartan_decomposition(4, 0.1, 0.2, 0.3, 0.4, 0.5j)
group.represent(group.HCCoords.identity(), 4)
paths.closed_form_hc(paths.sample_wiener(8, 1e-3, 1.0, 0))
moments.direct_moments(moments.build_kernel(8, 1e-3, 1.0))
dists.feynman_kac_estimate("plain", "none", "one", 100, 8, 1e-3, 1.0, 0)
povm.partition_function_check(1.0, 8)
rho = np.zeros((4, 4), dtype=complex)
rho[0, 0] = 1.0
povm.channel_monte_carlo(rho, 0.01, 20, 1e-3, 4, 2)
for number in (6, 14, 15):
    assert verify.run_check(number).passed, number
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""


def test_no_scipy_on_import_or_first_calls():
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("layer", ["fock", "group", "paths", "moments",
                                   "dists", "povm", "verify", "cli"])
def test_every_exported_name_resolves(layer):
    # The benchmark's tracer wraps what `__all__` lists and skips a
    # name that is missing, so a stale entry would go unseen there.
    module = importlib.import_module(f"spqm.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
