"""Every job passes its check at the benchmark's sizes and rejects a
perturbed output; the entry point refuses a tree without spqm sources."""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import jobs

SEED = 7


@pytest.fixture(scope="module", params=sorted(jobs.WORKLOADS))
def workload_outputs(request):
    job_list = jobs.WORKLOADS[request.param](SEED)
    return [(job, job.run()) for job in job_list]


def shifted(value):
    return value + (1 + np.abs(value))


def with_nan(value):
    value = np.array(value, dtype=np.result_type(value, float))
    value.flat[0] = np.nan
    return value


def test_checks_accept_true_outputs(workload_outputs):
    for job, out in workload_outputs:
        passed, detail = jobs.evaluate(job, out)
        assert passed, f"{job.name}: {detail}"


def test_checks_reject_perturbed_outputs(workload_outputs):
    for job, out in workload_outputs:
        for key in job.values:
            passed, _ = jobs.evaluate(job, dict(out, **{key: shifted(out[key])}))
            assert not passed, f"{job.name}: shifted {key} passed"
        for key in out:
            passed, _ = jobs.evaluate(job, dict(out, **{key: with_nan(out[key])}))
            assert not passed, f"{job.name}: NaN in {key} passed"


def test_run_refuses_tree_without_sources(tmp_path):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    root = os.path.dirname(here)
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fock_dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
