"""The benchmark in perfbench/ still runs against the library.

perfbench/ calls library functions, and its tracer patches functions and
methods of lensknots by name, so a change to src/ can break the benchmark
while every other test here passes.  These tests run the benchmark's
own set-up for each workload (its inputs, and its warm-up jobs through
the runner and the oracles), then the arc_census warm-up once more under
the tracer.  They read perfbench/ and change nothing there;
perfbench/test_perfbench.py is the benchmark's own suite.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from lensknots import fatgraph, surgery  # noqa: E402


@pytest.mark.parametrize("workload", workloads.GENERATORS)
def test_set_up_passes_the_warmup_jobs(workload):
    passes, _ = bench.set_up(workload, seed=1, trace=True)  # exits on a failed job
    assert passes[0]


def test_tracer_installs_runs_and_restores():
    smith = surgery.smith_normal_form
    methods = {name: vars(fatgraph.ArcSystemConfig)[name]
               for _, _, name in tracer.COUNTED_METHODS}
    trace = tracer.Tracer()
    try:
        trace.install()
        runner = workloads.Runner()
        for job in workloads.warmup_jobs("arc_census"):
            assert runner.execute(job)[2] is None, job
    finally:
        trace.uninstall()
    assert trace.totals()["fatgraph.faces.calls"] >= 1
    assert surgery.smith_normal_form is smith
    assert {name: vars(fatgraph.ArcSystemConfig)[name] for name in methods} == methods
