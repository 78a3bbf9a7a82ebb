"""The pfaffkit names that the benchmark under bench/ reads.

The benchmark's workloads build their inputs and items through pfaffkit's
module attributes, and its tracer wraps pfaffkit functions by name.  A
renamed or deleted name would only fail when the benchmark runs; here it
fails in the test suite, and so does an item whose check fails at seed 0.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _bench_module("workloads")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_inputs_and_items_build(workload):
    inputs = workloads.make_inputs(workload, 0)
    assert len(workloads.input_digest(inputs)) == 64
    items = workloads.items(workload, inputs)
    ids = [item_id for item_id, _ in items]
    assert items and len(set(ids)) == len(ids)
    assert all(callable(check) for _, check in items)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_items_pass(workload):
    # in order, as the benchmark runs them: later items may reuse values
    # that earlier ones built
    for item_id, check in workloads.items(workload, workloads.make_inputs(workload, 0)):
        passed, _ = check()
        assert passed, item_id


def test_tracer_targets_resolve():
    tracer = _bench_module("tracer").Tracer()
    try:
        tracer.install()  # raises if a target name is gone
        wrapped = {key for _, key, _ in tracer._restore}
        assert {"pfaffian", "nc_pfaffian", "nc_minor_summation_rhs", "build_forms",
                "pfaffian_definitional", "nc_pfaffian_unrestricted", "det_leibniz",
                "minor_summation_rhs", "pfaffian_of_anti_alternating"} <= wrapped
    finally:
        tracer.uninstall()
