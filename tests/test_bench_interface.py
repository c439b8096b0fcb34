"""The benchmark drives the program through `bench/workloads.py`; one repeat
of each training workload must still run and give the records it gave
before, so that a change to the training state or the sampler that would
break the benchmark fails here first."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

# Repeat.digest() of one repeat at workload seed 0, as `bench/run.py --seed 0`
# reports it.
SEED0_DIGESTS = {
    "gridworld": "48aef55baa8d1c4a087a168b63503cb2aa1dc67a80f8de7b8e6047fe33234c98",
    "gridworld_naive": "5c545291946b368c292254973c68831e371e35fa3cb9b8d6e6522bd905bb4169",
    "pendulum": "be27d585b95345372383eb1d93c288b5a0ef742f1845f3cd11884e150ee1b8e2",
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(SEED0_DIGESTS))
def test_training_workload_repeat_digest(workloads, name):
    repeats = workloads.run(workloads.WORKLOADS[name], 0, 0.0)
    assert len(repeats) == 1
    rep = repeats[0]
    assert rep.failures == []
    assert rep.attempted == len(rep.records) == len(rep.steps)
    assert rep.digest() == SEED0_DIGESTS[name]
