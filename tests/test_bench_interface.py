"""The benchmark drives the program through `bench/workloads.py` and, in its
traced mode, `bench/tracer.py`; one repeat of each training workload must
still run and give the records it gave before, and a traced run must still
find the program's phase markers, so that a change to the training state,
the sampler or the names the tracer wraps that would break the benchmark
fails here first.  One oracle case (a 100x4 deterministic MDP, k = 2) must
pass the benchmark's exact identities at its tolerances."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"

# Repeat.digest() of one repeat at workload seed 0, as `bench/run.py --seed 0`
# reports it, at OpenBLAS's default thread count on a 2-core machine;
# captured for gridworld_naive when the policy step became one dense solve of
# the damped Fisher, and for gridworld and the pendulum when the inner value
# fit took its closed form (one eigendecomposition of the quadratic).
SEED0_DIGESTS = {
    "gridworld": "27078cc22e8e3bde843d4cf46e120020f96086efdbfe3b40dccf15a8d07e4ba5",
    "gridworld_naive": "b7236744c5088b26eebf1d94569de727dc0ad60079453167c2cd45bce669cd16",
    "pendulum": "279b4a7cecf9a5f19505bf6d63049316b1a50c3afa4c0ae4b1b891430b5a8356",
}

# The tracer's phase markers: without them a traced run books the whole
# iteration as driver.self.
PHASE_MARKERS = (
    "optim.fit_value",
    "estimators.grad_pi_estimate",
    "optim.fisher_estimate",
    "optim.natural_gradient_step",
)


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.mark.parametrize("name", sorted(SEED0_DIGESTS))
def test_training_workload_repeat_digest(workloads, name):
    repeats = workloads.run(workloads.WORKLOADS[name], 0, 0.0)
    assert len(repeats) == 1
    rep = repeats[0]
    assert rep.failures == []
    assert rep.attempted == len(rep.records) == len(rep.steps)
    assert rep.digest() == SEED0_DIGESTS[name]


@pytest.mark.parametrize("name", ["gridworld", "pendulum"])
def test_traced_workload_splits_phases(workloads, name):
    tracing, check_tolerance = _load("tracer"), _load("run").CHECK_TOLERANCE
    tracer = tracing.Tracer()
    repeats = workloads.run(workloads.WORKLOADS[name], 0, 0.0, tracer)
    assert [f for rep in repeats for f in rep.failures] == []
    assert tracer.counts["estimators.sample.steps"] > 0
    assert all(tracer.phase_s[phase] > 0 for phase in tracing.PHASES)
    # the phases and driver.self against the traced iterations' own wall time
    wall = sum(rec.wall_time for rep in repeats for rec, traced in zip(rep.records, rep.traced) if traced)
    assert abs(sum(tracer.phase_s.values()) - wall) <= check_tolerance * wall
    assert not tracer.missing & set(PHASE_MARKERS)


def test_oracle_case_identities(workloads, tmp_path):
    result = workloads.oracle_case(0, 0, str(tmp_path / "mdp.json"))
    assert result["oracle_check_exit"] == 0
    assert set(result["errors"]) == set(workloads.TOLERANCES)
    for name, err in result["errors"].items():
        assert err <= workloads.TOLERANCES[name], name
