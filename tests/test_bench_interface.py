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
# captured for all three when each batch's variates came to be drawn from one
# seed sequence (env.draw_variates), which moved every trajectory.
SEED0_DIGESTS = {
    "gridworld": "fdfed5ca7f1ba3b71795bd36a5751e9af2c98f78897d509a65e957c37d68f549",
    "gridworld_naive": "61be6e09694f725a821d44a32f5fa44b7ff2b7605ae299161c7adaeab1cb4e8a",
    "pendulum": "ba79b5971c3edf13a04e41857214451107dffe09464f69a28ac4e50615579366",
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
