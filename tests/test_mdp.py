import functools
import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualac import mdp as mdp_module
from dualac.mdp import (
    TabularMdp,
    bellman_optimality_operator,
    discounted_state_occupancy,
    duality_gap,
    greedy_policy,
    load_mdp,
    occupancy_flow_residual,
    occupancy_from_policy,
    policy_from_occupancy,
    policy_value,
    q_values,
    random_mdp,
    save_mdp,
    value_iteration,
)
from dualac.envs import make_env
from conftest import enumerate_policy_values, make_single_state_mdp
from reference_mdp import k_step_bellman, lambda_bellman


# ---------------------------------------------------------------------------
# A hand-built MDP


def make_grid2_mdp(gamma=0.9):
    """2x2 gridworld, absorbing goal at cell 3, reward 1 on entering the goal."""
    # cells: 0 1 / 2 3; actions: right, down, left, up (deterministic, walls block)
    moves = {0: (1, 0), 1: (0, 1), 2: (-1, 0), 3: (0, -1)}
    S, A = 4, 4
    P = np.zeros((S, A, S))
    R = np.zeros((S, A))
    for s in range(S):
        x, y = s % 2, s // 2
        for a, (dx, dy) in moves.items():
            if s == 3:
                P[s, a, s] = 1.0
                continue
            nx, ny = min(max(x + dx, 0), 1), min(max(y + dy, 0), 1)
            ns = ny * 2 + nx
            P[s, a, ns] = 1.0
            if ns == 3:
                R[s, a] = 1.0
    mu = np.array([1.0, 0.0, 0.0, 0.0])
    return TabularMdp(transition=P, reward=R, gamma=gamma, mu=mu)


# ---------------------------------------------------------------------------
# Operator examples


def test_bellman_operator_fixed_point(single_state_mdp):
    out = bellman_optimality_operator(single_state_mdp, np.array([10.0]))
    assert np.allclose(out, [10.0])


def test_bellman_operator_one_step_reward(single_state_mdp):
    out = bellman_optimality_operator(single_state_mdp, np.array([0.0]))
    assert np.allclose(out, [1.0])


def test_bellman_operator_zero_value_is_reward_max(chain2_mdp):
    out = bellman_optimality_operator(chain2_mdp, np.zeros(2))
    brute = np.array([max(chain2_mdp.reward[s]) for s in range(2)])
    assert np.allclose(out, brute)


def test_bellman_operator_dimension_mismatch(chain2_mdp):
    with pytest.raises(ValueError):
        bellman_optimality_operator(chain2_mdp, np.zeros(3))


def test_k_step_zero_equals_one_step(chain2_mdp):
    v = np.array([0.3, -1.2])
    assert np.allclose(k_step_bellman(chain2_mdp, v, 0), bellman_optimality_operator(chain2_mdp, v))


def test_k_step_fixed_point(single_state_mdp):
    assert np.allclose(k_step_bellman(single_state_mdp, np.array([10.0]), 5), [10.0])


def test_k_step_matches_open_loop_sequences_on_deterministic_mdp():
    # On a deterministic MDP closed-loop and open-loop maxima coincide, so a
    # plain max over action tuples is a second independent oracle there.
    rng = np.random.default_rng(11)
    mdp = random_mdp(3, 2, 0.8, rng, deterministic=True)
    k, v = 2, rng.normal(size=3)
    best = np.full(3, -np.inf)
    for seq in itertools.product(range(2), repeat=k + 1):
        val = np.zeros(3)
        cur = np.arange(3)
        for i, a in enumerate(seq):
            val += mdp.gamma**i * mdp.reward[cur, a]
            cur = np.array([np.argmax(mdp.transition[s, a]) for s in cur])
        val += mdp.gamma ** (k + 1) * v[cur]
        best = np.maximum(best, val)
    assert np.allclose(k_step_bellman(mdp, v, k), best, atol=1e-10)


def test_lambda_zero_is_one_step(chain2_mdp):
    v = np.array([1.0, -2.0])
    assert np.allclose(lambda_bellman(chain2_mdp, v, 0.0, 5), k_step_bellman(chain2_mdp, v, 0))


def test_lambda_fixed_point(single_state_mdp):
    for lam in (0.2, 0.7):
        assert np.allclose(lambda_bellman(single_state_mdp, np.array([10.0]), lam, 60), [10.0])


def test_lambda_matches_direct_summation(chain2_mdp):
    lam, k_max = 0.5, 40
    v = np.zeros(2)
    terms = [k_step_bellman(chain2_mdp, v, k) for k in range(k_max + 1)]
    want = np.zeros(2)
    for k in range(k_max + 1):
        w = lam**k_max if k == k_max else (1 - lam) * lam**k
        want += w * terms[k]
    assert np.allclose(lambda_bellman(chain2_mdp, v, lam, k_max), want, atol=1e-12)


def test_lambda_rejects_bad_lambda(chain2_mdp):
    with pytest.raises(ValueError):
        lambda_bellman(chain2_mdp, np.zeros(2), 1.0, 10)
    with pytest.raises(ValueError):
        lambda_bellman(chain2_mdp, np.zeros(2), -0.1, 10)


# ---------------------------------------------------------------------------
# Value iteration and the greedy readout


def test_value_iteration_geometric_series(single_state_mdp):
    assert np.allclose(value_iteration(single_state_mdp, tol=1e-12), [10.0], atol=1e-10)


def test_value_iteration_chain_hand_solution(chain2_mdp):
    assert np.allclose(value_iteration(chain2_mdp, tol=1e-12), [1.0, 2.0], atol=1e-10)


def test_value_iteration_matches_policy_enumeration_grid():
    mdp = make_grid2_mdp()
    v_star = value_iteration(mdp, tol=1e-12)
    assert np.allclose(v_star, enumerate_policy_values(mdp), atol=1e-9)


def _value_iteration_by_backups(mdp, tol, start=None):
    """Sweeps of the one-step backup, which lays out gamma * P anew every
    time, from start (zero by default) until two iterates differ by at most
    tol.  Returns the last iterate and the number of sweeps."""
    v = np.zeros(mdp.n_states) if start is None else start
    sweeps = 0
    while True:
        v_next, sweeps = bellman_optimality_operator(mdp, v), sweeps + 1
        if np.max(np.abs(v_next - v)) <= tol:
            return v_next, sweeps
        v = v_next


def _check_value_iteration_contract(mdp, tol, swept, sweeps):
    """value_iteration's certificate, its distance from swept (the result of
    sweeping from zero) and the exactness of its greedy policy's value.  It
    must need no more sweeps than sweeping from zero took."""
    v = value_iteration(mdp, tol=tol, max_iters=sweeps)
    assert np.max(np.abs(bellman_optimality_operator(mdp, v) - v)) <= tol
    assert np.max(np.abs(v - swept)) <= mdp.gamma * tol / (1.0 - mdp.gamma)
    exact = policy_value(mdp, greedy_policy(mdp, v))
    assert np.max(np.abs(v - exact)) <= 1e-10 * max(1.0, np.max(np.abs(v)))


# Random MDPs drawn with rng 23.  On the dense 64x2, 13x9 and 257x3 shapes
# the action-major product rounds differently from the stacked (S, A, S) @ v.
RANDOM_SHAPES = {
    "dense": (6, 3),
    "deterministic_100x4": (100, 4),
    "dense_64x2": (64, 2),
    "dense_13x9": (13, 9),
    "dense_257x3": (257, 3),
}


def _case_mdp(case):
    if case in ("chain5", "gridworld"):
        return make_env(case).as_tabular()
    return random_mdp(*RANDOM_SHAPES[case], 0.99, np.random.default_rng(23), deterministic=case.startswith("det"))


@functools.cache
def _case_sweep(case, tol):
    return _value_iteration_by_backups(_case_mdp(case), tol)


@pytest.mark.parametrize("case", ["chain5", "gridworld", *RANDOM_SHAPES])
def test_value_iteration_bitwise_per_sweep_backups(case):
    # after the policy-iteration start, the sweeps are the one-step backup's
    mdp = _case_mdp(case)
    start = mdp_module._policy_iteration(*mdp_module._action_major(mdp))
    for tol in (1e-6, 1e-10):
        assert np.array_equal(value_iteration(mdp, tol=tol), _value_iteration_by_backups(mdp, tol, start)[0])


@pytest.mark.parametrize("case", ["chain5", "gridworld", *RANDOM_SHAPES])
def test_value_iteration_contract(case):
    mdp = _case_mdp(case)
    for tol in (1e-6, 1e-10):
        _check_value_iteration_contract(mdp, tol, *_case_sweep(case, tol))


@st.composite
def oracle_mdps(draw):
    """Random MDPs, dense or deterministic, whose actions are drawn with
    replacement from a base MDP's: a repeated action is an exact tie."""
    n_states, n_actions = draw(st.integers(1, 60)), draw(st.integers(1, 6))
    gamma = draw(st.floats(0.0, 0.999, exclude_min=True))
    base = random_mdp(n_states, n_actions, gamma, np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                      deterministic=draw(st.booleans()))
    actions = draw(st.lists(st.integers(0, n_actions - 1), min_size=n_actions, max_size=n_actions))
    return TabularMdp(base.transition[:, actions], base.reward[:, actions], gamma, base.mu)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(oracle_mdps(), st.sampled_from([1e-6, 1e-10]))
def test_value_iteration_contract_on_random_mdps(mdp, tol):
    _check_value_iteration_contract(mdp, tol, *_value_iteration_by_backups(mdp, tol))


_THREAD_PROBE = """
import numpy as np
from dualac.envs import make_env
from dualac.mdp import random_mdp, value_iteration
mdps = [make_env("chain5").as_tabular(), make_env("gridworld").as_tabular()]
mdps += [random_mdp(100, 4, 0.99, np.random.default_rng(23), deterministic=det) for det in (True, False)]
for mdp in mdps:
    print(value_iteration(mdp, tol=1e-10).tobytes().hex())
"""


def test_value_iteration_bytes_do_not_depend_on_blas_threads():
    src = os.path.dirname(os.path.dirname(mdp_module.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", _THREAD_PROBE], capture_output=True, text=True, env=env, timeout=120, check=True)
        outputs.append(run.stdout)
    assert len(outputs[0].split()) == 4
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("case", ["chain5", "gridworld", *RANDOM_SHAPES])
def test_q_values_match_stacked_product(case):
    # reference: the stacked (S, A, S) @ v product, at a near-fixed point and
    # at a random v.  The near-fixed point is the sweep from zero, the input
    # this bound was set on; at value_iteration's exact V*, dense_257x3's two
    # sums lie 6 ulps of max|Q| apart, past the bound's 5.2.
    mdp = _case_mdp(case)
    for v in (_case_sweep(case, 1e-10)[0], np.random.default_rng(29).normal(size=mdp.n_states)):
        stacked = mdp.reward + mdp.gamma * mdp.transition @ v
        q = q_values(mdp, v)
        assert q.shape == (mdp.n_states, mdp.n_actions)
        if case.startswith("dense"):
            # the same terms summed in another order: a few ulps of max|Q|
            assert np.max(np.abs(q - stacked)) <= 1e-15 * np.max(np.abs(stacked))
        else:  # one nonzero term per sum, so both products are exact
            assert np.array_equal(q, stacked)


def test_random_deterministic_mdp_draws_unchanged():
    # one target per (s, a), drawn in one call; the rest of the draws follow it
    rng, ref = np.random.default_rng(29), np.random.default_rng(29)
    mdp = random_mdp(7, 3, 0.9, rng, deterministic=True)
    targets = ref.integers(0, 7, size=(7, 3))
    P = np.zeros((7, 3, 7))
    for s in range(7):
        for a in range(3):
            P[s, a, targets[s, a]] = 1.0
    assert np.array_equal(mdp.transition, P)
    assert np.array_equal(mdp.reward, ref.uniform(0.0, 1.0, size=(7, 3)))
    assert np.array_equal(mdp.mu, ref.dirichlet(np.ones(7)))
    assert rng.random() == ref.random()


def test_greedy_single_action():
    mdp = make_single_state_mdp(n_actions=1)
    assert np.allclose(greedy_policy(mdp, np.array([0.0])), [[1.0]])


def test_greedy_chain_optimal(chain2_mdp):
    pi = greedy_policy(chain2_mdp, value_iteration(chain2_mdp, tol=1e-12))
    assert pi[0, 1] == 1.0  # moves to the rewarding state
    assert pi[1, 0] == 1.0  # stays (tie broken toward action 0)


def test_greedy_tie_breaks_low_index():
    mdp = make_single_state_mdp(n_actions=2)  # both actions identical
    pi = greedy_policy(mdp, np.array([3.0]))
    assert np.allclose(pi, [[1.0, 0.0]])


# ---------------------------------------------------------------------------
# Occupancy measures and duality


def test_occupancy_single_state(single_state_mdp):
    alpha = discounted_state_occupancy(single_state_mdp, np.array([[1.0]]))
    assert np.allclose(alpha, [1.0])


def test_occupancy_chain_hand_solution(chain2_mdp):
    go_then_stay = np.array([[0.0, 1.0], [1.0, 0.0]])
    alpha = discounted_state_occupancy(chain2_mdp, go_then_stay)
    assert np.allclose(alpha, [0.5, 0.5], atol=1e-12)


def test_occupancy_uniform_on_symmetric_mdp():
    # 3-state ring where every action moves uniformly: stationary = uniform.
    P = np.full((3, 2, 3), 1.0 / 3.0)
    mdp = TabularMdp(P, np.zeros((3, 2)), 0.9, np.full(3, 1.0 / 3.0))
    pi = np.full((3, 2), 0.5)
    assert np.allclose(discounted_state_occupancy(mdp, pi), np.full(3, 1.0 / 3.0), atol=1e-12)


def test_occupancy_from_policy_single(single_state_mdp):
    rho = occupancy_from_policy(single_state_mdp, np.array([[1.0]]))
    assert np.allclose(rho, [[1.0]])


def test_occupancy_satisfies_flow_constraints(chain2_mdp):
    pi_star = greedy_policy(chain2_mdp, value_iteration(chain2_mdp, tol=1e-12))
    rho = occupancy_from_policy(chain2_mdp, pi_star)
    assert occupancy_flow_residual(chain2_mdp, rho) < 1e-8
    assert abs(rho.sum() - 1.0) < 1e-8


def test_occupancy_sums_to_one_any_policy():
    rng = np.random.default_rng(3)
    mdp = random_mdp(6, 3, 0.95, rng)
    pi = rng.dirichlet(np.ones(3), size=6)
    assert abs(occupancy_from_policy(mdp, pi).sum() - 1.0) < 1e-8


def test_policy_from_occupancy_normalizes():
    pi = policy_from_occupancy(np.array([[0.5], [0.5]]))
    assert np.allclose(pi, [[1.0], [1.0]])


def test_policy_from_occupancy_round_trip(chain2_mdp):
    pi = np.array([[0.25, 0.75], [0.6, 0.4]])
    rho = occupancy_from_policy(chain2_mdp, pi)
    alpha = discounted_state_occupancy(chain2_mdp, pi)
    back = policy_from_occupancy(rho)
    for s in range(2):
        if alpha[s] > 0:
            assert np.allclose(back[s], pi[s], atol=1e-10)


def test_policy_from_occupancy_zero_row_uniform():
    pi = policy_from_occupancy(np.array([[0.7, 0.3], [0.0, 0.0]]))
    assert np.allclose(pi[1], [0.5, 0.5])


def test_policy_from_occupancy_bitwise_row_by_row():
    rng = np.random.default_rng(31)
    rho = rng.dirichlet(np.ones(4), size=6) * rng.random((6, 1))
    rho[[1, 4]] = 0.0
    rho[2] = 1e-13
    want = np.array([np.full(4, 0.25) if row.sum() < 1e-12 else row / row.sum() for row in rho])
    assert np.array_equal(policy_from_occupancy(rho), want)


def test_policy_from_occupancy_rejects_negative():
    with pytest.raises(ValueError):
        policy_from_occupancy(np.array([[0.5, -0.1]]))


def test_duality_gap_single_state(single_state_mdp):
    v_star = value_iteration(single_state_mdp, tol=1e-12)
    rho = occupancy_from_policy(single_state_mdp, greedy_policy(single_state_mdp, v_star))
    assert abs(duality_gap(single_state_mdp, v_star, rho)) < 1e-10


def test_duality_gap_constant_shift(chain2_mdp):
    v_star = value_iteration(chain2_mdp, tol=1e-12)
    rho = occupancy_from_policy(chain2_mdp, greedy_policy(chain2_mdp, v_star))
    base = duality_gap(chain2_mdp, v_star, rho)
    shifted = duality_gap(chain2_mdp, v_star + 3.0, rho)
    assert abs(shifted - base - (1 - chain2_mdp.gamma) * 3.0) < 1e-12


# ---------------------------------------------------------------------------
# Construction and I/O


def test_invalid_mdp_rejected():
    P = np.ones((1, 1, 1))
    with pytest.raises(ValueError):
        TabularMdp(P * 0.5, np.zeros((1, 1)), 0.9, np.array([1.0]))  # rows don't sum to 1
    with pytest.raises(ValueError):
        TabularMdp(P, np.zeros((1, 1)), 1.0, np.array([1.0]))  # gamma not in (0,1)
    with pytest.raises(ValueError):
        TabularMdp(P, np.zeros((1, 1)), 0.9, np.array([0.5]))  # mu not normalized
    for bad in (np.nan, np.inf):  # NaN also slips past every comparison above
        with pytest.raises(ValueError, match="must be finite"):
            TabularMdp(np.full((1, 1, 1), bad), np.zeros((1, 1)), 0.9, np.array([1.0]))
        with pytest.raises(ValueError, match="must be finite"):
            TabularMdp(P, np.full((1, 1), bad), 0.9, np.array([1.0]))
        with pytest.raises(ValueError, match="must be finite"):
            TabularMdp(P, np.zeros((1, 1)), 0.9, np.array([bad]))


def test_mdp_text_round_trip(tmp_path, chain2_mdp):
    path = tmp_path / "chain2.json"
    save_mdp(chain2_mdp, str(path))
    back = load_mdp(str(path))
    assert np.array_equal(back.transition, chain2_mdp.transition)
    assert np.array_equal(back.reward, chain2_mdp.reward)
    assert back.gamma == chain2_mdp.gamma
    assert np.array_equal(back.mu, chain2_mdp.mu)


def _json_dump_reference(mdp, path):
    """The writer save_mdp replaced: json.dump of the whole payload."""
    payload = {
        "n_states": mdp.n_states,
        "n_actions": mdp.n_actions,
        "gamma": mdp.gamma,
        "reward": mdp.reward.tolist(),
        "transition": mdp.transition.tolist(),
        "mu": mdp.mu.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


SUBNORMALS = (5e-324, 1e-320, 2.2250738585072009e-308)


@st.composite
def transition_rows(draw, n_states):
    """One row of P that sums to 1: its support is the first or the last
    entry, a run (at the start, in the middle or at the end), the whole row or
    a random mask; each zero is +0.0 or -0.0, and some become subnormal."""
    kind = draw(st.sampled_from(["first", "last", "run", "dense", "mask"]))
    if kind == "run":
        start = draw(st.integers(0, n_states - 1))
        support = np.arange(start, draw(st.integers(start + 1, n_states)))
    elif kind == "mask":
        support = np.flatnonzero(draw(st.lists(st.booleans(), min_size=n_states, max_size=n_states)))
        support = support if len(support) else np.array([draw(st.integers(0, n_states - 1))])
    else:
        support = {"first": np.array([0]), "last": np.array([n_states - 1]), "dense": np.arange(n_states)}[kind]
    signs = draw(st.lists(st.booleans(), min_size=n_states, max_size=n_states))
    row = np.where(signs, -0.0, 0.0)
    weights = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=len(support), max_size=len(support))))
    row[support] = weights / weights.sum()
    zeros = np.setdiff1d(np.arange(n_states), support)
    if len(zeros):
        tiny = draw(st.lists(st.sampled_from(zeros.tolist()), max_size=len(zeros), unique=True))
        row[tiny] = [draw(st.sampled_from(SUBNORMALS)) for _ in tiny]
    return row


@st.composite
def mdps_to_save(draw):
    n_states, n_actions = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    gamma = draw(st.floats(1e-6, 1.0, exclude_max=True))
    base = random_mdp(n_states, n_actions, gamma, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    transition = np.array([draw(transition_rows(n_states)) for _ in range(n_states * n_actions)])
    values = st.one_of(
        st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e300, -1e300, 1.7976931348623157e308])
    )
    reward = np.array(draw(st.lists(values, min_size=n_states * n_actions, max_size=n_states * n_actions)))
    return TabularMdp(
        transition.reshape(n_states, n_actions, n_states), reward.reshape(n_states, n_actions), base.gamma, base.mu
    )


def _assert_saved_as_json_dump(folder, mdp):
    _json_dump_reference(mdp, str(folder / "reference.json"))
    save_mdp(mdp, str(folder / "saved.json"))
    assert (folder / "saved.json").read_bytes() == (folder / "reference.json").read_bytes()
    back = load_mdp(str(folder / "saved.json"))
    for name in ("transition", "reward", "mu"):
        assert getattr(back, name).tobytes() == getattr(mdp, name).tobytes()
    assert back.gamma == mdp.gamma


@settings(max_examples=80, deadline=None)
@given(mdps_to_save())
def test_save_mdp_writes_json_dump_bytes(tmp_path_factory, mdp):
    _assert_saved_as_json_dump(tmp_path_factory.mktemp("mdp"), mdp)


SAVED_MDPS = {
    "chain5": lambda: make_env("chain5").as_tabular(),
    "gridworld": lambda: make_env("gridworld").as_tabular(),
    # the oracle benchmark's cases 0-2 at seed 0
    **{
        f"oracle_case{i}": lambda i=i: random_mdp(100, 4, 0.99, np.random.default_rng([0, i]), deterministic=True)
        for i in range(3)
    },
    "dense_100x4": lambda: random_mdp(100, 4, 0.99, np.random.default_rng(1)),
}


@pytest.mark.parametrize("case", sorted(SAVED_MDPS))
def test_save_mdp_writes_json_dump_bytes_on_named_mdps(tmp_path, case):
    _assert_saved_as_json_dump(tmp_path, SAVED_MDPS[case]())


def test_transition_rows_reach_every_row_form():
    # the drawn rows hold every form the writer splices: a lone entry in the
    # first or the last column, runs at the start, middle and end, dense rows,
    # -0.0 and subnormal entries
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(transition_rows(5))
    def collect(row):
        assert row.sum() == pytest.approx(1.0, abs=1e-12) and not (row < 0).any()
        kept = np.flatnonzero((row != 0) | np.signbit(row))
        nonzero = np.flatnonzero(row)
        seen.update(
            name
            for name, hit in [
                ("first_only", nonzero.tolist() == [0]),
                ("last_only", nonzero.tolist() == [4]),
                ("dense", len(nonzero) == 5),
                ("run_start", 0 < len(kept) < 5 and kept[0] == 0 and (np.diff(kept) == 1).all()),
                ("run_end", 0 < len(kept) < 5 and kept[-1] == 4 and (np.diff(kept) == 1).all()),
                ("run_middle", len(kept) and kept[0] > 0 and kept[-1] < 4 and (np.diff(kept) == 1).all()),
                ("negative_zero", (np.signbit(row) & (row == 0)).any()),
                ("subnormal", ((row > 0) & (row < np.finfo(float).tiny)).any()),
            ]
            if hit
        )

    collect()
    assert seen == {
        "first_only", "last_only", "dense", "run_start", "run_end", "run_middle", "negative_zero", "subnormal"
    }
