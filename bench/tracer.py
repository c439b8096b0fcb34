"""Outside-in tracer for the benchmark's traced run.

Nothing in `dualac` changes.  `Tracer.install()` replaces each target
callable, in every loaded `dualac` module that holds it (or on its class,
for methods), with a wrapper that records a span; `uninstall()` puts the
originals back, so untraced ops run at full speed.

Spans nest on one stack because the benchmark is single-threaded.  A span's
self time is its duration minus the time its direct child spans cover.
Spans are aggregated in memory per (parent, name) edge instead of being
kept one by one: the pendulum makes about 50k feature-map calls per
iteration.
"""

from __future__ import annotations

import functools
import importlib
import logging
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Wrapped callables as "<module>.<attribute path>"; the module is the layer.
TARGETS = (
    "driver.dual_ac_iteration",
    "optim.fit_value",
    "optim.fisher_estimate",
    "optim.cg_solve",
    "optim.natural_gradient_step",
    "optim.exact_prox_pi",
    "optim.FisherOperator.__call__",
    "estimators.sample_trajectories",
    "estimators.grad_v_estimate",
    "estimators.grad_pi_estimate",
    "estimators.traj_deltas",
    "estimators.delta_means_by_start",
    "estimators.alpha_closed_form",
    "estimators.exact_grad_v",
    "estimators.exact_grad_pi",
    "policies.RbfFeatureMap.__call__",
    "policies.GaussianRbfPolicy.sample",
    "policies.GaussianRbfPolicy.log_prob_and_grad",
    "policies.GaussianRbfPolicy.score_batch",
    "policies.GaussianRbfPolicy.kl",
    "policies.TabularSoftmaxPolicy.sample",
    "policies.TabularSoftmaxPolicy.log_prob_and_grad",
    "policies.TabularSoftmaxPolicy.score_batch",
    "policies.TabularSoftmaxPolicy.kl",
    "policies.LinearValue.eval_and_grad",
    "policies.TabularValue.eval_and_grad",
    "envs.TabularEnv.step_state",
    "envs.PendulumEnv.step_state",
    "mdp.random_mdp",
    "mdp.save_mdp",
    "mdp.load_mdp",
    "mdp.value_iteration",
    "mdp.discounted_state_occupancy",
    "mdp.policy_value",
    "lagrangian.multi_step_lagrangian",
    "lagrangian.expected_delta_dp",
    "lagrangian.path_reg_value_gradient",
    "lagrangian.inner_min_v_exact",
    "cli.main",
)
# Generators are counted, not timed: their work runs inside the caller's span.
PATH_GENERATOR = "lagrangian.iter_paths"
ITERATION = "driver.dual_ac_iteration"
LAYERS = ("driver", "optim", "estimators", "policies", "envs", "mdp", "lagrangian", "cli", "bench")

# The driver's phases, cut where the program's own phase markers sit: sample
# runs until the inner fit starts, alpha from the end of the fit to the start
# of the policy gradient (it includes the stepsize decay), update_pi until the
# last prox/KL call returns.  The rest of the iteration is driver.self.
UPDATE_CALLS = frozenset(
    {
        "optim.fisher_estimate",
        "optim.natural_gradient_step",
        "optim.exact_prox_pi",
        "policies.GaussianRbfPolicy.kl",
        "policies.TabularSoftmaxPolicy.kl",
    }
)
PHASES = ("sample", "fit_v", "alpha", "grad_pi", "update_pi")


def _rows(args, out) -> int:
    x = args[1]
    return 1 if getattr(x, "ndim", 1) == 1 else len(x)


# span name -> (counter, function of (args, result) giving the amount)
COUNTERS = {
    "estimators.sample_trajectories": ("estimators.sample.steps", lambda a, out: sum(t.n_steps for t in out)),
    "policies.RbfFeatureMap.__call__": ("policies.features.rows", _rows),
    "optim.fisher_estimate": ("optim.fisher.rows", lambda a, out: len(out.scores)),
}


class FallbackCounter(logging.Handler):
    """Counts the natural-gradient normalization fallbacks `optim` logs."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith("gradient norm"):
            self.count += 1


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # span -> [calls, total s, self s]
        self.edges = defaultdict(lambda: [0, 0.0])  # (parent, span) -> [calls, total s]
        self.counts = defaultdict(float)
        self.phase_s = dict.fromkeys(PHASES + ("self",), 0.0)
        self.missing: set[str] = set()  # targets this version of dualac lacks
        self._stack: list = []
        self._patches: list | None = None  # (owner, attribute, original, wrapper)

    # -- installing -------------------------------------------------------

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self):
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig, _ in self._patches or ():
            setattr(owner, attr, orig)

    def _plan(self) -> list:
        """Where each target lives: on its class for a method, else under
        every name any loaded dualac module binds it to."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("dualac.") and m is not None]
        patches = []
        for target in TARGETS + (PATH_GENERATOR,):
            module, *path = target.split(".")
            owner = importlib.import_module(f"dualac.{module}")
            if len(path) == 2:
                owner = getattr(owner, path[0], None)
            orig = None if owner is None else vars(owner).get(path[-1])
            if orig is None:
                self.missing.add(target)
                continue
            wrapper = self._count_paths(orig) if target == PATH_GENERATOR else self._wrap(target, orig)
            if isinstance(owner, type):
                patches.append((owner, path[-1], orig, wrapper))
                continue
            for mod in modules:
                patches += [(mod, name, orig, wrapper) for name, value in vars(mod).items() if value is orig]
        return patches

    # -- spans ------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (the oracle case)."""
        frame = [name, 0.0, None]
        parent = self._stack[-1] if self._stack else None
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, parent, t0, time.perf_counter())

    def _close(self, frame, parent, t0, t1):
        self._stack.pop()
        name, child_s, marks = frame
        dt = t1 - t0
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += dt
        stat[2] += dt - child_s
        edge = self.edges[(parent[0] if parent else None, name)]
        edge[0] += 1
        edge[1] += dt
        if parent is not None:
            parent[1] += dt
            if parent[2] is not None:
                parent[2].append((name, t0, t1))
        if marks is not None:
            self._split_phases(t0, t1, marks)

    def _wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter
        close = self._close
        counter = COUNTERS.get(name)
        counts = self.counts
        is_iteration = name == ITERATION

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, [] if is_iteration else None]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                close(frame, parent, t0, clock())
            if counter is not None:
                counts[counter[0]] += counter[1](args, out)
            return out

        return traced

    def _count_paths(self, fn):
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            caller = stack[-1][0].split(".")[0] if stack else "bench"
            key = "estimators.exact.paths" if caller == "estimators" else f"{caller}.paths"
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return counted

    def _split_phases(self, t0, t1, marks):
        fit = next(((a, b) for n, a, b in marks if n == "optim.fit_value"), None)
        grad = next(((a, b) for n, a, b in marks if n == "estimators.grad_pi_estimate"), None)
        update_ends = [b for n, a, b in marks if n in UPDATE_CALLS]
        if fit is None or grad is None or not update_ends:  # markers renamed: all of it is self
            self.phase_s["self"] += t1 - t0
            return
        cuts = (t0, fit[0], fit[1], grad[0], grad[1], max(update_ends))
        for phase, a, b in zip(PHASES, cuts, cuts[1:]):
            self.phase_s[phase] += b - a
        self.phase_s["self"] += t1 - cuts[-1]

    # -- reading ----------------------------------------------------------

    def total_s(self, *names) -> float:
        return sum(self.stats[n][1] for n in names if n in self.stats)

    def calls(self, *names) -> int:
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def layer_self_s(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".")[0]] += self_s
        return out

    def tree(self) -> list:
        """Aggregated call edges, heaviest first, for the result file."""
        rows = [
            {"parent": p, "span": n, "calls": c, "total_ms": round(1e3 * s, 3)}
            for (p, n), (c, s) in self.edges.items()
        ]
        return sorted(rows, key=lambda r: -r["total_ms"])
