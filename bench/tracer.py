"""Outside-in span tracer for the hplb benchmark.

The tracer never edits the package.  It replaces a public function with a
timing wrapper at the module where its caller looks the name up, so that
`band_constant` is wrapped as `hplb.bounding.band_constant` (the name
`bounding._band_for` calls) and `is_violated` as `hplb.estimators.is_violated`.
Each span records its name, start, end, parent span and thread id.  A
thread-local stack supplies the parent, so self times stay correct when the
`experiments` thread pool runs tasks concurrently.  Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

# One row per wrapped call site: (module, attribute, span name).  The span
# name is the layer that defines the function, the attribute path is where
# the caller looks it up.  Method rows wrap the class attribute.
CALL_SITES = (
    ("hplb.cli", "main", "cli.main"),
    ("hplb.io", "parse_two_sample", "io.parse_two_sample"),
    ("hplb.io", "parse_ordered", "io.parse_ordered"),
    ("hplb.io", "parse_multiclass", "io.parse_multiclass"),
    ("hplb.io", "emit_result", "io.emit_result"),
    ("hplb.io", "emit_scan", "io.emit_scan"),
    ("hplb.io", "emit_pairwise", "io.emit_pairwise"),
    ("hplb.io", "emit_powergrid", "io.emit_powergrid"),
    ("hplb.cli", "lambda_adapt", "estimators.lambda_adapt"),
    ("hplb.cli", "split_scan", "experiments.split_scan"),
    ("hplb.cli", "pairwise_matrix", "experiments.pairwise_matrix"),
    ("hplb.cli", "run_level_study", "experiments.run_level_study"),
    ("hplb.cli", "run_power_grid", "experiments.run_power_grid"),
    ("hplb.experiments", "lambda_adapt", "estimators.lambda_adapt"),
    ("hplb.experiments", "gen_example", "experiments.gen_example"),
    ("hplb.experiments", "bayes_projection", "mixtures.bayes_projection"),
    ("hplb.mixtures", "Mixture.sample", "mixtures.sample"),
    ("hplb.mixtures", "PiecewiseUniform.sample", "mixtures.sample"),
    ("hplb.estimators", "build_counting_path", "counting.build_counting_path"),
    ("hplb.estimators", "adapt_from_path", "estimators.adapt_from_path"),
    ("hplb.estimators", "is_violated", "bounding.is_violated"),
    ("hplb.bounding", "effective_sizes", "bounding.effective_sizes"),
    ("hplb.bounding", "binom_quantile", "distributions.binom_quantile"),
    ("hplb.bounding", "band_constant", "counting.band_constant"),
    ("hplb.bounding", "band_value", "counting.band_value"),
    ("hplb.counting", "simulate_null_sup_quantile", "counting.simulate_null_sup_quantile"),
    ("hplb.counting", "beta_threshold", "counting.beta_threshold"),
)

# Span name of the pool boundary and of one pool task.  `_map_indexed` is
# private, but it is the only place where the tasks a worker runs can be seen.
MAP_SPAN = "experiments.map_indexed"
TASK_SPAN = "experiments.task"


def _band_key(args, kwargs):
    """The memo key of `band_constant(alpha, m_eff, n_eff, kind, sims, seed)`."""
    names = ("alpha", "m_eff", "n_eff", "kind", "sims", "seed")
    bound = dict(zip(names, args))
    bound.update(kwargs)
    return (round(bound["alpha"], 12), bound["m_eff"], bound["n_eff"], bound["kind"],
            bound.get("sims", 1000), bound.get("seed", 0))


def _sim_size(args, kwargs):
    """(m_eff, n_eff, sims) of `simulate_null_sup_quantile(alpha, m_eff, n_eff, sims, rng)`."""
    names = ("alpha", "m_eff", "n_eff", "sims")
    bound = dict(zip(names, args))
    bound.update(kwargs)
    return (bound["m_eff"], bound["n_eff"], bound["sims"])


# Arguments kept with a span, for the counts that need them.
NOTES = {
    "counting.band_constant": _band_key,
    "counting.simulate_null_sup_quantile": _sim_size,
}


class Tracer:
    """Collects spans from wrapped call sites while installed."""

    def __init__(self):
        self.spans = []  # (id, parent, name, thread, start, end, note)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, note_of=None):
        note_of = note_of or NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            note = note_of(args, kwargs) if note_of else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, threading.get_ident(), start, end, note))

        return traced

    def _wrap_map(self, experiments):
        """Wrap the pool boundary, and each task it runs, in spans.

        The map span keeps the number of workers the pool uses, so that
        busy time can be set against workers x wall time.
        """
        map_indexed = experiments._map_indexed

        def traced_map(fn, n_tasks):
            return map_indexed(self.wrap(TASK_SPAN, fn), n_tasks)

        def workers(args, kwargs):
            return experiments.worker_count(args[1] if len(args) > 1 else kwargs["n_tasks"])

        return self.wrap(MAP_SPAN, traced_map, workers)

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, modules):
        """Wrap every call site; `modules` maps a module name to the module."""
        for mod_name, path, span in CALL_SITES:
            owner = modules[mod_name]
            *cls, attr = path.split(".")
            for part in cls:
                owner = getattr(owner, part)
            self._patch(owner, attr, self.wrap(span, getattr(owner, attr)))
        experiments = modules["hplb.experiments"]
        self._patch(experiments, "_map_indexed", self._wrap_map(experiments))

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def clear(self):
        self.spans = []

    def write(self, path, meta):
        """Write the kept spans as JSON lines, one header line first."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta, sort_keys=True) + "\n")
            for sid, parent, name, thread, start, end, note in self.spans:
                fh.write(json.dumps([sid, parent, name, thread, start, end, note]) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the time its child spans cover.

    A child runs on its parent's thread and inside its parent's interval,
    and siblings on one thread do not overlap, so the covered time is the
    sum of the children's durations.
    """
    covered = defaultdict(float)
    for sid, parent, name, thread, start, end, note in spans:
        if parent:
            covered[parent] += end - start
    return {sid: (end - start) - covered[sid] for sid, _, _, _, start, end, _ in spans}
