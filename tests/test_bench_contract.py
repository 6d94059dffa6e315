"""The package names the benchmark harness under bench/ reaches.

`bench/tracer.py` wraps functions where their callers look them up, and
`bench/run.py` probes the estimator and clears the memos between commands.
A refactor that moves one of these names, or an estimator whose value
fails the probe's check, would break `--trace 1` or the estimate probe only
when the benchmark runs; these checks catch it in the test suite.  They
read bench/ and change nothing there.  The last check holds the package to
its public surface: a name in a module's `__all__` needs a use in src/,
demos/ or bench/, or a stated reason to stay.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *cls, attr = path.split(".")
    for part in cls:
        owner = getattr(owner, part)
    return owner, attr


def test_every_call_site_resolves(tracer):
    assert tracer.CALL_SITES
    for module_name, path, span in tracer.CALL_SITES:
        owner, attr = _resolve(module_name, path)
        # the tracer saves and restores the attribute through __dict__
        assert attr in vars(owner), f"{module_name}.{path} ({span}) is gone"
        assert callable(vars(owner)[attr])


def test_traced_arguments_keep_their_positions():
    # the tracer's span notes read these arguments by position
    from hplb import counting

    def leading(fn, k):
        return list(inspect.signature(fn).parameters)[:k]

    assert leading(counting.band_constant, 6) == ["alpha", "m_eff", "n_eff", "kind", "sims",
                                                  "seed"]
    assert leading(counting.simulate_null_sup_quantile, 4) == ["alpha", "m_eff", "n_eff", "sims"]


def test_names_the_runner_uses():
    from hplb import bounding, cli, counting, experiments

    for owner, name in [
        (cli, "lambda_adapt"),
        (cli, "main"),
        (experiments, "lambda_adapt"),
        (experiments, "_map_indexed"),
        (experiments, "worker_count"),
        (counting, "clear_band_cache"),
        (counting, "build_counting_path"),
        (bounding, "BoundSpec"),
        (bounding, "is_violated"),
    ]:
        assert callable(vars(owner).get(name)), f"{owner.__name__}.{name} is gone"
    assert experiments.worker_count(4) >= 1
    assert experiments._map_indexed(lambda i: i * i, 3) == [0, 1, 4]


def test_is_violated_returns_a_pair():
    from hplb import bounding, counting

    data = counting.LabeledScores(np.arange(8.0), np.array([0, 0, 0, 0, 1, 1, 1, 1]))
    path = counting.build_counting_path(data)
    spec = bounding.BoundSpec(alpha=0.05, band_kind="analytic")
    violated, witness = bounding.is_violated(path, 0.5, spec)
    assert isinstance(violated, bool)
    assert witness is None or isinstance(witness, int)


@pytest.mark.parametrize("kind", ["analytic", "simulated"])
def test_adaptive_value_passes_the_estimate_probe_check(kind):
    # bench/run.py's estimate probe fails an operation whenever
    # is_violated(path, value) holds for a lambda_adapt result.  The value
    # must be attained, and be the smallest double that is.
    from hplb import bounding, counting, estimators, io

    spec = bounding.BoundSpec(alpha=0.05, band_kind=kind, sims=1000, seed=0)
    samples = [io.parse_two_sample(ROOT / "data" / name)
               for name in ("two_sample_contamination.csv", "two_sample_mirrored.csv")]
    rng = np.random.default_rng(11)
    for m, n, shift in ((60, 60, 0.8), (20, 200, 1.5), (250, 25, 0.5), (100, 100, 0.0)):
        scores = np.concatenate([rng.normal(-shift, 1.0, m), rng.normal(0.0, 1.0, n)])
        samples.append(counting.LabeledScores(scores, np.repeat([0, 1], [m, n])))
    positive = 0
    for data in samples:
        value = estimators.lambda_adapt(data, spec).value
        path = counting.build_counting_path(data)
        assert not bounding.is_violated(path, value, spec)[0]
        if value > 0.0:
            positive += 1
            assert bounding.is_violated(path, np.nextafter(value, 0.0), spec)[0]
    assert positive >= 4


@pytest.mark.parametrize("kind", ["analytic", "simulated"])
def test_traced_layers_still_record_spans(tracer, kind):
    # --trace 1 reads its per-layer metrics from these spans; a fast path
    # that goes round a traced name would leave its metric reading 0
    from hplb import BoundSpec, ExampleSpec, RngStream, estimators, gen_example

    data, _ = gen_example(ExampleSpec(1 if kind == "analytic" else 2, 600, c=0.1), RngStream(5))
    names = {module for module, _, _ in tracer.CALL_SITES} | {"hplb.experiments"}
    traced = tracer.Tracer()
    traced.install({name: importlib.import_module(name) for name in names})
    try:
        result = estimators.lambda_adapt(data, BoundSpec(0.05, kind, sims=300, seed=1))
    finally:
        traced.uninstall()
    spans = [name for _, _, name, *_ in traced.spans]
    assert spans.count("bounding.is_violated") == result.diagnostics.evaluations > 0
    for name in ("counting.build_counting_path", "bounding.effective_sizes",
                 "distributions.binom_quantile"):
        assert name in spans, f"{name} records no span"


def test_traced_data_generation_records_spans(tracer):
    # the per-layer metrics of experiments and mixtures come from these
    # spans; a fast path round gen_example, bayes_projection or a sampler
    # would leave them reading 0
    from hplb import BoundSpec, ExampleSpec, RngStream, experiments

    reps = 100
    names = {module for module, _, _ in tracer.CALL_SITES} | {"hplb.experiments"}
    traced = tracer.Tracer()
    traced.install({name: importlib.import_module(name) for name in names})
    try:
        experiments.run_level_study(ExampleSpec(1, 400, c=0.1), "adapt", reps, RngStream(5),
                                    BoundSpec(0.05, "analytic"))
    finally:
        traced.uninstall()
    spans = [name for _, _, name, *_ in traced.spans]
    assert spans.count("experiments.gen_example") == reps
    assert spans.count("mixtures.bayes_projection") == 2 * reps
    assert spans.count("mixtures.sample") >= 2 * reps


# Public names that nothing in src/, demos/ or bench/ uses, each kept for a
# stated reason.  Every other public name must have a use there: the north
# star allows no library code that only tests call.
_TEST_ONLY_PUBLIC = {
    "q_bound": "the pointwise reference for is_violated; a strict xfail uses it",
    "bounding_operation": "the acceptance gate checks the bounding operation",
    "score_cdf": "the acceptance gate checks the population score CDFs",
    "accuracy_true": "the acceptance gate checks the population accuracies",
}


class _Uses(ast.NodeVisitor):
    """Names read through ast Name and Attribute nodes, except inside their own definition."""

    def __init__(self):
        self.names, self._defining = set(), []

    def _definition(self, node):
        self._defining.append(node.name)
        self.generic_visit(node)
        self._defining.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _use(self, name):
        if name not in self._defining:
            self.names.add(name)

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)


def test_every_public_name_has_a_use_outside_tests(tracer):
    package = ROOT / "src" / "hplb"
    public = set()
    for path in package.glob("*.py"):
        module = "hplb" if path.stem == "__init__" else f"hplb.{path.stem}"
        public.update(getattr(importlib.import_module(module), "__all__", ()))
    uses = _Uses()
    for directory in (package, ROOT / "demos", BENCH):
        for path in directory.glob("*.py"):
            uses.visit(ast.parse(path.read_text(encoding="utf-8")))
    called = {part for _, site, _ in tracer.CALL_SITES for part in site.split(".")}
    unused = public - uses.names - called
    allowed = set(_TEST_ONLY_PUBLIC)
    assert "lambda_adapt" in public and "lambda_adapt" in uses.names
    assert not allowed - public, f"no longer public: {sorted(allowed - public)}"
    assert not unused - allowed, f"public names only tests use: {sorted(unused - allowed)}"
    assert not allowed - unused, f"allowlisted but used, drop them: {sorted(allowed - unused)}"
