"""Seeded end-to-end and per-layer benchmark of hplb's `lambda_adapt`.

Run from the repository root:

    python3 bench/run.py --workload estimate_cli --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Every workload is a fixed list of `hplb` CLI commands, called in process
through `hplb.cli.main`, with the band memo cleared before each command
because a user pays a cold memo on every CLI call.  A run sets up its
inputs from the seed, makes one untimed warm-up pass that also checks the
outputs, then repeats timed passes for `--seconds` seconds.  With
`--trace 0` it reports the end-to-end metrics of BENCHMARK.json; with
`--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics taken from the spans of `tracer.py`.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See bench/README.md for why each workload exists and which layer metric
should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from tracer import MAP_SPAN, TASK_SPAN, Tracer, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Setup is measured this many times per run: once in the run's own process
# and the rest in fresh processes, each importing hplb cold, half of them
# before the timed passes and half after, so that the median spans the run.
SETUP_SAMPLES = 7

# Power-grid cells per pass, each a cold `powergrid` command with its own
# seed.  The simulations a cell needs vary with its seed (40 to 55 for 100
# estimates, a spread of 0.15 over twelve seeds), so a pass sums several
# cells to keep the work of one run close to that of another.
CELLS = 4

# Bytes of the arrays `simulate_null_sup_quantile` computes per simulated
# path step: the int8 base copy and its permutation (1 + 1), the int64
# cumulative sum (8), and the float64 centred and scaled paths (8 + 8).
NULL_BYTES_PER_STEP = 34

ALPHA = 0.05


def _estimate_cli(seed, work):
    # The seed makes the two simulated files.  The commands keep the CLI's
    # default band seed, as a user would, so the four fixed-file commands
    # do the same work on every seed.
    data = ROOT / "data"
    band = ["--band", "simulated", "--sims", "1000", "--seed", "0", "--format", "json"]
    files = [data / "two_sample_contamination.csv", data / "two_sample_mirrored.csv"]
    files += [work / f"sim_{n}.csv" for n in (2000, 8000)]
    cmds = [["estimate", "--method", "adapt", "--input", str(f)] + band for f in files]
    cmds.append(["scan", "--input", str(data / "ordered_change.csv"),
                 "--splits", "0.25,0.5,0.75"] + band)
    cmds.append(["pairwise", "--input", str(data / "multiclass_three.csv")] + band)
    setup = [["simulate", "--example", "1", "--c", "0.1", "--n", str(n), "--seed", str(seed),
              "--output", str(work / f"sim_{n}.csv")] for n in (2000, 8000)]
    return setup, cmds


def _level_analytic(seed, work):
    return [], [["level", "--example", "1", "--n", "4000", "--c", "0.1", "--method", "adapt",
                 "--alpha", str(ALPHA), "--reps", "1000", "--band", "analytic",
                 "--seed", str(seed), "--format", "json"]]


def _powergrid(seed, work):
    return [], [["powergrid", "--example", "2", "--method", "adapt", "--gammas=-0.5",
                 "--ns", "4000", "--reps", "100", "--epsilon", "1", "--alpha", str(ALPHA),
                 "--band", "simulated", "--sims", "600", "--seed", str(seed * CELLS + k),
                 "--format", "json"] for k in range(CELLS)]


# name -> (commands, HPLB_THREADS of the timed passes, warm repeat stride).
# Every `stride`-th estimate of the warm-up pass is repeated on a warm memo.
# BENCHMARK.json lists all but `powergrid_sim`, the serial run of the
# power-grid cells, so that its full check of ten seeds per workload stays
# within its time limit; it is kept for comparing the thread pool against
# serial runs by hand.
WORKLOADS = {
    "estimate_cli": (_estimate_cli, 1, 1),
    "level_analytic": (_level_analytic, 1, 10),
    "powergrid_sim": (_powergrid, 1, 1),
    "powergrid_sim_t2": (_powergrid, 2, 1),
}


class Failures:
    """Attempted and failed operations: commands, estimates and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self._lock = threading.Lock()

    def check(self, ok, message):
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.messages.append(message)
        return ok

    def add_attempts(self, n):
        with self._lock:
            self.attempted += n


class EstimateProbe:
    """Times every `lambda_adapt` call the CLI makes; checks them when asked.

    Installed at both places the CLI reaches the estimator from:
    `hplb.cli.lambda_adapt` (estimate) and `hplb.experiments.lambda_adapt`
    (scan, pairwise, level, powergrid).
    """

    def __init__(self, hplb, failures, stride):
        self.hplb = hplb
        self.failures = failures
        self.stride = stride
        self.checking = False
        self.records = []  # (latency_s, value)
        self._count = 0
        self._lock = threading.Lock()

    def wrap(self, fn):
        def probe(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            latency = time.perf_counter() - start
            self.records.append((latency, result.value))
            if self.checking:
                self._check(fn, args, kwargs, result)
            return result

        return probe

    def _check(self, fn, args, kwargs, result):
        hp = self.hplb
        data = args[0] if args else kwargs["data"]
        spec = (args[1] if len(args) > 1 else kwargs.get("spec")) or hp.bounding.BoundSpec()
        value = result.value
        self.failures.check(0.0 <= value <= 1.0, f"bound {value} outside [0, 1]")
        path = hp.counting.build_counting_path(data)
        violated, _ = hp.bounding.is_violated(path, value, spec)
        self.failures.check(not violated, f"is_violated(path, {value}) is true")
        with self._lock:
            self._count += 1
            repeat = self._count % self.stride == 0
        if repeat:
            again = fn(*args, **kwargs).value
            self.failures.check(again == value, f"warm repeat gave {again}, cold gave {value}")

    def take(self):
        records, self.records = self.records, []
        return records


def _check_output(argv, text, failures):
    """Bounds in [0, 1]; the level exceedance within alpha + 3 standard errors."""
    payload = json.loads(text)
    cmd = argv[0]
    if cmd == "estimate":
        values = [payload["value"]]
    elif cmd == "scan":
        failures.check(None not in payload["bounds"], f"scan skipped a split: {payload}")
        values = [b for b in payload["bounds"] if b is not None]
    elif cmd == "pairwise":
        values = [v for row in payload["matrix"] for v in row]
    elif cmd == "powergrid":
        values = [c[k] for c in payload["cells"] for k in ("freq", "mean_lambda")]
    else:
        reps, freq = payload["reps"], payload["exceedance"]
        limit = ALPHA + 3.0 * (ALPHA * (1.0 - ALPHA) / reps) ** 0.5
        failures.check(freq <= limit, f"level exceedance {freq} above {limit:.4f}")
        values = [freq]
    for v in values:
        failures.check(0.0 <= v <= 1.0, f"{cmd}: value {v} outside [0, 1]")


def _clear_memos(hplb):
    """Empty every process-level memo, as a fresh CLI process starts."""
    hplb.counting.clear_band_cache()
    cdf_cache = getattr(hplb.distributions, "_CDF_CACHE", None)
    if cdf_cache is not None:
        cdf_cache.clear()


def run_pass(hplb, cmds, failures, gauge=None):
    """Run the commands once, each on a cold memo; return (wall_s, outputs, gauge_s).

    With a `gauge`, it is timed before the first command and after each
    one, outside the commands' wall time.  `gauge_s` is then the mean of
    the gauges on either side of each command, weighted by the command's
    wall time, so that a long pass is set against the machine's speed
    while it ran.
    """
    outputs = []
    wall = weighted = 0.0
    before = gauge() if gauge else 0.0
    for argv in cmds:
        _clear_memos(hplb)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = hplb.cli.main(argv)
        took = time.perf_counter() - start
        failures.check(rc == 0, f"{argv[0]} exited {rc}: {err.getvalue().strip()}")
        outputs.append(out.getvalue())
        after = gauge() if gauge else 0.0
        wall += took
        weighted += took * (before + after) / 2.0
        before = after
    return wall, outputs, weighted / wall


def _import_hplb():
    if not (SRC / "hplb" / "__init__.py").is_file():
        raise SystemExit(f"error: no hplb package under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import hplb
    import hplb.cli
    import hplb.io

    if Path(hplb.__file__).resolve().parent != SRC / "hplb":
        raise SystemExit(f"error: imported hplb from {hplb.__file__}, not from {SRC}")
    return hplb


def set_up(workload, seed, work):
    """Import hplb and make the workload's inputs; return (hplb, commands, seconds)."""
    start = time.perf_counter()
    hplb = _import_hplb()
    make, _, _ = WORKLOADS[workload]
    setup_cmds, cmds = make(seed, work)
    work.mkdir(parents=True, exist_ok=True)
    for argv in setup_cmds:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = hplb.cli.main(argv)
        if rc != 0:
            raise SystemExit(f"error: set-up command {argv} exited {rc}")
    return hplb, cmds, time.perf_counter() - start


def setup_probe(workload, seed):
    """Time one cold set-up in a fresh process of its own."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def gauge_s(numpy, array):
    """Wall time of a fixed computation: the machine's speed at this moment.

    Interpreter work, then sorts and cumulative sums of a 2 MB array: the
    two kinds of work hplb does, kept small so that the gauge never sets
    the process's peak memory.  Timed between the commands of every pass,
    it lets `wall_gauge` divide out the drift of a shared machine's speed.
    """
    start = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i
    for _ in range(28):
        numpy.sort(array).cumsum()
    return time.perf_counter() - start


def percentile(values, q):
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(passes, setup_samples):
    """End-to-end metrics, name -> (value, unit, sample count): (bounded, report-only).

    The pass time is bounded as `wall_gauge`, the pass's wall time over the
    wall time of `gauge_s` timed between its commands: the speed of the
    shared machine drifts by up to 1.6x between runs a minute apart, and the
    ratio cancels most of that drift.  Raw `wall_s` and `estimates_per_s` are reported.
    Estimate latency percentiles are reported but not bounded.  Under two
    threads a memo hit waits on the interpreter lock behind a concurrent
    miss, and on the power-grid cell the 90th percentile sits on the edge
    between hits and misses, so both move with the seed.  A percentile is
    shown only where each pass has at least ten estimates beyond it.
    """
    walls = [w for w, _, _ in passes]
    per_pass = len(passes[0][1])
    wall = statistics.median(walls)
    n_est = per_pass * len(passes)

    def latency_ms(q):
        per = [percentile([lat for lat, _ in recs], q) for _, recs, _ in passes]
        return (statistics.median(per) * 1e3, "ms", n_est)

    bounded = {
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
        "wall_gauge": (statistics.median(w / g for w, _, g in passes), "gauges", len(passes)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    shown = {
        "wall_s": (wall, "s", len(passes)),
        "estimates_per_s": (per_pass / wall, "1/s", len(passes)),
        "estimate_p50_ms": latency_ms(50),
    }
    for q in (90, 99):
        if per_pass * (100 - q) >= 1000:
            shown[f"estimate_p{q}_ms"] = latency_ms(q)
    return bounded, shown


LAYERS = ("cli", "io", "experiments", "mixtures", "estimators", "bounding", "counting",
          "distributions")


def per_layer(spans, wall, untraced_wall, main_thread):
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    own = self_times(spans)
    incl, selft, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    main_self = pool_wait = 0.0
    children = defaultdict(int)
    for sid, parent, name, thread, start, end, note in spans:
        incl[name] += end - start
        selft[name] += own[sid]
        calls[name] += 1
        children[parent] += 1
        if thread == main_thread:
            main_self += own[sid]
        if name == MAP_SPAN and note > 1:
            pool_wait += own[sid]  # the caller idles while the workers run the tasks
        else:
            layer_self[name.split(".", 1)[0]] += own[sid]
    sims = [note for _, _, name, _, _, _, note in spans
            if name == "counting.simulate_null_sup_quantile"]
    steps = sum(s * (m + n) for m, n, s in sims)
    band = [(sid, note) for sid, _, name, _, _, _, note in spans if name == "counting.band_constant"]
    band_calls = len(band)
    misses = sum(1 for sid, _ in band if children[sid])
    maps = [(start, end, note) for _, _, name, _, start, end, note in spans if name == MAP_SPAN]
    capacity = sum((end - start) * workers for start, end, workers in maps)
    estimates = calls["estimators.lambda_adapt"]
    m = {
        "counting.simulate_s": (incl["counting.simulate_null_sup_quantile"], "s"),
        "counting.simulate_calls": (len(sims), "count"),
        "counting.null_path_steps": (steps, "count"),
        "counting.null_bytes_computed": (steps * NULL_BYTES_PER_STEP, "bytes_computed"),
        "counting.simulate_share": (incl["counting.simulate_null_sup_quantile"] / wall, "fraction"),
        "counting.band_constant_s": (selft["counting.band_constant"], "s"),
        "counting.band_constant_calls": (band_calls, "count"),
        "counting.band_memo_misses": (misses, "count"),
        "counting.band_distinct_keys": (len({note for _, note in band}), "count"),
        "counting.band_memo_hit_ratio": (1.0 - misses / band_calls if band_calls else 0.0,
                                         "fraction"),
        "bounding.is_violated_s": (selft["bounding.is_violated"], "s"),
        "bounding.is_violated_calls": (calls["bounding.is_violated"], "count"),
        "estimators.estimates": (estimates, "count"),
        "estimators.evaluations_per_estimate": (
            calls["bounding.is_violated"] / estimates if estimates else 0.0, "evals/estimate"),
        "estimators.adapt_self_s": (selft["estimators.adapt_from_path"], "s"),
        "bounding.effective_sizes_s": (selft["bounding.effective_sizes"], "s"),
        "distributions.binom_quantile_s": (incl["distributions.binom_quantile"], "s"),
        "distributions.binom_quantile_calls": (calls["distributions.binom_quantile"], "count"),
        "counting.build_counting_path_s": (incl["counting.build_counting_path"], "s"),
        "experiments.gen_example_s": (incl["experiments.gen_example"], "s"),
        "experiments.gen_example_calls": (calls["experiments.gen_example"], "count"),
        "io.parse_s": (sum(v for k, v in incl.items() if k.startswith("io.parse_")), "s"),
        "io.emit_s": (sum(v for k, v in incl.items() if k.startswith("io.emit_")), "s"),
        "cli.command_s": (selft["cli.main"], "s"),
        "experiments.worker_busy_frac": (incl[TASK_SPAN] / capacity if capacity else 0.0,
                                         "fraction"),
        "experiments.pool_wait_s": (pool_wait, "s"),
        "trace_overhead_frac": (wall / untraced_wall - 1.0, "fraction"),
        "trace.wall_s": (wall, "s"),
        "trace.accounted_frac": (main_self / wall, "fraction"),
        "trace.spans": (len(spans), "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.layer_self_s"] = (layer_self[layer], "s")
    m["harness.self_s"] = (wall - main_self, "s")
    return m


COUNTS = ("counting.simulate_calls", "counting.band_constant_calls",
          "estimators.evaluations_per_estimate", "counting.null_path_steps")


def facts(threads):
    import numpy
    import scipy

    src_files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in src_files:
        data = f.read_bytes()
        digest.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    head = ROOT / ".git" / "HEAD"
    commit = "unknown: not a git checkout"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "hplb_threads": threads,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def run_workload(args):
    make, threads, stride = WORKLOADS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    try:
        hplb, cmds, own_setup = set_up(args.workload, args.seed, work)
        setup_samples = [own_setup]
        probes = 0 if args.trace else SETUP_SAMPLES - 1
        setup_samples += [setup_probe(args.workload, args.seed) for _ in range(probes // 2)]
        failures = Failures()
        probe = EstimateProbe(hplb, failures, stride)
        for mod in (hplb.cli, hplb.experiments):
            mod.lambda_adapt = probe.wrap(mod.lambda_adapt)

        # Warm-up, untimed and serial: it checks every estimate, and its
        # outputs are the reference every timed pass must repeat byte for
        # byte (for powergrid_sim_t2, the serial powergrid_sim output).
        os.environ["HPLB_THREADS"] = "1"
        probe.checking = True
        _, reference, _ = run_pass(hplb, cmds, failures)
        probe.checking = False
        ref_values = sorted(v for _, v in probe.take())
        for argv, text in zip(cmds, reference):
            try:
                _check_output(argv, text, failures)
            except (ValueError, KeyError, TypeError) as exc:
                failures.check(False, f"{argv[0]} printed unreadable output: {exc!r}")
        os.environ["HPLB_THREADS"] = str(threads)

        import numpy

        gauge_array = numpy.random.default_rng(0).random(250_000)

        def timed(tracer=None):
            if tracer:
                tracer.clear()
                tracer.install(sys.modules)
            try:
                wall, outputs, gauge = run_pass(hplb, cmds, failures,
                                                lambda: gauge_s(numpy, gauge_array))
            finally:
                if tracer:
                    tracer.uninstall()
            records = probe.take()
            failures.check(outputs == reference, "outputs differ from the warm-up pass")
            failures.check(sorted(v for _, v in records) == ref_values,
                           "estimates differ from the warm-up pass")
            failures.add_attempts(len(records))
            return wall, records, gauge

        start = time.perf_counter()
        passes, traced = [], []
        if args.trace:
            tracer = Tracer()
            main_thread = threading.get_ident()
            while True:
                passes.append(timed())
                wall, _, _ = timed(tracer)
                traced.append(per_layer(tracer.spans, wall, passes[-1][0], main_thread))
                step = passes[-1][0] + wall
                if time.perf_counter() - start + step > args.seconds:
                    break
        else:
            while True:
                passes.append(timed())
                if time.perf_counter() - start + passes[-1][0] > args.seconds:
                    break
        measured_s = time.perf_counter() - start
        setup_samples += [setup_probe(args.workload, args.seed)
                          for _ in range(probes - probes // 2)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    fact = facts(threads)
    digest = hashlib.sha256("\0".join(reference).encode()).hexdigest()
    if args.trace:
        metrics = {name: (statistics.median(t[name][0] for t in traced), unit, len(traced))
                   for name, (_, unit) in traced[0].items()}
        shown = {}
        repeat = all(t[c][0] == traced[0][c][0] for t in traced for c in COUNTS)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.jsonl",
                     {"workload": args.workload, "seed": args.seed, "facts": fact})
    else:
        metrics, shown = end_to_end(passes, setup_samples)
        repeat = None

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "measured_s": measured_s,
        "passes": len(passes),
        "pass_walls_s": [w for w, _, _ in passes],
        "pass_gauges_s": [g for _, _, g in passes],
        "traced_passes": len(traced),
        "estimates_per_pass": len(passes[0][1]),
        "fail_frac": failures.failed / failures.attempted,
        "failures": failures.messages[:20],
        "counts_repeat": repeat,
        "output_digest": digest,
        "facts": fact,
        "metrics": {k: {"value": v, "unit": u, "n": n}
                    for k, (v, u, n) in {**metrics, **shown}.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"traced_passes={len(traced)} estimates/pass={report['estimates_per_pass']}")
    print(f"# facts {json.dumps(fact, sort_keys=True)}")
    print(f"# output_digest {digest}")
    if repeat is not None:
        print(f"# counts repeat across traced passes: {repeat}")
    print(f"{'metric':40s} {'value':>16s} {'unit':16s} {'n':>6s}")
    print(f"{'fail_frac':40s} {report['fail_frac']:16.6g} {'fraction':16s} "
          f"{failures.attempted:6d}")
    for name, (value, unit, n) in {**metrics, **shown}.items():
        print(f"{name:40s} {value:16.6g} {unit:16s} {n:6d}")
    for msg in failures.messages[:20]:
        print(f"# FAILED: {msg}")
    return {
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }


def run_all(args):
    """Each workload in a fresh process of its own, one after the other."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stdout, end="")
            print(proc.stderr, end="", file=sys.stderr)
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        *table, last = proc.stdout.strip().splitlines()
        print("\n".join(table))
        results[name] = json.loads(last)
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        work = OUT / f"work-{os.getpid()}"
        try:
            print(set_up(args.workload, args.seed, work)[2])
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
