"""Command-line interface.

Subcommands: estimate, simulate, level, powergrid, scan, pairwise.
Exit codes: 0 success, 2 validation or usage error, 3 any unexpected exception.
Option precedence: command-line flags > config file (flat key=value lines
via --config) > built-in defaults.  Every command is deterministic given
--seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import io as hio
from .bounding import BoundSpec
from .errors import DatasetError, ParameterError
from .estimators import lambda_adapt, lambda_bayes, lambda_c
from .experiments import (
    ExampleSpec,
    default_scale,
    gen_example,
    pairwise_matrix,
    run_level_study,
    run_power_grid,
    split_scan,
)
from .streams import RngStream

# Every option a --config file may set: the type its flag parses to and its default.
_OPTIONS = {
    "alpha": (float, 0.05),
    "band": (str, "simulated"),
    "sims": (int, 1000),
    "seed": (int, 0),
    "format": (str, "csv"),
    "output": (str, None),
    "epsilon": (float, 1.0),
    "reps": (int, 100),
    "c": (float, None),
    "pi": (float, 0.5),
}
_CHOICES = {"band": ("analytic", "simulated"), "format": ("csv", "json")}


def _load_config(path):
    cfg = {}
    if path is None:
        return cfg
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise DatasetError(f"{path}: config lines must be key=value, got {line!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                cfg[key] = _config_value(path, key, value)
    except OSError as exc:
        raise DatasetError(f"cannot read config {path}: {exc}") from exc
    return cfg


def _config_value(path, key, text):
    """Parse one config entry as its command-line flag would, or name what is wrong."""
    if key not in _OPTIONS:
        known = ", ".join(_OPTIONS)
        raise DatasetError(f"{path}: unknown config key {key!r}; known keys: {known}")
    cast = _OPTIONS[key][0]
    try:
        value = cast(text)
    except ValueError:
        msg = f"{path}: config key {key!r} needs a {cast.__name__}, got {text!r}"
        raise DatasetError(msg) from None
    if key in _CHOICES and value not in _CHOICES[key]:
        allowed = ", ".join(_CHOICES[key])
        raise DatasetError(f"{path}: config key {key!r} must be one of {allowed}, got {text!r}")
    return value


def _opt(args, cfg, name):
    """flags > config file > defaults"""
    val = getattr(args, name, None)
    if val is not None:
        return val
    return cfg.get(name, _OPTIONS[name][1])


def _bound_spec(args, cfg) -> BoundSpec:
    return BoundSpec(
        alpha=_opt(args, cfg, "alpha"),
        band_kind=_opt(args, cfg, "band"),
        sims=_opt(args, cfg, "sims"),
        seed=_opt(args, cfg, "seed"),
    )


def _float_list(text):
    return [float(v) for v in text.split(",") if v.strip()]


def _int_list(text):
    return [int(v) for v in text.split(",") if v.strip()]


def _build_parser():
    top = argparse.ArgumentParser(prog="hplb", description=__doc__)
    top.add_argument("--config", help="flat key=value config file")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--alpha", type=float)
        p.add_argument("--band", choices=_CHOICES["band"])
        p.add_argument("--sims", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--format", choices=_CHOICES["format"])
        p.add_argument("--output", help="output path (default: stdout)")

    p = sub.add_parser("estimate", help="bound TV from a two-sample score file")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=["c", "bayes", "adapt"], required=True)
    common(p)

    p = sub.add_parser("simulate", help="generate a scored dataset from a model family")
    p.add_argument("--example", required=True, choices=["0", "1", "2", "toy"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--pi", type=float)
    common(p)

    p = sub.add_parser("level", help="Monte-Carlo exceedance frequency of an estimator")
    p.add_argument("--example", required=True, choices=["0", "1", "2", "toy"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--method", choices=["c", "bayes", "adapt", "oracle_t"], required=True)
    p.add_argument("--reps", type=int)
    common(p)

    p = sub.add_parser("powergrid", help="detection frequencies over a (gamma, N) grid")
    p.add_argument("--example", required=True, choices=["1", "2"])
    p.add_argument("--method", choices=["c", "bayes", "adapt"], required=True)
    p.add_argument("--gammas", required=True, help="comma-separated, e.g. -0.2,-0.3")
    p.add_argument("--ns", required=True, help="comma-separated, e.g. 500,1000")
    p.add_argument("--reps", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--c", type=float)
    common(p)

    p = sub.add_parser("scan", help="adaptive bounds over split points of an ordered file")
    p.add_argument("--input", required=True)
    p.add_argument("--splits", required=True, help="comma-separated split points")
    common(p)

    p = sub.add_parser("pairwise", help="pairwise TV bound matrix from multiclass scores")
    p.add_argument("--input", required=True)
    common(p)

    return top


def _cmd_estimate(args, cfg):
    spec = _bound_spec(args, cfg)
    data = hio.parse_two_sample(args.input, tie_seed=spec.seed)
    print(f"parsed {data.total} rows: m={data.m}, n={data.n}", file=sys.stderr)
    if args.method == "adapt":
        result = lambda_adapt(data, spec)
    elif args.method == "bayes":
        result = lambda_bayes(data, spec.alpha)
    else:
        result = lambda_c(data, spec.alpha)
    hio.emit_result(result, _opt(args, cfg, "format"), _opt(args, cfg, "output"))
    return 0


def _example_spec(args, cfg):
    example = args.example if args.example == "toy" else int(args.example)
    c = _opt(args, cfg, "c")
    return ExampleSpec(
        example_id=example,
        n_total=args.n,
        gamma=args.gamma,
        c=default_scale(example) if c is None else c,
        pi=_opt(args, cfg, "pi"),
    )


def _cmd_simulate(args, cfg):
    spec = _example_spec(args, cfg)
    seed = _opt(args, cfg, "seed")
    data, lam = gen_example(spec, RngStream(seed, 0, ("simulate",)))
    lines = ["score,label\n"]
    lines += [f"{float(s)!r},{int(l)}\n" for s, l in zip(data.scores, data.labels)]
    output = _opt(args, cfg, "output")
    hio.write_text(output, "".join(lines))
    meta = {
        "example": args.example,
        "n": args.n,
        "gamma": args.gamma,
        "c": spec.c,
        "pi": spec.pi,
        "seed": seed,
        "m": data.m,
        "n_class1": data.n,
        "true_lambda": lam,
    }
    # a dataset on stdout stays readable: its metadata goes to stderr
    print(json.dumps(meta, sort_keys=True), file=sys.stdout if output else sys.stderr)
    return 0


def _cmd_level(args, cfg):
    spec = _example_spec(args, cfg)
    bound = _bound_spec(args, cfg)
    reps = _opt(args, cfg, "reps")
    freq = run_level_study(
        spec, args.method, bound.alpha, reps, RngStream(bound.seed, 0, ("level",)), bound
    )
    hio.emit_level(args.method, bound.alpha, reps, freq, _opt(args, cfg, "format"),
                   _opt(args, cfg, "output"))
    return 0


def _cmd_powergrid(args, cfg):
    bound = _bound_spec(args, cfg)
    result = run_power_grid(
        example=int(args.example),
        method=args.method,
        gammas=_float_list(args.gammas),
        ns=_int_list(args.ns),
        reps=_opt(args, cfg, "reps"),
        epsilon=_opt(args, cfg, "epsilon"),
        alpha=bound.alpha,
        rng=RngStream(bound.seed, 0, ("powergrid",)),
        bound=bound,
        c=_opt(args, cfg, "c"),
    )
    hio.emit_powergrid(result, _opt(args, cfg, "format"), _opt(args, cfg, "output"))
    return 0


def _cmd_scan(args, cfg):
    bound = _bound_spec(args, cfg)
    t, scores = hio.parse_ordered(args.input)
    result = split_scan(t, scores, _float_list(args.splits), bound, tie_seed=bound.seed)
    for warning in result.skipped:
        print(f"warning: {warning}", file=sys.stderr)
    hio.emit_scan(result, _opt(args, cfg, "format"), _opt(args, cfg, "output"))
    return 0


def _cmd_pairwise(args, cfg):
    bound = _bound_spec(args, cfg)
    labels, probs = hio.parse_multiclass(args.input)
    matrix = pairwise_matrix(probs, labels, bound)
    hio.emit_pairwise(matrix, _opt(args, cfg, "format"), _opt(args, cfg, "output"))
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "simulate": _cmd_simulate,
    "level": _cmd_level,
    "powergrid": _cmd_powergrid,
    "scan": _cmd_scan,
    "pairwise": _cmd_pairwise,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return _COMMANDS[args.command](args, cfg)
    except (DatasetError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
