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
import math
import sys

from . import io as hio
from .bounding import BoundSpec
from .errors import DatasetError, ParameterError
from .estimators import lambda_adapt, lambda_bayes, lambda_c
from .experiments import (
    ExampleSpec,
    gen_example,
    pairwise_matrix,
    run_level_study,
    run_power_grid,
    split_scan,
)
from .streams import RngStream

# Every key a --config file may set; each is parsed as the flag of the same name.
_CONFIG_KEYS = ("alpha", "band", "sims", "seed", "format", "output", "epsilon", "reps", "c", "pi")


def _load_config(path, flags):
    cfg = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise DatasetError(f"{path}: config lines must be key=value, got {line!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                cfg[key] = _config_value(path, key, value, flags)
    except OSError as exc:
        raise DatasetError(f"cannot read config {path}: {exc}") from exc
    return cfg


def _config_value(path, key, text, flags):
    """Parse one config entry as its command-line flag would, or name what is wrong."""
    if key not in _CONFIG_KEYS:
        known = ", ".join(_CONFIG_KEYS)
        raise DatasetError(f"{path}: unknown config key {key!r}; known keys: {known}")
    flag = flags[key]
    cast = flag.type or str
    try:
        value = cast(text)
    except ValueError:
        msg = f"{path}: config key {key!r} needs a {cast.__name__}, got {text!r}"
        raise DatasetError(msg) from None
    if flag.choices is not None and value not in flag.choices:
        allowed = ", ".join(flag.choices)
        raise DatasetError(f"{path}: config key {key!r} must be one of {allowed}, got {text!r}")
    return value


def _bound_spec(args) -> BoundSpec:
    return BoundSpec(alpha=args.alpha, band_kind=args.band, sims=args.sims, seed=args.seed)


def _float_list(text, kind=float):
    """The comma-separated entries of `text` as `kind`; an empty or non-finite one is an error."""
    values = [kind(v) if v.strip() else math.nan for v in text.split(",")]
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"need finite comma-separated numbers, got {text!r}")
    return values


def _int_list(text):
    return _float_list(text, int)


def _build_parser():
    """The parser, each command's subparser by name, and the flag of each config key."""
    top = argparse.ArgumentParser(prog="hplb", description=__doc__)
    top.add_argument("--config", help="flat key=value config file")
    sub = top.add_subparsers(dest="command", required=True)
    commands, flags = {}, {}

    def command(name, help):
        commands[name] = sub.add_parser(name, help=help)
        return commands[name]

    def keyed(p, name, **kwargs):  # a flag that the config key `name` may also set
        flags[name] = p.add_argument(f"--{name}", **kwargs)

    def common(p):
        keyed(p, "alpha", type=float, default=BoundSpec.alpha)
        keyed(p, "band", choices=("analytic", "simulated"), default=BoundSpec.band_kind)
        keyed(p, "sims", type=int, default=BoundSpec.sims)
        keyed(p, "seed", type=int, default=BoundSpec.seed)
        keyed(p, "format", choices=("csv", "json"), default="csv")
        keyed(p, "output", help="output path (default: stdout)")

    p = command("estimate", help="bound TV from a two-sample score file")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=["c", "bayes", "adapt"], required=True)
    common(p)

    p = command("simulate", help="generate a scored dataset from a model family")
    p.add_argument("--example", required=True, choices=["0", "1", "2", "toy"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float)
    keyed(p, "c", type=float)
    keyed(p, "pi", type=float, default=ExampleSpec.pi)
    common(p)

    p = command("level", help="Monte-Carlo exceedance frequency of an estimator")
    p.add_argument("--example", required=True, choices=["0", "1", "2", "toy"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float)
    keyed(p, "c", type=float)
    p.add_argument("--method", choices=["c", "bayes", "adapt", "oracle_t"], required=True)
    keyed(p, "reps", type=int, default=100)
    p.set_defaults(pi=ExampleSpec.pi)  # no --pi flag, but a config file may set it
    common(p)

    p = command("powergrid", help="detection frequencies over a (gamma, N) grid")
    p.add_argument("--example", required=True, choices=["1", "2"])
    p.add_argument("--method", choices=["c", "bayes", "adapt"], required=True)
    p.add_argument("--gammas", type=_float_list, required=True,
                   help="comma-separated, e.g. -0.2,-0.3")
    p.add_argument("--ns", type=_int_list, required=True, help="comma-separated, e.g. 500,1000")
    keyed(p, "reps", type=int, default=100)
    keyed(p, "epsilon", type=float, default=1.0)
    keyed(p, "c", type=float)
    common(p)

    p = command("scan", help="adaptive bounds over split points of an ordered file")
    p.add_argument("--input", required=True)
    p.add_argument("--splits", type=_float_list, required=True,
                   help="comma-separated split points")
    common(p)

    p = command("pairwise", help="pairwise TV bound matrix from multiclass scores")
    p.add_argument("--input", required=True)
    common(p)

    return top, commands, flags


def _cmd_estimate(args):
    spec = _bound_spec(args)
    data = hio.parse_two_sample(args.input, tie_seed=spec.seed)
    print(f"parsed {data.total} rows: m={data.m}, n={data.n}", file=sys.stderr)
    if args.method == "adapt":
        result = lambda_adapt(data, spec)
    elif args.method == "bayes":
        result = lambda_bayes(data, spec.alpha)
    else:
        result = lambda_c(data, spec.alpha)
    hio.emit_result(result, args.format, args.output)
    return 0


def _example_spec(args):
    example = args.example if args.example == "toy" else int(args.example)
    return ExampleSpec(example_id=example, n_total=args.n, gamma=args.gamma, c=args.c, pi=args.pi)


def _cmd_simulate(args):
    spec = _example_spec(args)
    data, lam = gen_example(spec, RngStream(args.seed, 0, ("simulate",)))
    lines = ["score,label\n"]
    lines += [f"{float(s)!r},{int(l)}\n" for s, l in zip(data.scores, data.labels)]
    hio.write_text(args.output, "".join(lines))
    meta = {
        "example": args.example,
        "n": args.n,
        "gamma": args.gamma,
        "c": None if spec.example_id == "toy" else spec.c,  # the toy takes no c
        "pi": spec.pi,
        "seed": args.seed,
        "m": data.m,
        "n_class1": data.n,
        "true_lambda": lam,
    }
    # a dataset on stdout stays readable: its metadata goes to stderr
    print(json.dumps(meta, sort_keys=True), file=sys.stdout if args.output else sys.stderr)
    return 0


def _cmd_level(args):
    spec = _example_spec(args)
    bound = _bound_spec(args)
    rng = RngStream(bound.seed, 0, ("level",))
    freq = run_level_study(spec, args.method, args.reps, rng, bound)
    hio.emit_level(args.method, bound.alpha, args.reps, freq, args.format, args.output)
    return 0


def _cmd_powergrid(args):
    bound = _bound_spec(args)
    result = run_power_grid(
        example=int(args.example),
        method=args.method,
        gammas=args.gammas,
        ns=args.ns,
        reps=args.reps,
        epsilon=args.epsilon,
        rng=RngStream(bound.seed, 0, ("powergrid",)),
        bound=bound,
        c=args.c,
    )
    hio.emit_powergrid(result, args.format, args.output)
    return 0


def _cmd_scan(args):
    bound = _bound_spec(args)
    t, scores = hio.parse_ordered(args.input)
    result = split_scan(t, scores, args.splits, bound, tie_seed=bound.seed)
    for warning in result.skipped:
        print(f"warning: {warning}", file=sys.stderr)
    hio.emit_scan(result, args.format, args.output)
    return 0


def _cmd_pairwise(args):
    bound = _bound_spec(args)
    labels, probs = hio.parse_multiclass(args.input)
    matrix = pairwise_matrix(probs, labels, bound)
    hio.emit_pairwise(matrix, args.format, args.output)
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
    parser, commands, flags = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # config values become the command's defaults, so a flag still wins
            commands[args.command].set_defaults(**_load_config(args.config, flags))
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (DatasetError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
