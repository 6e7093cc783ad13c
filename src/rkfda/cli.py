"""Command-line surface.

Subcommands: simulate | select | train | predict | bayes | eigen | bench.
All commands are non-interactive and deterministic given the same inputs and
seeds.  Exit codes: 0 ok, 2 usage, 3 file format, 4 numeric failure; on
failure the last stdout line is a machine-readable ``error_code=...`` tag.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import io
from .bench import resolve_models, run_experiment, variable_recovery_histogram
from .classify import train_knn, train_rkc, train_centroid, classify_batch
from .core import DatasetFormatError, RkfdaError, _check_same_grid, make_grid
from .kernels import (
    BrownianBridgeKernel,
    BrownianKernel,
    OrnsteinUhlenbeckKernel,
    discretized_eigen,
)
from .rkhs import FiniteExpansionMean, bayes_error, rkhs_norm_sq
from .select import SelectionConfig, greedy_select, oracle_source_from_dataset
from .simulate import builtin_catalog, gen_model_dataset, load_catalog, standard_grid

USAGE_EXIT, PARSE_EXIT, NUMERIC_EXIT = 2, 3, 4


def _parse_kernel(text: str):
    text = text.strip().lower()
    if text == "brownian":
        return BrownianKernel()
    if text == "bridge":
        return BrownianBridgeKernel()
    if text == "ou":
        return OrnsteinUhlenbeckKernel()
    if text.startswith("ou:"):
        try:
            theta, sigma2 = (float(v) for v in text[3:].split(","))
            return OrnsteinUhlenbeckKernel(theta=theta, sigma2=sigma2)
        except ValueError as exc:
            raise DatasetFormatError(f"bad kernel {text!r}: {exc} (use ou:theta,sigma2)") from exc
    raise DatasetFormatError(f"unknown kernel {text!r} (use brownian|bridge|ou|ou:theta,sigma2)")


def _models(args, ids) -> dict:
    """The models of ``ids`` in ``--catalog`` (or the built-in one), by id; an unknown id is a parse error."""
    catalog = load_catalog(args.catalog) if args.catalog else builtin_catalog()
    try:
        return dict(zip(ids, resolve_models(ids, catalog)))
    except ValueError as exc:
        raise DatasetFormatError(str(exc)) from exc


def _selection(args, dataset, kernel):
    """Greedy selection with ``--d-max`` and ``--delta`` on ``kernel``'s Gram, or the pooled covariance."""
    source = dataset if kernel is None else oracle_source_from_dataset(dataset, kernel)
    return greedy_select(source, SelectionConfig(d_max=args.d_max, delta=args.delta))


def _cmd_simulate(args) -> int:
    io.check_output(args.out)
    model = _models(args, [args.model])[args.model]
    grid = standard_grid(args.grid_count)
    dataset = gen_model_dataset(model, args.n, grid, args.seed)
    io.write_dataset(dataset, args.out)
    return 0


def _cmd_select(args) -> int:
    dataset = io.read_dataset(args.data)
    result = _selection(args, dataset, _parse_kernel(args.kernel) if args.kernel else None)
    print("rank,t,psi")
    for rank, (t, psi) in enumerate(zip(result.points, result.psi_trace), start=1):
        print(f"{rank},{format(t, '.12g')},{format(psi, '.12g')}")
    return 0


def _cmd_train(args) -> int:
    io.check_output(args.out)
    dataset = io.read_dataset(args.data, fixed_prior=args.prior)
    if args.method == "rkc":
        kernel = _parse_kernel(args.kernel) if args.kernel else None
        points = args.points if args.points else _selection(args, dataset, kernel).points
        clf = train_rkc(dataset, points, kernel=kernel)
    elif args.method == "knn":
        clf = train_knn(dataset, args.k)
    else:  # argparse choices leave only "centroid"
        clf = train_centroid(dataset, args.r)
    io.write_classifier(clf, args.out)
    return 0


def _cmd_predict(args) -> int:
    if args.out:
        io.check_output(args.out)
    clf = io.read_classifier(args.model)
    dataset = io.read_dataset(args.data)
    _check_same_grid(clf.grid, dataset.grid)
    labels = classify_batch(clf, dataset.curves)
    lines = ["index,label"] + [f"{i},{y}" for i, y in enumerate(labels)]
    if args.out:
        io.write_lines(args.out, lines)
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    print(f"error_rate {np.mean(labels != dataset.labels):.6f}", file=sys.stderr)
    return 0


def _cmd_bayes(args) -> int:
    if args.norm is not None:
        norm = args.norm
    else:  # main has checked that --kernel, --points and --alphas are all given
        mean = FiniteExpansionMean(
            kernel=_parse_kernel(args.kernel),
            points=np.array(args.points),
            alphas=np.array(args.alphas),
        )
        norm = math.sqrt(rkhs_norm_sq(mean))
    print(f"{bayes_error(norm, args.p):.6f}")
    return 0


def _cmd_eigen(args) -> int:
    grid = make_grid(args.grid_count, args.t_min, args.t_max)
    eigen = discretized_eigen(_parse_kernel(args.kernel), grid)
    order = min(args.max_order, grid.count)
    print("j,theta," + ",".join(format(t, ".12g") for t in grid.points))
    for j in range(order):
        phi = ",".join(format(v, ".12g") for v in eigen.eigenfunctions[j])
        print(f"{j + 1},{format(eigen.eigenvalues[j], '.12g')},{phi}")
    return 0


def _cmd_bench(args) -> int:
    io.check_output(args.out)
    if args.hist_model:
        io.check_output(args.hist_out)
    plan = io.read_plan(args.plan)
    # every id is looked up before the first run, so an unknown one writes nothing
    models = _models(args, [*plan.models, *([args.hist_model] if args.hist_model else [])])
    report = run_experiment(plan, catalog=models)
    hist = None
    if args.hist_model:
        hist = variable_recovery_histogram(
            models[args.hist_model],
            n=args.hist_n,
            runs=args.hist_runs,
            d=args.hist_d,
            grid=standard_grid(plan.grid_count),
            seed=plan.seed,
        )
    io.write_report(report, args.out)
    if hist is not None:
        io.write_histogram(hist, args.hist_out)
    return 0


def _int_from(low: int):
    """An argparse type: an integer at least ``low``, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _float_in(low: float, high: float, closed: bool = False):
    """An argparse type: a number strictly inside (low, high), or in (low, high]
    when ``closed``, else a usage error."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
        if not (low < value < high or closed and value == high):
            bracket = "]" if closed else ")"
            raise argparse.ArgumentTypeError(f"must lie in ({low:g}, {high:g}{bracket}, got {text}")
        return value

    return parse


_probability = _float_in(0.0, 1.0)
_positive = _float_in(0.0, math.inf)
_finite = _float_in(-math.inf, math.inf)
# a kernel norm: an infinite one is the singular limit, with error 0
_norm = _float_in(0.0, math.inf, closed=True)


def _finite_list(text: str) -> list[float]:
    """An argparse type: one or more finite numbers, separated by commas or
    spaces, else a usage error."""
    values = [_finite(item) for item in text.replace(",", " ").split()]
    if not values:
        raise argparse.ArgumentTypeError("needs at least one number")
    return values


def _prior(text: str) -> float | None:
    """``--prior``: a probability in (0, 1), or 'estimated' for the class-1 fraction."""
    return None if text == "estimated" else _probability(text)


class _Parser(argparse.ArgumentParser):
    """argparse, with the ``error_code`` line that ends every failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        print("error_code=usage-error")
        raise SystemExit(USAGE_EXIT)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rkfda", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a dataset from a catalog model")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=_int_from(1), required=True)
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--grid-count", type=_int_from(2), default=100)
    p.add_argument("--catalog")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("select", help="greedy variable selection on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--d-max", type=_int_from(1), required=True)
    p.add_argument("--delta", type=_positive)
    p.add_argument("--kernel", help="use an analytic covariance instead of the pooled estimate")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("train", help="fit and persist a classifier")
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=("rkc", "knn", "centroid"), required=True)
    p.add_argument("--points", type=_finite_list, help="comma-separated grid times for rkc")
    p.add_argument("--d-max", type=_int_from(1), help="run greedy selection first (rkc)")
    p.add_argument("--delta", type=_positive)
    p.add_argument("--kernel", help="analytic covariance for oracle rkc")
    p.add_argument("--k", type=_int_from(1), default=5, help="neighbours for knn")
    p.add_argument("--r", type=_int_from(1), default=1, help="truncation order for centroid")
    p.add_argument("--prior", type=_prior, help="fixed class-1 prior in (0,1), or 'estimated'")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="apply a persisted classifier to a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("bayes", help="closed-form optimal error")
    p.add_argument("--norm", type=_norm, help="kernel norm of the mean difference")
    p.add_argument("--kernel")
    p.add_argument("--points", type=_finite_list)
    p.add_argument("--alphas", type=_finite_list)
    p.add_argument("--p", type=_probability, default=0.5)
    p.set_defaults(func=_cmd_bayes)

    p = sub.add_parser("eigen", help="discretized covariance eigensystem")
    p.add_argument("--kernel", required=True)
    p.add_argument("--grid-count", type=_int_from(2), default=100)
    p.add_argument("--t-min", type=_finite, default=0.0)
    p.add_argument("--t-max", type=_finite, default=1.0)
    p.add_argument("--max-order", type=_int_from(1), default=10)
    p.set_defaults(func=_cmd_eigen)

    p = sub.add_parser("bench", help="run an experiment plan, write the report")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--catalog")
    p.add_argument("--hist-model", help="also write a selection histogram for this model")
    p.add_argument("--hist-n", type=_int_from(1), default=1000)
    p.add_argument("--hist-runs", type=_int_from(1), default=100)
    p.add_argument("--hist-d", type=_int_from(1), default=5)
    p.add_argument("--hist-out", default="histogram.csv")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eigen" and not args.t_min < args.t_max:
        parser.error(f"argument --t-min: must be below --t-max, got {args.t_min:g} and {args.t_max:g}")
    if args.command == "train" and args.method == "rkc" and not (args.points or args.d_max):
        parser.error("train --method rkc needs --points or --d-max")
    if args.command == "bayes" and args.norm is None and not (args.kernel and args.points and args.alphas):
        parser.error("bayes needs --norm or all of --kernel, --points and --alphas")
    try:
        return args.func(args)
    except (DatasetFormatError, OSError) as exc:
        print(f"{exc}", file=sys.stderr)
        print("error_code=parse-error")
        return PARSE_EXIT
    except (RkfdaError, ValueError) as exc:
        print(f"{exc}", file=sys.stderr)
        print("error_code=numeric-failure")
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
