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
from .bench import ExperimentPlan, run_experiment, variable_recovery_histogram
from .classify import train_knn, train_rkc, train_centroid, classify_batch, error_rate
from .core import DatasetFormatError, RkfdaError, make_grid
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


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.replace(",", " ").split()]


def _catalog(args):
    return load_catalog(args.catalog) if getattr(args, "catalog", None) else builtin_catalog()


def _cmd_simulate(args) -> int:
    catalog = _catalog(args)
    if args.model not in catalog:
        raise DatasetFormatError(f"unknown model id {args.model!r}")
    grid = standard_grid(args.grid_count)
    dataset = gen_model_dataset(catalog[args.model], args.n, grid, args.seed)
    io.write_dataset(dataset, args.out)
    return 0


def _cmd_select(args) -> int:
    dataset = io.read_dataset(args.data)
    config = SelectionConfig(d_max=args.d_max, delta=args.delta)
    if args.kernel:
        source = oracle_source_from_dataset(dataset, _parse_kernel(args.kernel))
    else:
        source = dataset
    result = greedy_select(source, config)
    print("rank,t,psi")
    for rank, (t, psi) in enumerate(zip(result.points, result.psi_trace), start=1):
        print(f"{rank},{format(t, '.12g')},{format(psi, '.12g')}")
    return 0


def _prior_arg(text: str | None):
    if text is None or text == "estimated":
        return None
    return float(text)


def _cmd_train(args) -> int:
    prior = _prior_arg(args.prior)
    dataset = io.read_dataset(args.data, fixed_prior=prior)
    if args.method == "rkc":
        kernel = _parse_kernel(args.kernel) if args.kernel else None
        if args.points:
            points = _floats(args.points)
        elif args.d_max:
            config = SelectionConfig(d_max=args.d_max, delta=args.delta)
            source = oracle_source_from_dataset(dataset, kernel) if kernel else dataset
            points = greedy_select(source, config).points
        else:
            raise DatasetFormatError("rkc training needs --points or --d-max")
        clf = train_rkc(dataset, points, kernel=kernel)
    elif args.method == "knn":
        clf = train_knn(dataset, args.k)
    else:  # argparse choices leave only "centroid"
        clf = train_centroid(dataset, args.r)
    io.write_classifier(clf, args.out)
    return 0


def _cmd_predict(args) -> int:
    clf = io.read_classifier(args.model)
    dataset = io.read_dataset(args.data)
    labels = classify_batch(clf, dataset.curves)
    lines = ["index,label"] + [f"{i},{y}" for i, y in enumerate(labels)]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"error_rate {error_rate(clf, dataset):.6f}", file=sys.stderr)
    return 0


def _cmd_bayes(args) -> int:
    if args.norm is not None:
        norm = args.norm
    elif args.points and args.alphas and args.kernel:
        mean = FiniteExpansionMean(
            kernel=_parse_kernel(args.kernel),
            points=np.array(_floats(args.points)),
            alphas=np.array(_floats(args.alphas)),
        )
        norm = math.sqrt(rkhs_norm_sq(mean))
    else:
        raise DatasetFormatError("bayes needs --norm or (--kernel, --points, --alphas)")
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
    plan = io.read_plan(args.plan)
    report = run_experiment(plan, catalog=_catalog(args))
    io.write_report(report, args.out)
    if args.hist_model:
        hist = variable_recovery_histogram(
            args.hist_model,
            n=args.hist_n,
            runs=args.hist_runs,
            d=args.hist_d,
            grid=standard_grid(plan.grid_count),
            seed=plan.seed,
            catalog=_catalog(args),
        )
        io.write_histogram(hist, args.hist_out)
    return 0


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
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-count", type=int, default=100)
    p.add_argument("--catalog")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("select", help="greedy variable selection on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--delta", type=float)
    p.add_argument("--kernel", help="use an analytic covariance instead of the pooled estimate")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("train", help="fit and persist a classifier")
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=("rkc", "knn", "centroid"), required=True)
    p.add_argument("--points", help="comma-separated grid times for rkc")
    p.add_argument("--d-max", type=int, help="run greedy selection first (rkc)")
    p.add_argument("--delta", type=float)
    p.add_argument("--kernel", help="analytic covariance for oracle rkc")
    p.add_argument("--k", type=int, default=5, help="neighbours for knn")
    p.add_argument("--r", type=int, default=1, help="truncation order for centroid")
    p.add_argument("--prior", help="fixed class-1 prior in (0,1), or 'estimated'")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="apply a persisted classifier to a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("bayes", help="closed-form optimal error")
    p.add_argument("--norm", type=float, help="kernel norm of the mean difference")
    p.add_argument("--kernel")
    p.add_argument("--points")
    p.add_argument("--alphas")
    p.add_argument("--p", type=float, default=0.5)
    p.set_defaults(func=_cmd_bayes)

    p = sub.add_parser("eigen", help="discretized covariance eigensystem")
    p.add_argument("--kernel", required=True)
    p.add_argument("--grid-count", type=int, default=100)
    p.add_argument("--t-min", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=1.0)
    p.add_argument("--max-order", type=int, default=10)
    p.set_defaults(func=_cmd_eigen)

    p = sub.add_parser("bench", help="run an experiment plan, write the report")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--catalog")
    p.add_argument("--hist-model", help="also write a selection histogram for this model")
    p.add_argument("--hist-n", type=int, default=1000)
    p.add_argument("--hist-runs", type=int, default=100)
    p.add_argument("--hist-d", type=int, default=5)
    p.add_argument("--hist-out", default="histogram.csv")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DatasetFormatError as exc:
        print(f"{exc}", file=sys.stderr)
        print("error_code=parse-error")
        return PARSE_EXIT
    except (RkfdaError, ValueError) as exc:
        print(f"{exc}", file=sys.stderr)
        print("error_code=numeric-failure")
        return NUMERIC_EXIT
    except OSError as exc:
        print(f"{exc}", file=sys.stderr)
        print("error_code=parse-error")
        return PARSE_EXIT


if __name__ == "__main__":
    sys.exit(main())
