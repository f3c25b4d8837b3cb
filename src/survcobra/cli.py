"""Batch command-line front end.

    survcobra bench     --config cfg.json [--seed N] [--out DIR] [--jobs N]
    survcobra simulate  --config cfg.json [--seed N] [--out DIR]
    survcobra tune      --config cfg.json [--seed N] [--out DIR]
    survcobra relevance --config cfg.json [--seed N] [--out DIR]

Exit codes: 0 success, 1 configuration or input error (a learner whose
solver does not converge on the data is one), 2 internal error.
Report files land in the output directory only after the computation
finished, and rerunning with the same config and seed reproduces them
byte for byte.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from .exceptions import ConfigError, ConvergenceError, TuningError
from .experiments import (
    load_config,
    run_bench,
    run_relevance,
    run_simulate,
    run_tune,
    write_bench_reports,
    write_relevance_reports,
    write_run_metadata,
    write_tune_reports,
)


_RELEVANCE_RUNNERS = {"simulate": run_simulate, "relevance": run_relevance}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is an input error: one line, exit 1
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="survcobra",
        description="Survival-curve ensemble experiments: benchmark, tune, simulate, relevance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("bench", "cross-validated benchmark of the base learners and the ensemble"),
        ("simulate", "synthetic-population covariate-relevance study"),
        ("tune", "random search over (epsilon, alpha, l_fraction)"),
        ("relevance", "covariate-relevance study on a CSV dataset"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="experiment config (JSON)")
        cmd.add_argument("--seed", type=int, default=None, help="override the master seed")
        cmd.add_argument("--out", default=None, help="override the output directory")
        cmd.add_argument("--jobs", type=int, default=1, help="parallel workers (bench folds)")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg, raw = load_config(args.config, seed=args.seed)  # run.json echoes the effective seed
        if args.jobs < 1:
            raise ConfigError("--jobs must be at least 1")
        out = Path(cfg.out_dir if args.out is None else args.out)

        if args.command == "bench":
            results = run_bench(cfg, args.jobs)
            write_bench_reports(cfg, results, out)
            extra = {"folds": cfg.folds}
        elif args.command == "tune":
            best, trace = run_tune(cfg)
            write_tune_reports(cfg, best, trace, out)
            extra = {"trials": len(trace)}
        else:
            model, params, study, curves, tuning = _RELEVANCE_RUNNERS[args.command](cfg)
            write_relevance_reports(cfg, model.split.d_l.feature_names, study, curves, out)
            if tuning is not None:
                write_tune_reports(cfg, *tuning, out)
            extra = {"epsilon": params.epsilon, "alpha": params.alpha, "l_fraction": params.l_fraction}
        write_run_metadata(cfg, args.command, raw, out, extra=extra)
    except (ConfigError, OSError, ValueError, TuningError) as exc:
        print(f"survcobra: error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        where = f"{exc.learner}: " if exc.learner else ""
        print(f"survcobra: error: {where}solver did not converge: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
