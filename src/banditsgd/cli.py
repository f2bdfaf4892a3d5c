"""Command-line front end.

Subcommands: ``run`` (one stream), ``mc`` (replication suite),
``tune-alpha`` (step-size sweep), ``replay`` (evaluate on a logged trial).
A ``--config`` file provides defaults; any flag given on the command line
overrides the file value, its text read as the file's would be.  Exit 0 on
success; 1 on I/O errors or a malformed or out-of-range value, named by its
key (and line, in a config file); 2 on usage errors: an unknown flag, a
missing value, or a value outside a flag's choices.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .experiments import (_CHOICES, _KINDS, ConfigError, _coerce, build_config,
                          load_config_file, run_monte_carlo, run_single, tune_alpha)


def _add_common_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", metavar="PATH", help="flat key = value config file")
    sp.add_argument("--model", choices=_CHOICES["model"])
    sp.add_argument("--p", metavar="N", help="feature dimension")
    sp.add_argument("--beta0", metavar="v1,...,v2p", help="true parameters, comma separated")
    sp.add_argument("--sigma2", metavar="F", help="reward noise variance (linear)")
    sp.add_argument("--alpha", metavar="F", help="learning-rate constant")
    sp.add_argument("--gamma", metavar="F", help="learning-rate exponent (default 0.501)")
    sp.add_argument("--eps", metavar="SPEC", help="exploration: fixed:F or decay:EXP,FLOOR")
    sp.add_argument("--burn-in", metavar="N",
                    help="pure-exploration steps at the start (default 50)")
    sp.add_argument("--horizon", metavar="N", help="decision steps per run")
    sp.add_argument("--reps", metavar="N", help="replications for suites")
    sp.add_argument("--seed", metavar="N")
    sp.add_argument("--checkpoints", metavar="t1,t2,...", help="steps at which to report")
    sp.add_argument("--hessian", choices=(*_CHOICES["hessian"], "paper"),
                    help="curvature form: analytic second derivative, or the "
                         "squared-residual outer product ('paper' is an alias for 'outer')")
    sp.add_argument("--aipw", action="store_const", const="true",
                    help="also report the augmented value estimator (experimental)")
    sp.add_argument("--ridge", action="store_const", const="true",
                    help="stabilize a singular curvature with a small ridge")
    sp.add_argument("--value-skip-burn-in", action="store_const", const="true",
                    help="exclude burn-in steps from the value sums")
    sp.add_argument("--workers", metavar="N", help="worker processes for suites")
    sp.add_argument("--level", metavar="F", help="confidence level (default 0.95)")
    sp.add_argument("--replay-log", metavar="PATH")
    sp.add_argument("--trace", metavar="PATH", help="per-step CSV trace (run only)")
    sp.add_argument("--out", metavar="DIR", help="output directory (default results)")
    sp.add_argument("--format", choices=_CHOICES["format"])


# Flags share the config's field names and are parsed as file values are;
# oracle_draws has no flag, so its getattr returns None and it is skipped.
def _overrides_from_args(args: argparse.Namespace) -> dict:
    out = {}
    for key in _KINDS:
        v = getattr(args, key, None)
        if v is not None:
            out[key] = _coerce(key, v)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banditsgd",
        description="Streaming epsilon-greedy decisions with averaged SGD and online inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "run one seeded stream and write checkpoint reports"),
        ("mc", "run a Monte Carlo replication suite and summarize coverage"),
        ("tune-alpha", "compare running loss across learning-rate constants"),
        ("replay", "evaluate the policy against a logged randomized trial"),
    ):
        sp = sub.add_parser(name, help=help_text)
        _add_common_flags(sp)
        if name == "tune-alpha":
            sp.add_argument("--alpha-grid", required=True, metavar="a1,a2,...",
                            help="learning-rate constants to compare")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_values = load_config_file(args.config) if args.config else None
        config = build_config(file_values, _overrides_from_args(args))
        # A diverged run shows in its flags and non-finite numbers, not in numpy
        # warnings; forked suite workers inherit this state.
        with np.errstate(all="ignore"):
            if args.command in ("run", "replay"):
                if args.command == "replay" and config.replay_log is None:
                    raise ConfigError("replay requires --replay-log PATH")
                out = run_single(config)
                for path in out.paths:
                    print(path)
                if out.replay_stats is not None:
                    s = out.replay_stats
                    print(f"matched {s['matched']} of {s['consumed']} entries "
                          f"(fraction {s['matched_fraction']:.4f})")
                    if not len(out.reports.t):
                        print("warning: no log entry matched, so no report was written",
                              file=sys.stderr)
            elif args.command == "mc":
                summary = run_monte_carlo(config)
                print(f"{config.out}/mc_summary.{config.format}")
                if summary.failures:
                    print(f"warning: {summary.failures} replication(s) failed and were excluded",
                          file=sys.stderr)
            elif args.command == "tune-alpha":
                result = tune_alpha(config, args.alpha_grid.split(","))
                print(f"{config.out}/tune_alpha.{config.format}")
                print(f"best alpha: {result.best_alpha:g}")
                for alpha, loss in result.final_loss.items():
                    if not math.isfinite(loss):
                        print(f"warning: alpha {alpha:g} diverged (final loss {loss})",
                              file=sys.stderr)
                if math.isnan(result.best_alpha):
                    print("warning: no alpha reached a finite final loss", file=sys.stderr)
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
