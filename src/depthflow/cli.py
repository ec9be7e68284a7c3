"""Command-line front end: one subcommand per experiment kind.

Usage: ``depthflow <subcommand> --config <path> [--seed N] [--out DIR]
[--scale desk|paper]``. Exit code 0 on success; on failure a JSON object
with the machine-readable error category goes to stderr and the exit code
identifies the category (2 config, 3 format, 4 numerical, 1 other). Run
as a program (:func:`entry`), any other exception is reported as category
``internal`` with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

import numpy as np

from .errors import ConfigError, DepthflowError
from .experiments import (EXPERIMENT_KINDS, apply_overrides, load_config,
                          run_experiment)

CATEGORY_EXIT_CODES = {"config": 2, "format": 3, "numerical": 4}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depthflow",
        description="Monte Carlo experiments on depth-scaled residual "
                    "networks and their limiting diffusions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        sp = sub.add_parser(kind)
        sp.add_argument("--config", required=True,
                        help="path to the experiment config file")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config's master seed")
        sp.add_argument("--out", default=None,
                        help="override the config's output directory")
        sp.add_argument("--scale", choices=("desk", "paper"), default=None,
                        help="size preset overriding model depth/width")
    return parser


def _brief(kind: str, summary: dict) -> dict:
    """Small JSON-safe digest of a runner's summary for stdout."""
    if kind == "sanity_check":
        return {"inputs": summary["inputs"], "ks": summary["ks"],
                "ks_threshold": summary["threshold"]}
    # draws_used of draws: the draws the statistics read, the ones that
    # did not diverge at any input
    if kind == "function_space":
        return {k: summary[k] for k in ("within_draw_sd", "across_draw_sd",
                                        "ratio", "draws_used", "draws")}
    if kind == "corr_heatmap":
        corr = summary["corr"]
        off = corr[~np.eye(corr.shape[0], dtype=bool)]
        return {"inputs": int(corr.shape[0]),
                "min_rho": float(off.min()) if off.size else 1.0,
                "max_rho": float(off.max()) if off.size else 1.0,
                "draws_used": summary["draws_used"],
                "draws": summary["draws"]}
    if kind == "sgd":
        cells = summary["cells"]
        return {"cells": len(cells),
                "diverged": sum(t.diverged for t in cells.values())}
    if kind == "abc":
        return {arm: {"accepted_mean_distance": res["accepted_mean"],
                      "prior_q01": res["quantiles"]["q01"]}
                for arm, res in summary.items()}
    return {}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if cfg.kind != args.command:
            raise ConfigError(
                f"config declares experiment {cfg.kind!r} but the "
                f"{args.command!r} subcommand was invoked"
            )
        cfg = apply_overrides(cfg, seed=args.seed, out=args.out,
                              scale=args.scale)
        summary = run_experiment(cfg)
    except DepthflowError as exc:
        print(json.dumps({"error": exc.category, "message": str(exc)}),
              file=sys.stderr)
        return CATEGORY_EXIT_CODES.get(exc.category, 1)
    print(json.dumps({"experiment": cfg.kind, "out": cfg.out,
                      "seed": cfg.seed, "summary": _brief(cfg.kind, summary)}))
    return 0


def entry(argv=None) -> int:
    """Process entry point: :func:`main`, reporting a defect as JSON.

    Any exception that is not a :class:`DepthflowError` is a defect, not a
    bad input; it goes to stderr as category ``internal`` with its
    traceback, and the exit code is 1. :func:`main` itself lets such
    exceptions propagate to callers that embed it.
    """
    try:
        return main(argv)
    except Exception as exc:
        print(json.dumps({"error": "internal",
                          "message": f"{type(exc).__name__}: {exc}",
                          "traceback": traceback.format_exc()}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(entry())
