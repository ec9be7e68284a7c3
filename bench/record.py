"""Record a change's benchmark against its parent, in alternating pairs.

Usage::

    python3 bench/record.py abc:11:10 abc:23:3 sanity:11:5 \\
        [--base REV] [--out PATH]

Each plan item ``WORKLOAD:SEED:PAIRS`` asks for PAIRS pairs of
``perfbench/run.py --workload WORKLOAD --seed SEED --trace 0`` runs, one on
the base tree and one on the head tree, each for ``BENCHMARK.json``'s
``run_seconds``. The head is ``HEAD`` and the base defaults to its first
parent. Both trees are extracted from git with ``git archive`` into a
temporary directory, so uncommitted files take no part. The order flips
every pair (base first, then head first), so a drift of the host over the
recording falls on both sides alike.

The record, ``BENCH_<head sha>.json`` in this directory unless ``--out``
says otherwise, holds every pair, and for each (workload, seed) and each
end-to-end metric of ``BENCHMARK.json``: both medians, the base's
interquartile range and how many pairs the head won. A result whose
``correct`` is false counts as a failed record, though ``run.py`` exits 0
for it: its metrics enter no median.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def git(*args: str, cwd: Path = ROOT) -> bytes:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                          check=True, timeout=120).stdout


def extract(rev: str, into: Path) -> Path:
    """The committed tree of ``rev``, written under ``into``."""
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(into, filter="data")
    return into


def perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perfbench/run.py`` invocation on ``tree``: its
    result object, or ``{"correct": False, "error": ...}`` when it exits
    non-zero or prints no result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"correct": False, "error": f"timed out after {RUN_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["environment"] = json.loads(lines[-2])["environment"]
    except (IndexError, KeyError, ValueError):
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"correct": False,
                "error": f"exit code {proc.returncode}: {tail[0]}"}
    if proc.returncode != 0:
        result["correct"] = False
    return result


def record_pairs(plan, run, trees: dict) -> list:
    """Run each ``(workload, seed, pairs)`` of ``plan`` in alternating
    pairs. ``run(tree, workload, seed)`` returns one result object and
    ``trees`` maps "base" and "head" to the trees. Pair k runs the base
    first when k is even and the head first when k is odd."""
    pairs = []
    for workload, seed, count in plan:
        for k in range(count):
            order = ("base", "head") if k % 2 == 0 else ("head", "base")
            pair = {"workload": workload, "seed": seed, "order": list(order)}
            for side in order:
                pair[side] = run(trees[side], workload, seed)
            pairs.append(pair)
    return pairs


def _metric_values(result: dict) -> dict | None:
    if not result.get("correct"):
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def _iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs: list, metrics: list) -> dict:
    """Per ``"<workload>:<seed>"`` and metric: the base's and head's
    values, their medians, the base's IQR and the pairs the head won.
    ``metrics`` is BENCHMARK.json's ``end_to_end`` list. A pair with a
    failed record on either side is left out of the values, the medians
    and the wins; ``failed`` counts the failed records per side."""
    groups = {}
    for pair in pairs:
        groups.setdefault(f"{pair['workload']}:{pair['seed']}", []).append(pair)
    out = {}
    for key, group in groups.items():
        values = {side: [_metric_values(p[side]) for p in group]
                  for side in ("base", "head")}
        ok = [b is not None and h is not None
              for b, h in zip(values["base"], values["head"])]
        entry = {"pairs": len(group), "complete_pairs": sum(ok),
                 "failed": {side: sum(v is None for v in vals)
                            for side, vals in values.items()},
                 "metrics": {}}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            base = [v[name] for v, keep in zip(values["base"], ok) if keep]
            head = [v[name] for v, keep in zip(values["head"], ok) if keep]
            if not base:
                continue
            wins = sum((h < b) if lower else (h > b)
                       for b, h in zip(base, head))
            base_median = statistics.median(base)
            head_median = statistics.median(head)
            entry["metrics"][name] = {
                "base": base, "head": head,
                "base_median": base_median, "head_median": head_median,
                "change": (head_median - base_median) / base_median
                if base_median else None,
                "base_iqr": _iqr(base), "head_wins": wins,
            }
        out[key] = entry
    return out


def environment() -> dict:
    import numpy as np

    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def parse_plan(items: list) -> list:
    plan = []
    for item in items:
        try:
            workload, seed, count = item.split(":")
            plan.append((workload, int(seed), int(count)))
        except ValueError:
            raise SystemExit(f"record: plan item {item!r} is not "
                             f"WORKLOAD:SEED:PAIRS") from None
    return plan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan", nargs="+", help="WORKLOAD:SEED:PAIRS")
    parser.add_argument("--base", default=None,
                        help="default: the head's first parent")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    plan = parse_plan(args.plan)
    head = git("rev-parse", "HEAD").decode().strip()
    base = git("rev-parse", args.base or f"{head}^").decode().strip()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with tempfile.TemporaryDirectory(prefix="depthflow-record-") as tmp:
        trees = {side: extract(rev, Path(tmp) / side)
                 for side, rev in (("base", base), ("head", head))}

        def run(tree, workload, seed):
            result = perfbench(tree, workload, seed, bench["run_seconds"])
            side = "base" if tree == trees["base"] else "head"
            status = "ok" if result.get("correct") else "FAILED"
            run_s = result.get("metrics", {}).get("run_s", {}).get("value")
            print(f"record: {workload}:{seed} {side} {status} run_s={run_s}",
                  file=sys.stderr)
            return result

        pairs = record_pairs(plan, run, trees)
    env = environment()
    env["blas_threads"] = next(
        (p[s]["environment"].get("blas_threads") for p in pairs
         for s in ("base", "head") if "environment" in p[s]), None)
    record = {
        "base_sha": base, "head_sha": head, "started": started,
        "seconds": bench["run_seconds"], "environment": env,
        "summary": summarize(pairs, bench["end_to_end"]),
        "pairs": pairs,
    }
    out = args.out or HERE / f"BENCH_{head[:12]}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for key, entry in record["summary"].items():
        m = entry["metrics"].get("run_s")
        if m:
            print(f"{key}: run_s {m['base_median']:.3f} -> "
                  f"{m['head_median']:.3f} ({m['change']:+.1%}), head won "
                  f"{m['head_wins']}/{entry['complete_pairs']}, base IQR "
                  f"{m['base_iqr']:.3f}, failed {entry['failed']}")
    print(f"record: wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
