"""depthflow benchmark: one workload, closed loop, one CLI process per run.

Usage::

    python3 perfbench/run.py --workload {sanity,corr,fspace,abc} \\
        --seed N --seconds S --trace {0,1}

Writes the workload's config from the shipped one (see workloads.py), then
runs ``depthflow.cli.main`` on it in fresh processes, one after another,
for about ``S`` seconds. Every run's output files are checked and hashed;
runs of one seed must write byte-identical files.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over the runs); with ``--trace 1`` untraced and traced runs
alternate and it reports the per-layer metrics of the traced runs plus
the tracing overhead. Scratch files go to ``.perfbench_work/`` at the
repository root. See README.md in this directory for the metric tables.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

import workloads
from tracer import SPAN_NAMES, layer_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"
# One BLAS thread: the runs are closed-loop from a single process, and on a
# small shared host a second thread added jitter without saving time.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 120
# set-up-only processes per untraced invocation; setup_s is their median.
# Set-up right after a full run reads about a third slower, so mixing in the
# full runs' set-up would make the median depend on how many runs fit.
SETUP_RUNS = 5

END_TO_END_UNITS = {
    "run_s": "s",
    "draws_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "success_frac": "frac",
}

PER_LAYER_UNITS = {
    "config.make_rng.calls": "count",
    "config.make_rng.self_s": "s",
    "laws.sample_eps.calls": "count",
    "laws.sample_eps.self_s": "s",
    "laws.sample_eps.normals": "count",
    "laws.scale_eps.self_s": "s",
    "resnet.resnet_forward.self_s": "s",
    "resnet.resnet_forward.state_mb": "MiB",
    "resnet.resnet_forward.state_used_frac": "frac",
    "resnet.resnet_forward.diverged": "count",
    "resnet._freeze_diverged.calls": "count",
    "resnet._freeze_diverged.self_s": "s",
    "resnet._freeze_diverged.flag_frac": "frac",
    "resnet._batched_psd_factor.calls": "count",
    "resnet._batched_psd_factor.self_s": "s",
    "resnet.eoc_solve.calls": "count",
    "resnet.eoc_solve.self_s": "s",
    "sde.simulate_paths.self_s": "s",
    "sde.simulate_paths.diverged": "count",
    "sde._batched_drift.self_s": "s",
    "sde._scaled_noise_term.self_s": "s",
    "stats.kde1d.self_s": "s",
    "stats.ks_two_sample.self_s": "s",
    "stats.corr_over_inputs.self_s": "s",
    "stats.summarize.self_s": "s",
    "experiments.run_experiment.self_s": "s",
    "experiments.write_csv.calls": "count",
    "experiments.write_csv.self_s": "s",
    "experiments.write_csv.rows": "count",
    "experiments.output_bytes": "bytes",
    "experiments.svg_heatmap.self_s": "s",
    "experiments._abc_outputs.calls": "count",
    "experiments._abc_outputs.self_s": "s",
    "experiments._abc_outputs.kept_frac": "frac",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run or its trace is incomplete."""


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(totals: dict, output_bytes: int) -> dict:
    """Per-layer metric values of one traced run (without trace.*)."""
    def get(span, key):
        return totals.get(span, {}).get(key, 0)

    values = {"experiments.output_bytes": output_bytes}
    for span in SPAN_NAMES:
        for key in ("calls", "self_s"):
            name = f"{span}.{key}"
            if name in PER_LAYER_UNITS:
                values[name] = get(span, key)
    fwd, sde = "resnet.resnet_forward", "sde.simulate_paths"
    freeze, abc = "resnet._freeze_diverged", "experiments._abc_outputs"
    values.update({
        "laws.sample_eps.normals": get("laws.sample_eps", "normals"),
        f"{fwd}.state_mb": get(fwd, "state_bytes") / 2 ** 20,
        f"{fwd}.state_used_frac": _ratio(get(fwd, "state_used_bytes"),
                                         get(fwd, "state_bytes")),
        f"{fwd}.diverged": get(fwd, "diverged"),
        f"{sde}.diverged": get(sde, "diverged"),
        f"{freeze}.flag_frac": _ratio(get(freeze, "flagged"),
                                      get(freeze, "checked")),
        "experiments.write_csv.rows": get("experiments.write_csv", "rows"),
        f"{abc}.kept_frac": _ratio(get(abc, "replay_kept"),
                                   get(abc, "replay_generated")),
    })
    return values


def environment(workload, seed, config) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    sha = None  # a checkout without git metadata has no SHA to report
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": BLAS_THREADS,
        "git_sha": sha,
        "workload": workload.name,
        "seed": seed,
        "draws": workloads.draw_count(config),
    }


class Runner:
    """Runs one workload's config in fresh CLI processes and checks them."""

    def __init__(self, workload, seed: int, draws: int | None = None,
                 work: Path = WORK):
        self.workload = workload
        self.work = work / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.out = self.work / "out"
        self.config = workloads.make_config(workload, ROOT, seed, self.out,
                                            draws)
        self.config_path = self.work / "config.yaml"
        with open(self.config_path, "w") as f:
            yaml.safe_dump(self.config, f, sort_keys=False)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                   if os.environ.get("PYTHONPATH") else []))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.digests = None
        self.runs = []

    def run_once(self, mode: str) -> dict:
        """One CLI process in ``mode`` (see child.py); returns its record."""
        shutil.rmtree(self.out, ignore_errors=True)
        record_path = self.work / "record.json"
        record_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(CHILD), str(record_path), mode,
               self.config["experiment"], "--config", str(self.config_path)]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        run = {"mode": mode, "wall_s": time.monotonic() - t0,
               "error": self._failure(proc, mode)}
        if record_path.is_file():
            rec = json.loads(record_path.read_text())
            if rec["enter"] is not None:
                run["setup_s"] = rec["enter"] - t0
            if rec["exit"] is not None:
                run["run_s"] = rec["exit"] - rec["enter"]
            run["peak_rss_mb"] = rec["maxrss_kb"] / 1024
            run["blas_threads"] = rec["blas_threads"]
            run["spans"] = rec["spans"]
            imported = Path(rec["depthflow_file"]).resolve()
            if run["error"] is None and (ROOT / "src") not in imported.parents:
                run["error"] = f"imported {rec['depthflow_file']}"
        reached = "setup_s" if mode == "setup" else "run_s"
        if run["error"] is None and reached not in run:
            run["error"] = "run_experiment was not reached"
        if self.out.is_dir():
            run["output_bytes"] = sum(p.stat().st_size
                                      for p in self.out.rglob("*")
                                      if p.is_file())
        self.runs.append(run)
        return run

    def _failure(self, proc, mode: str) -> str | None:
        if proc is None:
            return f"timed out after {CHILD_TIMEOUT_S} s"
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return f"exit code {proc.returncode}: {tail[0]}"
        if mode == "setup":
            return None
        try:
            json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return "CLI printed no JSON result"
        if not self.out.is_dir() or not any(self.out.iterdir()):
            return "run wrote no output"
        try:
            workloads.CHECKS[self.workload.name](self.out, self.config)
        except workloads.OutputCheckError as exc:
            return f"output check: {exc}"
        digests = workloads.output_digests(self.out)
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            return "output differs from an earlier run of the same seed"
        return None

    def loop(self, seconds: float, trace: bool):
        """Closed loop until the next run would overrun ``seconds``.

        Untraced runs after a few set-up-only runs, or untraced and traced
        runs alternating; at least one run of each kind.
        """
        start = time.monotonic()
        modes = ("run", "trace") if trace else ("run",)
        if not trace:
            for _ in range(SETUP_RUNS):
                self.run_once("setup")
        k = 0
        while True:
            self.run_once(modes[k % len(modes)])
            k += 1
            walls = [r["wall_s"] for r in self.runs if r["mode"] != "setup"]
            elapsed = time.monotonic() - start
            if k >= len(modes) and \
                    elapsed + statistics.median(walls) > seconds:
                return


def _median(values):
    values = list(values)
    if not values:
        raise BenchError("no run completed")
    return statistics.median(values)


def end_to_end(runner: Runner) -> dict:
    full = [r for r in runner.runs if r["mode"] == "run" and "run_s" in r]
    draws = workloads.draw_count(runner.config)
    ok = sum(1 for r in runner.runs if r["error"] is None)
    return {
        "run_s": _median(r["run_s"] for r in full),
        "draws_per_s": _median(draws / r["run_s"] for r in full),
        "setup_s": _median(r["setup_s"] for r in runner.runs
                           if r["mode"] == "setup" and "setup_s" in r),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in full),
        "success_frac": ok / len(runner.runs),
    }


def _traced(runner: Runner) -> list:
    return [r for r in runner.runs
            if r["mode"] == "trace" and r.get("spans")]


def per_layer(runner: Runner) -> dict:
    traced = _traced(runner)
    samples = []
    for run in traced:
        totals = layer_totals(run["spans"])
        missing = [s for s in runner.workload.expected_spans
                   if totals.get(s, {}).get("calls", 0) == 0]
        if missing:
            raise BenchError(f"traced run of {runner.workload.name} recorded "
                             f"no calls to {', '.join(missing)}")
        samples.append(layer_metrics(totals, run.get("output_bytes", 0)))
    values = {name: _median(s[name] for s in samples)
              for name in PER_LAYER_UNITS if not name.startswith("trace.")}
    values["trace.run_s"] = _median(r["run_s"] for r in traced)
    values["trace.overhead_s"] = values["trace.run_s"] - _median(
        r["run_s"] for r in runner.runs if r["mode"] == "run" and "run_s" in r)
    return values


def top_spans(runner: Runner, n: int = 6) -> list:
    traced = _traced(runner)
    totals = layer_totals(traced[-1]["spans"]) if traced else {}
    ranked = sorted(totals.items(), key=lambda kv: -kv[1]["self_s"])[:n]
    return [(name, t["calls"], round(t["self_s"], 4)) for name, t in ranked]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 draws: int | None = None, work: Path = WORK) -> dict:
    """Run one benchmark invocation and return its result object."""
    for needed in (ROOT / "src" / "depthflow" / "cli.py", ROOT / "configs"):
        if not needed.exists():
            raise BenchError(f"{needed} not found; run from a depthflow "
                             f"checkout")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))  # for the output checks
    runner = Runner(workloads.WORKLOADS[name], seed, draws, work)
    runner.loop(seconds, trace)
    metrics = per_layer(runner) if trace else end_to_end(runner)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    failed = sum(1 for r in runner.runs if r["error"] is not None)
    env = environment(runner.workload, seed, runner.config)
    env["blas_threads"] = next((r["blas_threads"] for r in runner.runs
                                if "blas_threads" in r), None)
    detail = {
        "environment": env,
        "samples": {m: sum(1 for r in runner.runs if r["mode"] == m)
                    for m in ("setup", "run", "trace")},
        "outputs_sha256": runner.digests,
        "top_spans": top_spans(runner),
        "runs": [{k: v for k, v in r.items() if k != "spans"}
                 for r in runner.runs],
    }
    spans = [r["spans"] for r in runner.runs if r.get("spans")]
    if spans:
        (runner.work / "spans.json").write_text(json.dumps(spans))
    (runner.work / "detail.json").write_text(json.dumps(detail, indent=1))
    return {
        "detail": detail,
        "result": {
            "correct": failed == 0,
            "attempted": len(runner.runs),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for run in out["detail"]["runs"]:
        if run["error"]:
            print(f"perfbench: failed run: {run['error']}", file=sys.stderr)
    if args.trace:
        print("perfbench: top spans by self time (name, calls, self_s): "
              f"{out['detail']['top_spans']}", file=sys.stderr)
    print(json.dumps({k: out["detail"][k]
                      for k in ("environment", "samples", "outputs_sha256")}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
