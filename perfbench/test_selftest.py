"""Self-test of the benchmark: ``python3 -m pytest perfbench``.

Runs every workload at a minimal draw count, untraced and traced, and
checks that every metric BENCHMARK.json declares is reported with its
unit; then checks that the output checks reject corrupted files and that
the tracer sees calls made through names imported into other modules.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import layer_totals  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SCRATCH = run.WORK / "selftest"
MINIMAL_DRAWS = {"sanity": 32, "corr": 16, "fspace": 8, "abc": 32}


@pytest.fixture(scope="module")
def results():
    work = SCRATCH / "work"
    return {(name, trace): run.run_workload(name, seed=3, seconds=0,
                                            trace=trace,
                                            draws=MINIMAL_DRAWS[name],
                                            work=work)
            for name in workloads.WORKLOADS for trace in (False, True)}, work


def test_declared_workloads_match():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert MINIMAL_DRAWS.keys() == workloads.WORKLOADS.keys()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_reported_with_unit(results, name, trace):
    out = results[0][(name, trace)]["result"]
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in out["metrics"].items()}
    for metric in out["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_environment_and_digests_recorded(results, name):
    detail = results[0][(name, False)]["detail"]
    env = detail["environment"]
    for key in ("host", "nproc", "python", "numpy", "blas", "blas_threads",
                "git_sha", "seed", "draws"):
        assert key in env
    assert env["draws"] == MINIMAL_DRAWS[name]
    assert detail["outputs_sha256"]


def _rewrite(path: Path, edit):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    edit(rows)
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


def _swap_rho(rows):
    rows[2][2] = repr(float(rows[2][2]) - 0.5)  # entry (0, 1) only


def _extra_posterior_draw(rows):
    rows.append(["99999"] + rows[1][1:])


def _ks_fails(rows):
    rows[1][1] = repr(float(rows[1][2]) * 2)


def _crossed_quantiles(rows):
    rows[1][1], rows[1][3] = rows[1][3], rows[1][1]


@pytest.mark.parametrize("name,file,edit", [
    ("corr", "corr.csv", _swap_rho),
    ("abc", "posterior.csv", _extra_posterior_draw),
    ("abc", "posterior_eoc.csv", _extra_posterior_draw),
    ("sanity", "summary.csv", _ks_fails),
    ("fspace", "quantiles.csv", _crossed_quantiles),
])
def test_output_check_rejects_corruption(results, name, file, edit):
    out = results[1] / name / "out"
    config = workloads.make_config(workloads.WORKLOADS[name], run.ROOT, 3,
                                   out, MINIMAL_DRAWS[name])
    workloads.CHECKS[name](out, config)  # intact output passes
    copy = SCRATCH / "corrupt" / name
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(out, copy)
    _rewrite(copy / file, edit)
    with pytest.raises(workloads.OutputCheckError):
        workloads.CHECKS[name](copy, config)


def test_tracer_rebinds_names_imported_elsewhere():
    probe = (
        "import sys, depthflow.cli\n"
        "from tracer import Tracer, TRACED\n"
        "mods = [m for n, m in sys.modules.items() if n.startswith('depthflow')]\n"
        "orig = {id(getattr(sys.modules['depthflow.' + m], f)) for m, f, _ in TRACED}\n"
        "Tracer().install()\n"
        "left = [(m.__name__, a) for m in mods for a, v in vars(m).items()\n"
        "        if id(v) in orig]\n"
        "import depthflow.experiments as e, depthflow.sde as s, depthflow.laws as l\n"
        "assert e.resnet_forward.__wrapped__ and s._freeze_diverged.__wrapped__\n"
        "assert l.make_rng.__wrapped__ and s._batched_psd_factor.__wrapped__\n"
        "print(left)\n")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=HERE,
                          env={**run.os.environ,
                               "PYTHONPATH": str(run.ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_self_time_subtracts_children_and_count_taking():
    spans = [["a", None, 0.0, 10.0, 10.0, None],
             ["b", 0, 1.0, 4.0, 5.0, {"rows": 3}],
             ["b", 0, 6.0, 7.0, 7.0, {"rows": 2}],
             ["c", 1, 2.0, 3.0, 3.0, None]]
    totals = layer_totals(spans)
    assert totals["a"] == {"calls": 1, "self_s": 5.0}
    assert totals["b"] == {"calls": 2, "self_s": 3.0, "rows": 5}
    assert totals["c"] == {"calls": 1, "self_s": 1.0}


def test_fails_without_the_program():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(BENCH["command"] + ["--workload", "sanity",
                                              "--seed", "1", "--seconds", "1",
                                              "--trace", "0"],
                          cwd=bare, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
