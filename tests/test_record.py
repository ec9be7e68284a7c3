"""The benchmark recorder's pairing and arithmetic, on a fake runner that
starts no subprocess."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def load_recorder():
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  ROOT / "bench" / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


record = load_recorder()


def result(run_s, correct=True):
    values = {m["name"]: 1.0 for m in METRICS}
    values["run_s"] = run_s
    return {"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
            "metrics": {k: {"value": v, "unit": "s"}
                        for k, v in values.items()}}


class FakeRunner:
    """Hands out canned run_s values per tree, in call order, and logs
    each call."""

    def __init__(self, values):
        self.values = {tree: list(v) for tree, v in values.items()}
        self.calls = []

    def __call__(self, tree, workload, seed):
        self.calls.append((tree, workload, seed))
        run_s = self.values[tree].pop(0)
        return result(abs(run_s), correct=run_s >= 0)


def test_pairs_alternate_and_flip_the_order():
    fake = FakeRunner({"B": [1.0, 1.1, 0.9, 5.0], "H": [0.8, 0.7, 0.85, 0.5]})
    pairs = record.record_pairs([("abc", 11, 3), ("corr", 23, 1)], fake,
                                {"base": "B", "head": "H"})
    assert [c[0] for c in fake.calls] == ["B", "H", "H", "B", "B", "H",
                                          "B", "H"]
    assert [(p["workload"], p["seed"]) for p in pairs] == \
        [("abc", 11)] * 3 + [("corr", 23)]
    assert [p["order"] for p in pairs[:2]] == [["base", "head"],
                                               ["head", "base"]]
    # each side's result lands under its own name, whatever the order
    assert [p["base"]["metrics"]["run_s"]["value"] for p in pairs] == \
        [1.0, 1.1, 0.9, 5.0]


def test_medians_iqr_and_wins():
    base = [1.0, 1.2, 0.9, 1.1, 1.3]
    head = [0.8, 1.25, 0.7, 0.75, 0.9]
    fake = FakeRunner({"B": base, "H": head})
    pairs = record.record_pairs([("abc", 11, 5)], fake,
                                {"base": "B", "head": "H"})
    run_s = record.summarize(pairs, METRICS)["abc:11"]["metrics"]["run_s"]
    assert run_s["base"] == base and run_s["head"] == head
    assert run_s["base_median"] == 1.1
    assert run_s["head_median"] == 0.8
    assert run_s["change"] == pytest.approx(-0.3 / 1.1)
    # inclusive quartiles of 0.9, 1.0, 1.1, 1.2, 1.3
    assert run_s["base_iqr"] == pytest.approx(0.2)
    # lower is better for run_s: the head lost pair 2 only
    assert run_s["head_wins"] == 4


def test_higher_is_better_metrics_win_upwards():
    fake = FakeRunner({"B": [1.0, 2.0], "H": [0.5, 1.0]})
    pairs = record.record_pairs([("abc", 11, 2)], fake,
                                {"base": "B", "head": "H"})
    for pair, (b, h) in zip(pairs, [(100.0, 200.0), (100.0, 50.0)]):
        pair["base"]["metrics"]["draws_per_s"]["value"] = b
        pair["head"]["metrics"]["draws_per_s"]["value"] = h
    metrics = record.summarize(pairs, METRICS)["abc:11"]["metrics"]
    assert metrics["draws_per_s"]["head_wins"] == 1
    assert metrics["run_s"]["head_wins"] == 2


def test_incorrect_result_is_a_failed_record():
    # perfbench exits 0 for a run whose output check failed; its result
    # says correct: false, and its metrics must enter no median. A
    # negative canned value marks such a result here
    fake = FakeRunner({"B": [1.0, 1.0, 1.0], "H": [0.5, -0.1, 0.7]})
    pairs = record.record_pairs([("sanity", 11, 3)], fake,
                                {"base": "B", "head": "H"})
    entry = record.summarize(pairs, METRICS)["sanity:11"]
    assert entry["failed"] == {"base": 0, "head": 1}
    assert entry["pairs"] == 3 and entry["complete_pairs"] == 2
    assert entry["metrics"]["run_s"]["head"] == [0.5, 0.7]
    assert entry["metrics"]["run_s"]["head_median"] == 0.6


def test_plan_items_parse():
    assert record.parse_plan(["abc:11:10", "corr:23:3"]) == \
        [("abc", 11, 10), ("corr", 23, 3)]
    with pytest.raises(SystemExit):
        record.parse_plan(["abc:11"])
