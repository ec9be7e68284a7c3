import csv
import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from depthflow import (ExperimentConfig, apply_overrides, load_config,
                       parse_config, run_experiment, save_config)
from depthflow import experiments
from depthflow.cli import entry, main
from depthflow.errors import ConfigError
from depthflow.experiments import (CHOICES, DATASET_KEYS, EXPERIMENT_KINDS,
                                   LEAST, MODEL_KINDS, AbcSpec, InputGrid,
                                   ModelSpec, SgdSpec, fmt, read_svg_matrix,
                                   svg_heatmap, write_csv)
from depthflow.stats import corr_over_inputs, ks_two_sample

CONFIGS_DIR = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = sorted(CONFIGS_DIR.glob("*.yaml"))


def tiny_overrides(kind, out, **extra):
    raw = {
        "experiment": kind,
        "seed": 11,
        "out": str(out),
        "model": {"kind": "diffusion", "activation": "tanh",
                  "inner": "identity", "sigma_w2": 1.0, "sigma_b2": 1.0,
                  "depth": 8, "width": 8, "horizon": 1.0},
        "inputs": {"values": [0.0, 1.0]},
        "draws": 200,
        "functions": 5,
    }
    raw.update(extra)
    return raw


def write_config(tmp_path, raw, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path


INF, NAN = float("inf"), float("nan")

# (config entries, key the error must name): non-finite values that parse
# as floats
NON_FINITE = [
    pytest.param({"inputs": {"grid": {"start": -INF}}}, "inputs.grid.start",
                 id="grid-start"),
    pytest.param({"inputs": {"values": [NAN, 1.0]}}, "inputs.values",
                 id="values-nan"),
    pytest.param({"model": {"sigma_w2": INF}}, "model.sigma_w2",
                 id="sigma_w2"),
    pytest.param({"model": {"sigma_b2": INF}}, "model.sigma_b2",
                 id="sigma_b2"),
    pytest.param({"model": {"horizon": INF}}, "model.horizon", id="horizon"),
]


class TestConfigParsing:
    def test_defaults_fill_in(self):
        cfg = parse_config({"experiment": "sanity_check"})
        assert cfg.seed == 0
        assert cfg.model.depth == 64
        assert cfg.inputs == (0.0, 1.0)

    def test_missing_experiment_kind(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config({"seed": 1})

    def test_unknown_key_names_location(self):
        with pytest.raises(ConfigError, match="model.*depht"):
            parse_config({"experiment": "abc",
                          "model": {"depht": 3}})

    def test_type_error_names_key_path(self):
        with pytest.raises(ConfigError, match="model.depth"):
            parse_config({"experiment": "abc",
                          "model": {"depth": "many"}})
        # int(inf) raises OverflowError, not ValueError
        with pytest.raises(ConfigError, match="model.depth"):
            parse_config({"experiment": "abc",
                          "model": {"depth": float("inf")}})
        with pytest.raises(ConfigError, match="seed"):
            parse_config({"experiment": "abc", "seed": float("inf")})

    @pytest.mark.parametrize("key, value", [
        pytest.param("depth", 0, id="depth"),
        pytest.param("width", 0, id="width"),
        pytest.param("horizon", 0.0, id="horizon"),
        pytest.param("sigma_w2", float("nan"), id="sigma_w2-nan"),
    ])
    def test_nonpositive_model_size_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"model.{key}"):
            parse_config({"experiment": "abc", "model": {key: value}})

    @pytest.mark.parametrize("entries, where", NON_FINITE + [
        pytest.param({"inputs": {"grid": {"start": -1e308, "stop": 1e308}}},
                     "inputs.grid", id="grid-spacing-overflows"),
        pytest.param({"abc": {"observations": [[0.0, NAN]]}},
                     r"abc.observations\[0\]", id="observation-nan"),
    ])
    def test_non_finite_value_names_key(self, entries, where):
        with pytest.raises(ConfigError, match=f"{where}.*finite"):
            parse_config({"experiment": "abc", **entries})

    @pytest.mark.parametrize("train, where", [
        ({"depths": ["eight"]}, "train.depths"),
        ({"widths": [32, 1.5]}, "train.widths"),
        ({"depths": 8}, "train.depths"),
        ({"modes": [None]}, "train.modes"),
        ({"dataset": {"kind": "toy_blobs", "n": "many"}}, "train.dataset.n"),
        ({"dataset": {"kind": "idx", "test_n": [1]}}, "train.dataset.test_n"),
        ({"dataset": {1: 2, "kind": "toy_blobs"}}, "train.dataset.*1"),
        ({"dataset": {"kind": "toy_blobs", "clases": 3}},
         "train.dataset.*clases"),
    ])
    def test_train_entries_coerced(self, train, where):
        with pytest.raises(ConfigError, match=where):
            parse_config({"experiment": "sgd", "train": train})

    def test_grid_inputs_expand(self):
        cfg = parse_config({"experiment": "corr_heatmap",
                            "inputs": {"grid": {"start": 0.0, "stop": 1.0,
                                                "points": 5}}})
        assert cfg.inputs == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_grid_larger_than_memory_refused(self, monkeypatch):
        with pytest.raises(ConfigError, match=r"^inputs\.grid\.points: "):
            parse_config({"experiment": "corr_heatmap",
                          "inputs": {"grid": {"points": 10_000_000_000_000}}})
        # a 1000-byte machine holds the parse of 25 inputs, not 26
        monkeypatch.setattr("depthflow.experiments._memory_limit",
                            lambda: 1000)
        grid = {"start": 0.0, "stop": 1.0}
        cfg = parse_config({"experiment": "corr_heatmap",
                            "inputs": {"grid": {**grid, "points": 25}}})
        assert len(cfg.inputs) == 25
        with pytest.raises(ConfigError, match=r"^inputs\.grid\.points: "
                                              r"26 inputs need 1040 bytes"):
            parse_config({"experiment": "corr_heatmap",
                          "inputs": {"grid": {**grid, "points": 26}}})

    def test_grid_check_covers_the_parse_peak(self, monkeypatch):
        # the bytes the check asks of a grid are what parsing it holds at
        # its peak, to 1%: the parsed tuple of Python floats, and the list
        # it is copied from
        def raw():
            return {"experiment": "corr_heatmap",
                    "inputs": {"grid": {"start": 0.0, "stop": 1.0,
                                        "points": 100_000}}}

        monkeypatch.setattr("depthflow.experiments._memory_limit",
                            lambda: 1)
        with pytest.raises(ConfigError) as info:
            parse_config(raw())
        need = int(re.search(r"need (\d+) bytes", str(info.value))[1])
        monkeypatch.undo()
        tracemalloc.start()
        try:
            parse_config(raw())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.01 * need

    def test_abc_keep_exceeds_draws(self):
        with pytest.raises(ConfigError, match="keep"):
            parse_config({"experiment": "abc",
                          "abc": {"prior_draws": 5, "keep": 6}})

    def test_round_trip_identity(self, tmp_path):
        raw = tiny_overrides("abc", tmp_path / "o",
                             abc={"observations": [[0.0, 0.3], [1.0, -0.2]],
                                  "prior_draws": 50, "keep": 3})
        first = parse_config(raw)
        path = tmp_path / "rt.yaml"
        save_config(first, path)
        assert load_config(path) == first

    @pytest.mark.parametrize("path", SHIPPED, ids=[p.stem for p in SHIPPED])
    def test_round_trip_identity_of_shipped_config(self, tmp_path, path):
        first = load_config(path)
        save_config(first, tmp_path / "rt.yaml")
        assert load_config(tmp_path / "rt.yaml") == first

    def test_scale_override_resets_sizes(self):
        cfg = parse_config({"experiment": "sanity_check"})
        desk = apply_overrides(cfg, scale="desk")
        paper = apply_overrides(cfg, scale="paper")
        assert (desk.model.depth, desk.model.width) == (64, 64)
        assert (paper.model.depth, paper.model.width) == (500, 500)
        with pytest.raises(ConfigError, match="scale"):
            apply_overrides(cfg, scale="huge")


def spec_defaults(cls=ExperimentConfig, path=""):
    """Default of every config key, by dotted key path, from the specs."""
    out = {}
    for f in dataclasses.fields(cls):
        key = f.metadata.get("key", f.name)
        loc = f"{path}.{key}" if path else key
        out[loc] = f.default
        if dataclasses.is_dataclass(f.default):
            out.update(spec_defaults(type(f.default), loc))
    return out


KEY_DEFAULTS = {**spec_defaults(), **spec_defaults(InputGrid, "inputs.grid"),
                **{f"train.dataset.{key}": kind()
                   for key, kind in DATASET_KEYS.items()}}


def config_at(path, value):
    """A config that parses, but for ``value`` at the dotted key ``path``."""
    raw = {"experiment": "sgd", "abc": {"observations": [[0.0, 0.0]]}}
    *blocks, key = path.split(".")
    node = raw
    for block in blocks:
        node = node.setdefault(block, {})
    node[key] = value
    return raw


def as_entry(path, value):
    """``value`` as the key's own form: a one-entry list for a list key."""
    return [value] if isinstance(KEY_DEFAULTS[path], tuple) else value


def test_table_entries_name_real_keys():
    # a typo in a table entry would silently drop its check
    assert set(LEAST) <= set(KEY_DEFAULTS)
    assert set(CHOICES) <= set(KEY_DEFAULTS)


@pytest.mark.parametrize("path", sorted(LEAST))
def test_least_bound_enforced(path):
    bound = LEAST[path]
    default = KEY_DEFAULTS[path]
    entry = default[0] if isinstance(default, tuple) else default
    below = (bound - 1 if isinstance(entry, int)
             else math.nextafter(bound, -math.inf))
    parse_config(config_at(path, as_entry(path, bound)))
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: must be >= "):
        parse_config(config_at(path, as_entry(path, below)))


@pytest.mark.parametrize("path", sorted(CHOICES))
def test_choices_enforced(path):
    for choice in CHOICES[path]:
        parse_config(config_at(path, as_entry(path, choice)))
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: expected "
                                          r"one of"):
        parse_config(config_at(path, as_entry(path, "no-such-choice")))


# the words a config's string values are checked against
CONFIG_WORDS = (EXPERIMENT_KINDS + MODEL_KINDS
                + ("tanh", "swish", "identity", "relu", "reparametrized",
                   "standard", "toy_blobs", "idx"))


def _fields(spec):
    return [f.name for f in dataclasses.fields(spec)]


def config_mappings(keys, nested=None, max_size=3):
    """Mappings over a few of ``keys``: each value is the key's own block
    (from ``nested``) or anything, including mappings over ``keys``."""
    nested = nested or {}
    keys = sorted(keys)
    anything = st.recursive(
        st.none() | st.booleans() | st.floats()
        # small, so that inputs.grid.points cannot ask for a huge array
        | st.integers(-10_000, 10_000)
        | st.sampled_from(CONFIG_WORDS) | st.text(max_size=4),
        lambda inner: (st.lists(inner, max_size=3)
                       | st.dictionaries(st.sampled_from(keys), inner,
                                         max_size=3)),
        max_leaves=6)
    entry = st.sampled_from(keys).flatmap(lambda k: st.tuples(
        st.just(k), nested.get(k, st.nothing()) | anything))
    return st.lists(entry, max_size=max_size).map(dict)


CONFIGS = st.builds(
    lambda kind, rest: {**rest, "experiment": kind},
    st.sampled_from(EXPERIMENT_KINDS),
    config_mappings(
        ["seed", "out", "model", "inputs", "draws", "functions", "train",
         "abc"],
        {"model": config_mappings(_fields(ModelSpec)),
         "inputs": config_mappings(["values", "grid"], {
             "grid": config_mappings(["start", "stop", "points"])}),
         "train": config_mappings(_fields(SgdSpec), {
             "dataset": config_mappings(DATASET_KEYS)}),
         "abc": config_mappings(_fields(AbcSpec))}))


@settings(max_examples=300, deadline=None, derandomize=True)
@example(raw={"experiment": "sanity_check", "seed": float("inf")})
@example(raw={"experiment": "sgd",
              "train": {"dataset": {1: 2, "kind": "toy_blobs"}}})
@example(raw={"experiment": "corr_heatmap",
              "inputs": {"grid": {"start": -INF}}})
@example(raw={"experiment": "function_space",
              "inputs": {"values": [NAN, 1.0]}})
@example(raw={"experiment": "sanity_check", "model": {"sigma_w2": INF}})
@example(raw={"experiment": "sanity_check", "model": {"sigma_b2": INF}})
@example(raw={"experiment": "sanity_check", "model": {"horizon": INF}})
@example(raw={"experiment": "sgd", "train": {"depths": [0]}})
@example(raw={"experiment": "sgd", "train": {"widths": [-3]}})
@example(raw={"experiment": "sgd", "train": {"batch_size": 0}})
@example(raw={"experiment": "sgd", "train": {"learning_rate": -1.0}})
@example(raw={"experiment": "function_space", "functions": -5})
@example(raw={"experiment": "sgd", "train": {"dataset": {
    "kind": "toy_blobs", "n": -5, "classes": 0}}})
@example(raw={"experiment": "sgd", "train": {"dataset": {"features": 0}}})
@example(raw={"experiment": "sgd", "train": {"dataset": {"test_n": 0}}})
@given(raw=CONFIGS)
def test_parse_config_yields_config_or_config_error(raw):
    try:
        cfg = parse_config(raw)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)
    assert all(map(math.isfinite, _floats(dataclasses.astuple(cfg))))
    sgd = cfg.sgd
    assert min(sgd.depths + sgd.widths + (sgd.batch_size, sgd.epochs)) >= 1
    assert min(sgd.learning_rate, sgd.sigma_w2, sgd.sigma_b2) >= 0
    assert cfg.functions >= 0
    sizes = dict(sgd.dataset)
    assert all(sizes[key] >= 1 for key in ("n", "features", "classes",
                                           "test_n") if key in sizes)


def _floats(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, tuple):
        for entry in value:
            yield from _floats(entry)


class TestOutputHelpers:
    def test_fmt_round_trips_floats(self):
        for v in (0.1, 1 / 3, 1e-300, -2.5e17, float(np.float64(np.pi))):
            assert float(fmt(v)) == v

    def test_csv_written_with_header(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["x", "y"], [(1, 0.5), (2, 0.25)])
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == "1,0.5"

    @pytest.mark.parametrize("cell", [
        -0.0, NAN, INF, -INF, 1e16, 1e-5, 0.1 + 0.2, np.float64(0.1),
        np.int64(-7), int(np.True_)],
        ids=["neg-zero", "nan", "inf", "neg-inf", "1e16", "1e-5", "sum",
             "np.float64", "np.int64", "int-of-bool"])
    def test_csv_cell_text_is_fmt(self, tmp_path, cell):
        # a cell of each kind, in a row of Python cells and alone
        path = tmp_path / "a.csv"
        write_csv(path, ["x", "y", "z"], [("s", 3, cell), [cell]])
        lines = path.read_text().splitlines()
        assert lines[1:] == [f"s,3,{fmt(cell)}", fmt(cell)]

    def test_svg_matrix_round_trip(self, tmp_path):
        matrix = np.array([[1.0, -0.5], [-0.5, 1.0]])
        path = tmp_path / "h.svg"
        svg_heatmap(matrix, [0.0, 1.0], path)
        got, axis = read_svg_matrix(path)
        assert np.array_equal(got, matrix)
        assert np.array_equal(axis, [0.0, 1.0])

    def test_svg_is_self_contained(self, tmp_path):
        path = tmp_path / "h.svg"
        svg_heatmap(np.eye(3), [0.0, 0.5, 1.0], path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert "href" not in text


class TestRunners:
    def test_sanity_check_outputs(self, tmp_path):
        cfg = parse_config(tiny_overrides("sanity_check", tmp_path / "o"))
        summary = run_experiment(cfg)
        for name in ("draws.csv", "kde.csv", "joint.csv", "summary.csv"):
            assert (tmp_path / "o" / name).exists()
        assert len(summary["ks"]) == 2

    def test_function_space_single_point_matches_summarize(self, tmp_path):
        cfg = parse_config(tiny_overrides(
            "function_space", tmp_path / "o",
            inputs={"values": [0.5]}))
        run_experiment(cfg)
        rows = (tmp_path / "o" / "quantiles.csv").read_text().splitlines()
        assert rows[0] == "z,q05,q50,q95"
        q = [float(v) for v in rows[1].split(",")[1:]]
        assert q[0] <= q[1] <= q[2]

    def test_corr_heatmap_unit_diagonal(self, tmp_path):
        cfg = parse_config(tiny_overrides(
            "corr_heatmap", tmp_path / "o",
            inputs={"values": [-1.0, 0.5, 1.0]}))
        summary = run_experiment(cfg)
        corr = summary["corr"]
        assert np.array_equal(np.diag(corr), np.ones(3))
        got, _ = read_svg_matrix(tmp_path / "o" / "heatmap.svg")
        assert np.allclose(got, corr)

    def test_sgd_lr_zero_flat_traces(self, tmp_path):
        cfg = parse_config(tiny_overrides(
            "sgd", tmp_path / "o",
            train={"modes": ["reparametrized"], "depths": [2], "widths": [4],
                   "learning_rate": 0.0, "batch_size": 16, "epochs": 2,
                   "dataset": {"kind": "toy_blobs", "n": 64, "features": 3,
                               "classes": 2, "test_n": 16}}))
        summary = run_experiment(cfg)
        trace = summary["cells"][("reparametrized", 2, 4)]
        assert np.ptp([np.mean(trace.batch_losses[:4]),
                       np.mean(trace.batch_losses[4:])]) <= 1e-12

    def test_abc_accepted_are_bottom_k(self, tmp_path):
        cfg = parse_config(tiny_overrides(
            "abc", tmp_path / "o",
            inputs={"values": [-1.0, 0.0, 1.0]},
            abc={"observations": [[0.0, 0.2]], "prior_draws": 300,
                 "keep": 5}))
        summary = run_experiment(cfg)
        res = summary["diffusion"]
        order = np.argsort(res["distances"], kind="stable")
        assert set(res["accepted"].tolist()) == set(order[:5].tolist())

    def test_abc_observation_off_grid_rejected(self, tmp_path):
        raw = tiny_overrides("abc", tmp_path / "o",
                             inputs={"values": [0.0, 1.0]},
                             abc={"observations": [[0.3, 0.0]],
                                  "prior_draws": 20, "keep": 2})
        with pytest.raises(ConfigError, match="grid"):
            parse_config(raw)

    def test_rerun_byte_identical(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            cfg = parse_config(tiny_overrides("sanity_check",
                                              tmp_path / tag, draws=100))
            run_experiment(cfg)
            outs.append({p.name: p.read_bytes()
                         for p in sorted((tmp_path / tag).iterdir())})
        assert outs[0] == outs[1]


class TestCliEntry:
    def test_success_exit_code_and_stdout(self, tmp_path, capsys):
        path = write_config(tmp_path,
                            tiny_overrides("sanity_check", tmp_path / "o",
                                           draws=100))
        code = main(["sanity_check", "--config", str(path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "sanity_check"
        assert "ks" in payload["summary"]

    def test_seed_and_out_overrides(self, tmp_path, capsys):
        path = write_config(tmp_path,
                            tiny_overrides("sanity_check", tmp_path / "o",
                                           draws=100))
        code = main(["sanity_check", "--config", str(path),
                     "--seed", "99", "--out", str(tmp_path / "other")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 99
        assert (tmp_path / "other" / "summary.csv").exists()

    def test_wrong_subcommand_for_config(self, tmp_path, capsys):
        path = write_config(tmp_path,
                            tiny_overrides("sanity_check", tmp_path / "o"))
        code = main(["abc", "--config", str(path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["sanity_check", "--config", str(tmp_path / "nope.yaml")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"

    def test_invalid_yaml_reports_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("experiment: [unclosed")
        code = main(["sanity_check", "--config", str(path)])
        assert code == 2

    @pytest.mark.parametrize("key, value", [
        pytest.param("depth", 0, id="depth"),
        pytest.param("width", 0, id="width"),
        pytest.param("horizon", 0.0, id="horizon"),
        pytest.param("sigma_w2", float("nan"), id="sigma_w2-nan"),
    ])
    def test_nonpositive_model_size_leaves_no_directory(self, tmp_path,
                                                        capsys, key, value):
        raw = tiny_overrides("abc", tmp_path / "o",
                             abc={"observations": [[0.0, 0.2]],
                                  "prior_draws": 20, "keep": 2})
        raw["model"][key] = value
        code = main(["abc", "--config", str(write_config(tmp_path, raw))])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("top, abc, where", [
        pytest.param({"seed": INF}, {}, "seed", id="seed-inf"),
        pytest.param({}, {"keep": 0}, "abc.keep", id="keep-0"),
        pytest.param({}, {"prior_draws": -5, "keep": -10}, "abc.keep",
                     id="keep-negative"),
        pytest.param({}, {"eoc_sigma_b2": -0.1}, "abc.eoc_sigma_b2",
                     id="eoc-sigma-negative"),
        pytest.param({"functions": -5}, {}, "functions",
                     id="functions-negative"),
        pytest.param({"model": {"activation": "elu"}}, {}, "model.activation",
                     id="activation-elu"),
        pytest.param({"model": {"inner": "elu"}}, {}, "model.inner",
                     id="inner-elu"),
    ] + [pytest.param(case.values[0], {}, case.values[1],
                      id=f"non-finite-{case.id}") for case in NON_FINITE])
    def test_bad_values_leave_no_directory(self, tmp_path, capsys, top, abc,
                                           where):
        raw = tiny_overrides("abc", tmp_path / "o",
                             abc={"observations": [[0.0, 0.2]],
                                  "prior_draws": 20, "keep": 2, **abc},
                             **top)
        code = main(["abc", "--config", str(write_config(tmp_path, raw))])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert where in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [
        ("depths", [8, 0]), ("widths", [-3]), ("batch_size", 0),
        ("epochs", 0), ("learning_rate", -1.0), ("sigma_w2", -0.5)])
    def test_bad_train_values_leave_no_directory(self, tmp_path, capsys,
                                                 key, value):
        raw = tiny_overrides("sgd", tmp_path / "o", train={key: value})
        code = main(["sgd", "--config", str(write_config(tmp_path, raw))])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert f"train.{key}" in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["n", "features", "classes", "test_n"])
    def test_bad_dataset_sizes_leave_no_directory(self, tmp_path, capsys,
                                                  key):
        raw = tiny_overrides("sgd", tmp_path / "o",
                             train={"dataset": {"kind": "toy_blobs", key: 0}})
        code = main(["sgd", "--config", str(write_config(tmp_path, raw))])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert f"train.dataset.{key}" in err["message"]
        assert not (tmp_path / "o").exists()

    def test_off_grid_observation_leaves_no_directory(self, tmp_path,
                                                      capsys):
        raw = tiny_overrides("abc", tmp_path / "o",
                             inputs={"values": [0.0, 1.0]},
                             abc={"observations": [[0.3, 0.0]],
                                  "prior_draws": 20, "keep": 2})
        code = main(["abc", "--config", str(write_config(tmp_path, raw))])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "input 0.3 " in err["message"]
        assert not (tmp_path / "o").exists()

    def test_run_too_large_for_memory_leaves_no_directory(
            self, tmp_path, capsys, monkeypatch):
        # a 1000-byte machine: the kernel refuses the run before it
        # allocates, and nothing has been written yet
        monkeypatch.setattr("depthflow.resnet._memory_limit", lambda: 1000)
        raw = tiny_overrides("function_space", tmp_path / "o")
        code = main(["function_space", "--config",
                     str(write_config(tmp_path, raw))])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        need = re.search(r"at least (\d+) bytes .* the 1000 bytes",
                         err["message"])
        # at least the stored first coordinate: 200 draws x 2 inputs x
        # 2 time points
        assert need and int(need.group(1)) >= 200 * 2 * 2 * 8
        assert not (tmp_path / "o").exists()

    def test_sanity_check_with_every_draw_diverged_fails(self, tmp_path,
                                                          capsys):
        # swish's drift grows quadratically: at these variances every draw
        # of both samplers passes HARD_CAP and is frozen
        raw = tiny_overrides("sanity_check", tmp_path / "o")
        raw["model"].update(activation="swish", sigma_w2=1e6, sigma_b2=1e6,
                            horizon=100.0)
        code = main(["sanity_check", "--config",
                     str(write_config(tmp_path, raw))])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numerical"
        assert err["message"].startswith(
            "input 0.0: only 0 resnet and 0 sde draws of 200 did not "
            "diverge")
        assert not (tmp_path / "o").exists()

    def test_sanity_check_statistics_skip_diverged_draws(self, tmp_path,
                                                         capsys,
                                                         monkeypatch):
        # at input 1.0, some SDE draws diverge and the rest do not
        batches = {}
        for name in ("resnet_forward", "simulate_paths"):
            def spy(*args, _name=name, _fn=getattr(experiments, name),
                    **kwargs):
                batches[_name] = _fn(*args, **kwargs)
                return batches[_name]
            monkeypatch.setattr(experiments, name, spy)
        raw = tiny_overrides("sanity_check", tmp_path / "o")
        raw["model"].update(activation="swish", sigma_w2=2.0, sigma_b2=2.0,
                            horizon=3.0)
        code = main(["sanity_check", "--config",
                     str(write_config(tmp_path, raw))])
        assert code == 0
        out = tmp_path / "o"
        with open(out / "summary.csv") as f:
            summary = {float(row["input"]): row for row in csv.DictReader(f)}
        draws = (out / "draws.csv").read_text().splitlines()
        assert len(draws) == 1 + 2 * 2 * 200
        diverged = batches["simulate_paths"].diverged[:, 1]
        assert 0 < diverged.sum() < 190
        for k, z in enumerate((0.0, 1.0)):
            alive = {}
            for name, sampler in (("resnet", "resnet_forward"),
                                  ("sde", "simulate_paths")):
                batch = batches[sampler]
                alive[name] = batch.xT[~batch.diverged[:, k], k, 0]
                row = summary[z]
                assert int(row[f"explosive_{name}"]) == \
                    batch.diverged[:, k].sum()
                assert float(row[f"mean_{name}"]) == alive[name].mean()
                assert float(row[f"var_{name}"]) == alive[name].var(ddof=1)
            stat, _ = ks_two_sample(alive["resnet"], alive["sde"])
            assert float(summary[z]["ks_stat"]) == stat

    @staticmethod
    def swish_config(kind, out, sigma2):
        # swish at sigma^2 = 50: every draw passes HARD_CAP at some input;
        # at 20, a few do
        raw = tiny_overrides(kind, out, inputs={"values": [-1.0, 0.0, 1.0]},
                             draws=400, functions=400)
        raw["model"].update(activation="swish", sigma_w2=sigma2,
                            sigma_b2=sigma2, horizon=3.0, depth=16, width=16)
        return raw

    @pytest.mark.parametrize("kind", ["function_space", "corr_heatmap"])
    def test_every_draw_diverged_fails(self, tmp_path, capsys, kind):
        raw = self.swish_config(kind, tmp_path / "o", 50.0)
        code = entry([kind, "--config", str(write_config(tmp_path, raw))])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numerical"
        assert err["message"].startswith(
            "only 0 of 400 draws did not diverge at any input")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["function_space", "corr_heatmap"])
    def test_stdout_counts_the_draws_used(self, tmp_path, capsys,
                                          monkeypatch, kind):
        batches = []

        def spy(*args, _fn=experiments.resnet_forward, **kwargs):
            batches.append(_fn(*args, **kwargs))
            return batches[-1]

        monkeypatch.setattr(experiments, "resnet_forward", spy)
        raw = self.swish_config(kind, tmp_path / "o", 20.0)
        code = entry([kind, "--config", str(write_config(tmp_path, raw))])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        alive = ~batches[0].diverged.any(axis=1)
        assert 0 < alive.sum() < 400
        assert summary["draws_used"] == alive.sum()
        assert summary["draws"] == 400

    @pytest.mark.parametrize("kind", ["function_space", "corr_heatmap"])
    def test_statistics_skip_diverged_draws(self, tmp_path, capsys,
                                            monkeypatch, kind):
        batches = []

        def spy(*args, _fn=experiments.resnet_forward, **kwargs):
            batches.append(_fn(*args, **kwargs))
            return batches[-1]

        monkeypatch.setattr(experiments, "resnet_forward", spy)
        raw = self.swish_config(kind, tmp_path / "o", 20.0)
        code = main([kind, "--config", str(write_config(tmp_path, raw))])
        assert code == 0
        values = batches[0].xT[:, :, 0]
        alive = ~batches[0].diverged.any(axis=1)
        assert 0 < (~alive).sum() < 20
        kept = values[alive]
        out = tmp_path / "o"

        def rows(name):
            with open(out / name) as f:
                return list(csv.DictReader(f))

        if kind == "corr_heatmap":
            got = np.array([float(r["rho"]) for r in rows("corr.csv")])
            got = got.reshape(3, 3)
            assert np.array_equal(got, corr_over_inputs(kept))
            assert np.array_equal(read_svg_matrix(out / "heatmap.svg")[0],
                                  got)
            return
        # every draw is written, diverged or not
        got = np.array([float(r["value"]) for r in rows("functions.csv")])
        assert np.array_equal(got.reshape(400, 3), values)
        quantiles = rows("quantiles.csv")
        for level, col in ((0.05, "q05"), (0.5, "q50"), (0.95, "q95")):
            assert np.array_equal([float(r[col]) for r in quantiles],
                                  np.quantile(kept, level, axis=0))
        (row,) = rows("summary.csv")
        assert float(row["within_draw_sd"]) == \
            kept.std(axis=1, ddof=1).mean()
        assert float(row["across_draw_sd"]) == kept[:, 1].std(ddof=1)

    def test_bad_train_depths_report_config_error(self, tmp_path, capsys):
        raw = tiny_overrides("sgd", tmp_path / "o",
                             train={"depths": ["eight"]})
        code = main(["sgd", "--config", str(write_config(tmp_path, raw))])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "train.depths" in err["message"]

    def test_corr_heatmap_with_one_input(self, tmp_path, capsys):
        out = tmp_path / "o"
        path = write_config(tmp_path, tiny_overrides(
            "corr_heatmap", out, inputs={"values": [0.5]}))
        assert entry(["corr_heatmap", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["experiment"] == \
            "corr_heatmap"
        rows = (out / "corr.csv").read_text().splitlines()
        assert rows == ["z1,z2,rho", f"{fmt(0.5)},{fmt(0.5)},{fmt(1.0)}"]
        got, axis = read_svg_matrix(out / "heatmap.svg")
        assert np.array_equal(got, [[1.0]]) and np.array_equal(axis, [0.5])

    def test_unexpected_exception_reported_as_internal(self, tmp_path,
                                                       capsys, monkeypatch):
        def broken(cfg):
            raise RuntimeError("boom")

        monkeypatch.setattr("depthflow.cli.run_experiment", broken)
        path = write_config(tmp_path,
                            tiny_overrides("sanity_check", tmp_path / "o"))
        argv = ["sanity_check", "--config", str(path)]
        # embedders of main see the exception itself
        with pytest.raises(RuntimeError, match="boom"):
            main(argv)
        code = entry(argv)
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "internal"
        assert err["message"] == "RuntimeError: boom"
