"""The ABC sampler: exact projected draws at the observation inputs, weight
completion for the kept draws, checked against the materialized loop."""

import csv
import threading

import numpy as np
import pytest

from depthflow.activations import get_activation
from depthflow.config import SeedSpec, make_rng
from depthflow.errors import ConfigError
from depthflow.experiments import (ModelSpec, _abc_outputs, parse_config,
                                   run_experiment)
from depthflow.laws import FullyIidLaw, sample_eps, scale_eps
from depthflow.resnet import (DRAW_CHUNK, HARD_CAP, _batched_psd_factor,
                              _freeze_diverged, eoc_solve)
from depthflow.stats import ks_two_sample

GRID = np.linspace(-2.0, 2.0, 9)


def materialized_abc_outputs(spec, z_values, seed, n_draws,
                             eoc_sigma_b2=0.05):
    """Law oracle: the full D x D weight noise per (chunk, layer), no guard."""
    D, L = spec.width, spec.depth
    phi = get_activation(spec.activation)
    psi = get_activation(spec.inner)
    z = np.asarray(z_values, dtype=float)
    if spec.kind == "eoc":
        sw = float(np.sqrt(eoc_solve(phi, eoc_sigma_b2) / D))
        sb = float(np.sqrt(eoc_sigma_b2))
    else:
        dt = spec.horizon / L
        sw = float(np.sqrt(spec.sigma_w2 * dt / D))
        sb = float(np.sqrt(spec.sigma_b2 * dt))
    pieces = []
    for start in range(0, n_draws, DRAW_CHUNK):
        chunk = min(start + DRAW_CHUNK, n_draws) - start
        rep = start // DRAW_CHUNK
        rng_in = make_rng(seed.with_stream(
            experiment=seed.experiment + "/input", replicate=rep))
        W_I = rng_in.standard_normal((chunk, D))
        x = z[None, :, None] * W_I[:, None, :]
        for l in range(L):
            rng = make_rng(seed.with_stream(replicate=rep, layer=l))
            epsW = rng.standard_normal((chunk, D, D))
            epsb = rng.standard_normal((chunk, D))
            h = sw * np.einsum("cde,cne->cnd", epsW, psi(x)) \
                + sb * epsb[:, None, :]
            with np.errstate(over="ignore", invalid="ignore"):
                x = x + phi(h) if spec.kind == "diffusion" else phi(h)
        pieces.append(x[:, :, 0])
    return np.concatenate(pieces, axis=0)


def serial_abc_outputs(spec, z_values, seed, n_draws, eoc_sigma_b2=0.05,
                       select=None, z_grid=None):
    """Bitwise oracle: both ABC passes as a plain chunk x layer loop, with
    the streams, factor, completion and guard of the kernel's version."""
    D, L = spec.width, spec.depth
    phi = get_activation(spec.activation)
    psi = get_activation(spec.inner)
    if spec.kind == "eoc":
        sigma_w2, sigma_b2 = eoc_solve(phi, eoc_sigma_b2), eoc_sigma_b2
    else:
        dt = spec.horizon / L
        sigma_w2, sigma_b2 = spec.sigma_w2 * dt, spec.sigma_b2 * dt
    law = FullyIidLaw(sigma_w=float(np.sqrt(sigma_w2)),
                      sigma_b=float(np.sqrt(sigma_b2)), dim=D)
    sw = law.sigma_w / np.sqrt(D)
    complement = seed.with_stream(experiment=seed.experiment + "/complement")

    def step(x, h, div):
        with np.errstate(over="ignore", invalid="ignore"):
            x_new = phi(h)
            if spec.kind == "diffusion":
                x_new += x
        return _freeze_diverged(x_new, x, div)

    z = np.asarray(z_values, dtype=float)
    pieces = []
    for start in range(0, n_draws, DRAW_CHUNK):
        chunk = min(DRAW_CHUNK, n_draws - start)
        rep = start // DRAW_CHUNK
        if select is None:
            sel = slice(None)
        elif rep in select:
            sel = np.asarray(select[rep], dtype=int)
        else:
            continue
        rng_in = make_rng(seed.with_stream(
            experiment=seed.experiment + "/input", replicate=rep))
        W_I = rng_in.standard_normal((chunk, D))[sel]
        x = z[None, :, None] * W_I[:, None, :]
        div = np.zeros(x.shape[:2], dtype=bool)
        if select is not None:
            g = z_grid[None, :, None] * W_I[:, None, :]
            gdiv = np.zeros(g.shape[:2], dtype=bool)
        for l in range(L):
            rng = make_rng(seed.with_stream(replicate=rep, layer=l))
            if select is None:
                R = _batched_psd_factor(psi(x))
            else:
                Q, R = np.linalg.qr(np.swapaxes(psi(x), -1, -2))
            epsW, epsb = sample_eps(law, rng, chunk, cols=R.shape[-2])
            sW, sb = scale_eps(law, epsW[sel], epsb[sel])
            if select is not None:
                E = sw * np.stack([make_rng(complement.with_stream(
                    replicate=start + int(d), layer=l)).standard_normal((D, D))
                    for d in sel])
                W = E + (np.swapaxes(sW, -1, -2) - E @ Q) \
                    @ np.swapaxes(Q, -1, -2)
                hg = psi(g) @ np.swapaxes(W, -1, -2)
                hg += sb[:, None, :]
                g, gdiv = step(g, hg, gdiv)
            h = np.swapaxes(R, -1, -2) @ sW + sb[:, None, :]
            x, div = step(x, h, div)
        pieces.append((x if select is None else g)[:, :, 0])
    return np.concatenate(pieces, axis=0)


def abc_spec(kind, width=16, depth=16):
    # the shipped abc_regression model at a smaller size
    return ModelSpec(kind=kind, activation="tanh", inner="identity",
                     sigma_w2=10.0, sigma_b2=10.0, depth=depth, width=width)


def select_all(n_draws):
    return {rep: list(range(min(DRAW_CHUNK, n_draws - rep * DRAW_CHUNK)))
            for rep in range(-(-n_draws // DRAW_CHUNK))}


@pytest.mark.parametrize("arm", ["diffusion", "eoc"])
def test_posterior_distances_repeat_pass_one(tmp_path, arm):
    obs = [[-1.0, 0.5], [0.0, -0.2], [1.0, 0.8]]
    cfg = parse_config({
        "experiment": "abc", "seed": 5, "out": str(tmp_path),
        "model": {"sigma_w2": 10.0, "sigma_b2": 10.0, "depth": 16,
                  "width": 16},
        "inputs": {"grid": {"start": -2.0, "stop": 2.0, "points": 41}},
        "functions": 4,
        "abc": {"observations": obs, "prior_draws": 600, "keep": 5},
    })
    res = run_experiment(cfg)[arm]
    suffix = "" if arm == "diffusion" else "_eoc"
    with open(tmp_path / f"posterior{suffix}.csv") as f:
        rows = list(csv.DictReader(f))
    at_obs = {}
    for row in rows:
        for k, (z, _) in enumerate(obs):
            if float(row["z"]) == z:
                at_obs.setdefault(int(row["draw"]), [0.0] * 3)[k] = \
                    float(row["value"])
    assert sorted(at_obs) == res["accepted"].tolist()
    y = np.array([p[1] for p in obs])
    recomputed = [np.linalg.norm(np.array(at_obs[d]) - y)
                  for d in res["accepted"]]
    np.testing.assert_allclose(recomputed, res["distances"][res["accepted"]],
                               rtol=0, atol=1e-12)


# (arm, observation inputs, width): the regular case, rank-deficient
# observations (z = 0 and a repeated z), and more observations than width
LAW_CASES = [
    ("diffusion", (-1.0, 0.0, 1.0), 16),
    ("eoc", (-1.0, 0.0, 1.0), 16),
    ("diffusion", (0.0, 1.0, 1.0), 16),
    ("eoc", (0.0, 1.0, 1.0), 16),
    ("diffusion", (-1.0, 0.0, 1.0), 2),
]


@pytest.mark.parametrize("arm, z_obs, width", LAW_CASES)
def test_completed_functions_match_materialized_in_law(arm, z_obs, width):
    # kept from every draw, the completed functions are prior draws
    spec = abc_spec(arm, width=width)
    n = 2048
    a = materialized_abc_outputs(spec, GRID, SeedSpec(31, "oracle"), n)
    b = _abc_outputs(spec, np.array(z_obs), SeedSpec(37, "abc"), n,
                     select=select_all(n), z_grid=GRID)
    assert b.shape == (n, GRID.size)
    for k in range(GRID.size):
        stat, thr = ks_two_sample(a[:, k], b[:, k])
        assert stat <= thr, (k, stat, thr)
    # the gap between the extreme inputs depends on their coupling
    stat, thr = ks_two_sample(a[:, -1] - a[:, 0], b[:, -1] - b[:, 0])
    assert stat <= thr


@pytest.mark.parametrize("arm, z_obs, width", LAW_CASES)
def test_pass_two_repeats_pass_one_at_observations(arm, z_obs, width):
    spec = abc_spec(arm, width=width)
    z = np.array(z_obs)
    seed = SeedSpec(43, "abc")
    first = _abc_outputs(spec, z, seed, 600)
    assert np.isfinite(first).all()
    select = {0: [0, 7, 255], 2: [3, 87]}
    rows = [0, 7, 255, 515, 599]
    again = _abc_outputs(spec, z, seed, 600, select=select, z_grid=z)
    np.testing.assert_allclose(again, first[rows], rtol=0, atol=1e-12)


def test_kept_draw_does_not_depend_on_the_others():
    spec = abc_spec("diffusion")
    z, seed = np.array([-1.0, 0.0, 1.0]), SeedSpec(47, "abc")
    alone = _abc_outputs(spec, z, seed, 600, select={0: [3]}, z_grid=GRID)
    among = _abc_outputs(spec, z, seed, 600,
                         select={0: [1, 3, 200], 1: [0]}, z_grid=GRID)
    assert np.array_equal(alone[0], among[1])


def test_diffusion_arm_freezes_at_the_cap():
    # swish grows super-linearly: over a long horizon draws pass the cap,
    # and the guard freezes them below it in both passes
    spec = ModelSpec(kind="diffusion", activation="swish", sigma_w2=16.0,
                     sigma_b2=16.0, depth=16, width=8, horizon=8.0)
    z, seed = np.array([2.0]), SeedSpec(41, "abc")
    unguarded = materialized_abc_outputs(spec, z, seed, 300)
    assert not (np.abs(unguarded) <= HARD_CAP).all()
    first = _abc_outputs(spec, z, seed, 300)
    grid = _abc_outputs(spec, z, seed, 300, select=select_all(300),
                        z_grid=np.array([-2.0, 2.0]))
    for out in (first, grid):
        assert (np.abs(out) <= HARD_CAP).all()


# the cap case of test_diffusion_arm_freezes_at_the_cap
SWISH_CAP = ModelSpec(kind="diffusion", activation="swish", sigma_w2=16.0,
                      sigma_b2=16.0, depth=16, width=8, horizon=8.0)


@pytest.mark.parametrize("spec, z_obs, capped", [
    *(pytest.param(abc_spec(arm, width=width), z_obs, False,
                   id=f"{arm}-{'_'.join(map(str, z_obs))}-D{width}")
      for arm, z_obs, width in LAW_CASES),
    pytest.param(SWISH_CAP, (2.0,), True, id="swish-cap")])
def test_kernel_matches_serial_loop(monkeypatch, spec, z_obs, capped):
    # 600 prior draws: two whole chunks and a partial one, kept draws in
    # each; in the swish case some draws pass the cap in both passes
    z, seed = np.array(z_obs), SeedSpec(41, "abc")
    select = select_all(600) if capped else {0: [0, 7, 255], 1: [1, 100],
                                             2: [3, 87]}
    flagged = []

    def spy(*args):
        out = _freeze_diverged(*args)
        flagged.append(bool(out[1].any()))
        return out

    monkeypatch.setattr("depthflow.resnet._freeze_diverged", spy)
    first = _abc_outputs(spec, z, seed, 600)
    assert np.array_equal(first, serial_abc_outputs(spec, z, seed, 600))
    assert any(flagged) == capped
    flagged.clear()
    grid = _abc_outputs(spec, z, seed, 600, select=select, z_grid=GRID)
    assert grid.shape == (sum(map(len, select.values())), GRID.size)
    assert np.array_equal(grid, serial_abc_outputs(spec, z, seed, 600,
                                                   select=select,
                                                   z_grid=GRID))
    assert any(flagged) == capped


def test_pass_two_row_blocks_match_serial_loop(monkeypatch):
    # 3 CPUs: pass 2's 600 rows are cut into tiles of 200 rows at most,
    # which 3 workers step, the tiles of one chunk reading its streams in
    # turn
    from test_resnet import meeting_spy

    monkeypatch.setattr("depthflow.resnet._available_cpus", lambda: 3)
    threads = set()
    z, seed = np.array([2.0]), SeedSpec(41, "abc")
    grid = np.linspace(-2.0, 2.0, 21)
    monkeypatch.setattr("depthflow.resnet._freeze_diverged",
                        meeting_spy(_freeze_diverged, threads))
    got = _abc_outputs(SWISH_CAP, z, seed, 600, select=select_all(600),
                       z_grid=grid)
    assert len(threads) > 1
    assert np.array_equal(got, serial_abc_outputs(
        SWISH_CAP, z, seed, 600, select=select_all(600), z_grid=grid))


def small_abc_config(out):
    return parse_config({
        "experiment": "abc", "seed": 9, "out": str(out),
        "model": {"sigma_w2": 10.0, "sigma_b2": 10.0, "depth": 8,
                  "width": 8},
        "inputs": {"grid": {"start": -2.0, "stop": 2.0, "points": 21}},
        "functions": 3,
        "abc": {"observations": [[-1.0, 0.5], [1.0, 0.8]],
                "prior_draws": 300, "keep": 4},
    })


def test_repeated_run_writes_identical_files(tmp_path):
    snapshots = []
    for tag in ("a", "b"):
        run_experiment(small_abc_config(tmp_path / tag))
        snapshots.append({p.name: p.read_bytes()
                          for p in sorted((tmp_path / tag).iterdir())})
    assert len(snapshots[0]) == 7
    assert snapshots[0] == snapshots[1]


def test_completion_draw_failure_raised_and_worker_stopped(tmp_path,
                                                           monkeypatch):
    # the per-draw complement E is drawn on the kernel's worker thread
    before = threading.active_count()
    error = RuntimeError("complement draw failed at layer 2")

    def failing_rng(seed):
        if seed.experiment.endswith("/complement") and seed.layer == 2:
            raise error
        return make_rng(seed)

    monkeypatch.setattr("depthflow.experiments.make_rng", failing_rng)
    with pytest.raises(RuntimeError) as info:
        run_experiment(small_abc_config(tmp_path))
    assert info.value is error
    assert threading.active_count() == before


@pytest.mark.parametrize("select", [None, {0: [3], 2: [0, 7]}],
                         ids=["pass_one", "pass_two"])
def test_memory_refusal_comes_before_the_input_draw(monkeypatch, select):
    # the kernel refuses a run too large for memory before it asks for
    # any chunk's initial states, so no input layer has been drawn
    streams = []

    def spy(seed):
        streams.append(seed.experiment)
        return make_rng(seed)

    monkeypatch.setattr("depthflow.experiments.make_rng", spy)
    args = (abc_spec("diffusion", width=8, depth=4), np.array([-1.0, 1.0]),
            SeedSpec(43, "abc"), 600)
    grid = None if select is None else GRID
    _abc_outputs(*args, select=select, z_grid=grid)
    assert "abc/input" in streams
    streams.clear()
    monkeypatch.setattr("depthflow.resnet._memory_limit", lambda: 1000)
    with pytest.raises(ConfigError, match="the 1000 bytes"):
        _abc_outputs(*args, select=select, z_grid=grid)
    assert streams == []
