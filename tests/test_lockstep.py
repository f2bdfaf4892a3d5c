"""The synthetic engine, in batches of every size, against the per-step
engine, bit for bit."""
import json
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditsgd import (ExperimentConfig, ExplorationSchedule, RngStream,
                       SyntheticEnvironment, run_monte_carlo, run_stream)
from banditsgd import experiments
from banditsgd.cli import main
from banditsgd.engine import _MIN_BATCH
from banditsgd.models import make_model
from banditsgd.experiments import _launch, _mc_batch, _tune_batch
from banditsgd.policy import derive_seed

from oracle import RecordingEnvironment, assert_same_results, loss, recorded_steps


def _config(family, p, **kw):
    beta0 = None if p == 3 else tuple(np.linspace(-0.6, 0.9, 2 * p))
    return ExperimentConfig(model=family, p=p, beta0=beta0, **kw).validate()


def _per_step(config, seed, **kw):
    synth = config.synthetic_config()
    rng = RngStream(seed)
    return run_stream(SyntheticEnvironment(synth, rng), synth.model,
                      config.learning_schedule(), config.exploration_schedule(), rng,
                      config.horizon, hessian=config.hessian, aipw=config.aipw,
                      skip_value_burn_in=config.value_skip_burn_in, **kw)


def _check(config, batch, collect_inference=True, collect_value=True):
    reps = [(i, derive_seed(config.seed, i)) for i in range(batch)]
    kw = dict(collect_inference=collect_inference, collect_value=collect_value)
    streams = experiments._synthetic(config, reps, **kw)
    assert len(streams) == batch
    for (_, seed), got in zip(reps, streams):
        assert got.checkpoints.t[-1] == config.horizon
        # Every run here ends with a checkpoint, so its final sums are compared too.
        assert_same_results(got, _per_step(config, seed, **kw,
                                           checkpoints=config.effective_checkpoints()))


# Per batch size: horizon, checkpoints (burn-in edge, draw-chunk edges),
# aipw, value_skip_burn_in and collect_inference.
VARIANTS = {
    7: (600, (1, 49, 50, 51, 600), True, False, True),
    2: (4100, (1, 4095, 4096, 4097, 4100), False, True, False),
    1: (4200, (50, 4096, 4200), True, True, True),
}


@pytest.mark.parametrize("p", [1, 3, 10])
@pytest.mark.parametrize("eps", ["fixed:0.2", "fixed:1", "decay:0.3,0.1"])
@pytest.mark.parametrize("hessian", ["exact", "outer"])
@pytest.mark.parametrize("family", ["linear", "logistic"])
@pytest.mark.parametrize("batch", sorted(VARIANTS))
def test_matches_per_step_engine(batch, family, hessian, eps, p):
    horizon, cps, aipw, skip, inference = VARIANTS[batch]
    config = _config(family, p, hessian=hessian, eps=eps, horizon=horizon,
                     checkpoints=cps, aipw=aipw, value_skip_burn_in=skip,
                     seed=1000 + p)
    _check(config, batch, collect_inference=inference)


@pytest.mark.parametrize("family", ["linear", "logistic"])
def test_without_value_sums(family):
    _check(_config(family, 3, horizon=300, checkpoints=(1, 300)), 3, collect_value=False)


def _per_step_losses(config, seed, grid):
    """Running mean loss at the pre-step average, at the steps of ``grid``,
    from a per-step run snapshotted at every step."""
    synth = config.synthetic_config()
    rng = RngStream(seed)
    env = RecordingEnvironment(SyntheticEnvironment(synth, rng))
    res = run_stream(env, synth.model, config.learning_schedule(),
                     config.exploration_schedule(), rng, config.horizon,
                     collect_inference=False, collect_value=False,
                     checkpoints=range(1, config.horizon + 1))
    steps = recorded_steps(synth.model, env, res)
    losses = [loss(synth.model, bar, obs) for bar, obs, *_ in steps]
    return (np.cumsum(losses) / np.arange(1, config.horizon + 1))[grid - 1]


@pytest.mark.parametrize("family", ["linear", "logistic"])
def test_tune_trajectories_match_per_step(family):
    config = _config(family, 3, horizon=4100, seed=77)
    # The tuning grid's log-spaced steps, and the steps on both sides of a
    # block and a draw-chunk edge.
    grid = np.union1d(np.geomspace(1, config.horizon, num=60).astype(int),
                      [1024, 1025, 4096, 4097])
    reps = [(i, derive_seed(config.seed, i)) for i in range(max(_MIN_BATCH, 5))]
    want = {a: [_per_step_losses(replace(config, alpha=a), seed, grid) for _, seed in reps]
            for a in (0.3, 1.0)}
    # One batch on the stacked step, then batches of 2 and 1 on the scalar
    # step, for one constant; then one batch over two constants.
    for alphas, batches in [((1.0,), [reps]), ((1.0,), [reps[:2], reps[2:3]]),
                            ((0.3, 1.0), [reps])]:
        got = [traj for batch in batches for traj in _tune_batch((config, batch), grid, alphas)]
        assert len(got) == sum(map(len, batches))
        for i, traj in enumerate(got):
            assert traj.shape == (len(alphas), len(grid))
            for a, row in zip(alphas, traj):
                assert np.array_equal(row, want[a][i])


@settings(max_examples=10, deadline=None)
@given(batch=st.integers(1, 12), horizon=st.integers(1, 5000),
       family=st.sampled_from(["linear", "logistic"]),
       marks=st.lists(st.floats(0.0, 1.0), max_size=4), seed=st.integers(0, 2 ** 32))
def test_random_batches_match_per_step(batch, horizon, family, marks, seed):
    cps = tuple(sorted({max(1, int(m * horizon)) for m in marks} | {horizon}))
    config = _config(family, 3, horizon=horizon, checkpoints=cps, seed=seed, aipw=True)
    _check(config, batch)


def test_batch_error_escapes_monte_carlo(tmp_path):
    config = ExperimentConfig(horizon=200, reps=2 * _MIN_BATCH, checkpoints=(200,),
                              oracle_draws=1000, out=str(tmp_path))
    with mock.patch.object(experiments, "_run_synthetic", side_effect=RuntimeError("boom")):
        with pytest.raises(RuntimeError, match="boom"):
            run_monte_carlo(config)


def test_report_failure_is_recorded_per_replication():
    config = ExperimentConfig(horizon=200, reps=_MIN_BATCH, checkpoints=(200,))
    reps = [(i, derive_seed(config.seed, i)) for i in range(config.reps)]
    with mock.patch.object(experiments, "checkpoint_reports",
                           side_effect=[ValueError("bad")] + [mock.DEFAULT] * 99,
                           wraps=experiments.checkpoint_reports):
        results = _mc_batch((config, reps))
    assert results[0].error == "ValueError: bad"
    assert all(r.error is None and r.reports.t.tolist() == [200] for r in results[1:])


@pytest.mark.parametrize("reps,workers",
                         [(16, 2), (2 * _MIN_BATCH - 1, 1), (7, 1), (5, 4), (3, 1)])
def test_batches_cover_every_replication_in_order(reps, workers):
    config = ExperimentConfig(horizon=20, reps=reps, workers=workers, checkpoints=(20,))
    results = _launch(partial(_mc_batch, collect_inference=False), config)
    assert [r.rep for r in results] == list(range(reps))
    assert [r.seed for r in results] == [derive_seed(config.seed, i) for i in range(reps)]


def test_mc_meta_keys_do_not_depend_on_workers(tmp_path):
    metas = []
    for workers in (1, 2):
        out = tmp_path / str(workers)
        run_monte_carlo(ExperimentConfig(horizon=50, reps=16, workers=workers,
                                         checkpoints=(50,), oracle_draws=1000,
                                         out=str(out), format="json"))
        metas.append((out / "mc_meta.json").read_text())
    assert list(json.loads(metas[0])) == ["reps", "failures", "seed", "truth_value",
                                          "truth_value_se", "level"]
    assert metas[0] == metas[1]


class TestUnrepresentableExploration:
    @pytest.mark.parametrize("make", [lambda: ExplorationSchedule.fixed(1e-17),
                                      lambda: ExplorationSchedule.decaying(0.5, 1e-17)])
    def test_schedule_rejects(self, make):
        with pytest.raises(ValueError, match="exploration rate 1e-17 is too small"):
            make()

    def test_smallest_representable_rate_accepted(self):
        assert 1.0 - 2.3e-16 / 2.0 < 1.0
        ExplorationSchedule.fixed(2.3e-16)

    @pytest.mark.parametrize("spec", ["fixed:1e-17", "decay:0.5,1e-17"])
    def test_cli_exits_before_any_step(self, spec, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["run", "--eps", spec, "--burn-in", "5", "--horizon", "200",
                     "--out", str(out)]) == 1
        assert "exploration rate 1e-17 is too small" in capsys.readouterr().err
        assert not out.exists()


class TestRewards:
    """The reward hook on arrays, as the batch engine calls it, against the
    same hook on floats, as ``SyntheticEnvironment.outcome`` calls it."""

    def _check(self, model, u, d, sd=0.3):
        got = model.reward(model.mean_from_index_array(u), d, sd)
        want = [model.reward(model.mean_from_index(a), b, sd)
                for a, b in zip(u.tolist(), d.tolist())]
        assert all(type(y) is float for y in want)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    def test_draws_at_the_link(self, family):
        model = make_model(family, 3)
        gen = np.random.default_rng(8)
        u = np.concatenate([gen.normal(0.0, 3.0, 2000), [0.0, -0.0, 800.0, -800.0, 1e4, -1e4]])
        mu = np.array([model.mean_from_index(v) for v in u.tolist()])
        for offset in (-1e-12, 0.0, 1e-12, -1e-17, 1e-17):
            self._check(model, u, np.clip(mu + offset, 0.0, np.nextafter(1.0, 0.0)))

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    def test_uniform_draws_broadcast_over_actions(self, family):
        model = make_model(family, 3)
        gen = np.random.default_rng(9)
        u = gen.normal(0.0, 2.0, (50, 4, 2))
        d = gen.random((50, 4, 1))
        self._check(model, u.ravel(), np.broadcast_to(d, u.shape).ravel())
        assert model.reward(model.mean_from_index_array(u), d, 0.3).shape == u.shape

    def test_saturated_and_signed_zero_indexes(self):
        model = make_model("logistic", 3)
        u = np.array([-0.0, 0.0, 800.0, -800.0, 900.0, -900.0])
        for d in (0.0, 0.5, np.nextafter(1.0, 0.0), 1e-300, 1.0 - 1e-16):
            self._check(model, u, np.full(u.shape, d))
