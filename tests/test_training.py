from dataclasses import replace

import numpy as np
import pytest

from thzgen.dataset import Dataset, SamplingRegion, build_dataset, normalize
from thzgen.diffusion import DiffusionSchedule
from thzgen.dit import DitConfig, DitDenoiser
from thzgen.geometry import ArrayGeometry
from thzgen.paths import GscmConfig
from thzgen import training
from thzgen.training import TrainConfig, adam_step, evaluate_loss, train

GEOM = ArrayGeometry.uniform_linear(0.3e12, n_tx=16, n_rx=8, k_tx=2, k_rx=2)
REGION = SamplingRegion((4.0, -3.0, -0.5), (10.0, 3.0, 0.5))
DIT = DitConfig(n_rx=8, n_tx=16, patch_size=4, embed_dim=16, depth=1, n_heads=2,
                mlp_ratio=2)


def subset(ds, idx):
    idx = np.asarray(idx)
    return Dataset(
        header=replace(ds.header, sample_count=len(idx)),
        conditions=ds.conditions[idx],
        tensors=ds.tensors[idx],
    )


def tiny_sets(n_train=8, n_test=4, seed=0):
    ds, _ = normalize(build_dataset(seed, GEOM, GscmConfig(), REGION, n_train + n_test))
    return subset(ds, np.arange(n_train)), subset(ds, np.arange(n_train, n_train + n_test))


# -- Adam -------------------------------------------------------------------

def make_state(values):
    params = np.array(values, dtype=float)
    return params, np.zeros_like(params), np.zeros_like(params)


def test_adam_zero_gradient_is_identity():
    params, m, v = make_state([1.0, -2.0])
    adam_step(params, np.zeros(2), m, v, step=1, lr=0.1)
    np.testing.assert_array_equal(params, [1.0, -2.0])


def test_adam_zero_learning_rate():
    params, m, v = make_state([1.0, -2.0])
    adam_step(params, np.array([3.0, -1.0]), m, v, step=1, lr=0.0)
    np.testing.assert_array_equal(params, [1.0, -2.0])


def test_adam_first_step_magnitude():
    # After bias correction the first step is lr * g / (|g| + eps).
    params, m, v = make_state([0.0])
    adam_step(params, np.array([1.0]), m, v, step=1, lr=1e-4, eps=1e-3)
    assert params[0] == pytest.approx(-1e-4 / (1.0 + 1e-3), rel=1e-12)


def test_adam_step_direction_follows_sign():
    params, m, v = make_state([0.0, 0.0])
    adam_step(params, np.array([5.0, -0.1]), m, v, step=1, lr=0.01)
    assert params[0] < 0 < params[1]


def test_adam_rejects_bad_inputs():
    params, m, v = make_state([0.0])
    with pytest.raises(ValueError):
        adam_step(params, np.zeros(1), m, v, step=0, lr=0.1)
    with pytest.raises(ValueError, match="shape"):
        adam_step(params, np.zeros(3), m, v, step=1, lr=0.1)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0).validate()
    with pytest.raises(ValueError, match="beta2"):
        TrainConfig(beta2=1.5).validate()
    TrainConfig().validate()


# -- training loop ----------------------------------------------------------

def test_train_is_deterministic():
    train_set, test_set = tiny_sets()
    cfg = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=4, seed=7)
    a = train(train_set, test_set, DIT, DiffusionSchedule(horizon=3.0), cfg)
    b = train(train_set, test_set, DIT, DiffusionSchedule(horizon=3.0), cfg)
    assert a.curves == b.curves
    for name in a.model.params:
        np.testing.assert_array_equal(a.model.params[name], b.model.params[name])
        np.testing.assert_array_equal(a.ema_params[name], b.ema_params[name])


def test_train_bookkeeping():
    train_set, test_set = tiny_sets()
    cfg = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=4, seed=0)
    result = train(train_set, test_set, DIT, DiffusionSchedule(horizon=3.0), cfg)
    assert [e for e, _, _ in result.curves] == [1, 2]
    assert result.step == 2 * 2  # two batches per epoch, two epochs
    assert set(result.adam_m) == set(result.model.params)
    assert all(np.all(np.isfinite(v)) for v in result.adam_v.values())


def test_train_memorizes_repeated_sample():
    # A single sample repeated: the conditional distribution is a point mass,
    # so the loss must fall well below its starting value.
    base, _ = tiny_sets(1, 1, seed=3)
    reps = subset(base, np.zeros(16, dtype=int))
    cfg = TrainConfig(learning_rate=1e-2, epochs=100, batch_size=8, seed=1,
                      ema_decay=0.9)
    result = train(reps, subset(reps, np.arange(4)), DIT,
                   DiffusionSchedule(horizon=3.0), cfg)
    first = result.curves[0][2]
    last = result.curves[-1][2]
    assert last < 0.75 * first


def test_train_seed_changes_outcome():
    train_set, test_set = tiny_sets()
    a = train(train_set, test_set, DIT, DiffusionSchedule(horizon=3.0),
              TrainConfig(learning_rate=1e-3, epochs=1, batch_size=4, seed=0))
    b = train(train_set, test_set, DIT, DiffusionSchedule(horizon=3.0),
              TrainConfig(learning_rate=1e-3, epochs=1, batch_size=4, seed=1))
    assert a.curves != b.curves


def reference_train(train_set, test_set, dit_config, schedule, cfg):
    """``train`` written with per-tensor dicts: Adam and EMA formulas per name."""
    rng = np.random.default_rng(cfg.seed)
    model = DitDenoiser(dit_config, rng=rng)
    params = model.params
    ema = {k: a.copy() for k, a in params.items()}
    m = {k: np.zeros_like(a) for k, a in params.items()}
    v = {k: np.zeros_like(a) for k, a in params.items()}
    eval_rng = np.random.default_rng([cfg.seed, 0xE7A1])
    eval_sigmas = schedule.draw_sigma(eval_rng, len(test_set))
    eval_noise = eval_rng.standard_normal(test_set.tensors.shape)
    n, step, curves = len(train_set), 0, []
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            h0 = train_set.tensors[idx]
            cond = train_set.conditions[idx]
            sigmas = schedule.draw_sigma(rng, len(idx))
            noise = rng.standard_normal(h0.shape)
            loss, grads = model.loss_and_grads(h0, cond, sigmas, noise)
            step += 1
            bc1 = 1.0 - cfg.beta1**step
            bc2 = 1.0 - cfg.beta2**step
            for k, g in grads.items():
                m[k] = cfg.beta1 * m[k] + (1.0 - cfg.beta1) * g
                v[k] = cfg.beta2 * v[k] + (1.0 - cfg.beta2) * g**2
                params[k] -= (cfg.learning_rate * (m[k] / bc1)
                              / (np.sqrt(v[k] / bc2) + cfg.eps))
            ema = {k: cfg.ema_decay * ema[k] + (1.0 - cfg.ema_decay) * params[k]
                   for k in ema}
            losses.append(loss)
        test_loss = evaluate_loss(DitDenoiser(dit_config, params=ema), test_set,
                                  eval_sigmas, eval_noise)
        curves.append((epoch, sum(losses) / len(losses), test_loss))
    return params, ema, m, v, curves


@pytest.mark.parametrize("adam_chunk", [None, 1000])
def test_train_equals_per_tensor_reference_bit_for_bit(adam_chunk, monkeypatch):
    if adam_chunk is not None:  # several Adam slices, the last one partial
        monkeypatch.setattr(training, "ADAM_CHUNK", adam_chunk)
    train_set, test_set = tiny_sets()
    cfg = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=3, seed=5,
                      ema_decay=0.9)
    schedule = DiffusionSchedule(horizon=3.0)
    result = train(train_set, test_set, DIT, schedule, cfg)
    params, ema, m, v, curves = reference_train(train_set, test_set, DIT, schedule, cfg)
    assert result.curves == curves
    for mine, theirs in ((result.model.params, params), (result.ema_params, ema),
                         (result.adam_m, m), (result.adam_v, v)):
        assert list(mine) == list(theirs)
        for name in theirs:
            np.testing.assert_array_equal(mine[name], theirs[name], err_msg=name)
