import dataclasses
import warnings
from dataclasses import replace

import numpy as np
import pytest

from thzgen.dataset import Dataset, SamplingRegion, build_dataset, normalize
from thzgen.diffusion import DiffusionSchedule
from thzgen.dit import DitConfig, DitDenoiser, init_params
from thzgen.errors import NumericError
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
        header=ds.header,
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
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ValueError, match="beta2"):
        TrainConfig(beta2=1.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        TrainConfig().epochs = 0


@pytest.mark.parametrize("key, value", [
    ("epochs", 0), ("epochs", 2.5), ("epochs", True), ("batch_size", 0),
    ("batch_size", 2.0), ("batch_size", -8),
])
def test_train_config_counts_are_named_integers(key, value):
    with pytest.raises(ValueError, match=rf"^{key} must be an integer >= 1, got {value!r}$"):
        TrainConfig(**{key: value})


@pytest.mark.parametrize("seed", [-1, 2**64, 1.0, True])
def test_train_config_refuses_a_seed_outside_64_bits(seed):
    # Refused by name when built, not by numpy inside ``train``.
    with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\), got "):
        TrainConfig(seed=seed)
    assert TrainConfig(seed=2**64 - 1).seed == 2**64 - 1


@pytest.mark.parametrize("key, value", [
    ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0), ("eps", -1.0),
    ("eps", float("inf")), ("eps", float("nan")),
    ("learning_rate", float("inf")), ("learning_rate", float("nan")),
    ("beta1", "0.9"), ("beta2", float("nan")), ("ema_decay", "0.9"),
    ("ema_decay", float("nan")),
])
def test_train_config_refuses_what_breaks_adam(key, value):
    # beta = 1 zeroes Adam's bias correction 1 - beta**step; a negative eps
    # can zero the denominator of its step.
    with pytest.raises(ValueError, match=key):
        TrainConfig(**{key: value})
    TrainConfig(beta1=0.0, beta2=0.0, eps=0.0, learning_rate=0.0)


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


@pytest.mark.parametrize("fault", ["nan loss", "numeric error", "cast overflow"])
def test_non_finite_step_names_epoch_and_batch(fault, monkeypatch):
    train_set, test_set = tiny_sets()
    cfg = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=4, seed=0)
    loss_and_grads = DitDenoiser.loss_and_grads
    calls = []

    def fourth_step_fails(self, *args):
        calls.append(None)
        if len(calls) == 4:  # epoch 2, batch 1
            if fault == "nan loss":
                return float("nan"), loss_and_grads(self, *args)[1]
            raise NumericError("non-finite activations")
        return loss_and_grads(self, *args)

    if fault == "cast overflow":
        # The first step moves every weight with a gradient by about 1e300,
        # which float32 cannot hold, so the second step's cast overflows.
        cfg = replace(cfg, learning_rate=1e300)
        where = "epoch 1, batch 1"
    else:
        monkeypatch.setattr(DitDenoiser, "loss_and_grads", fourth_step_fails)
        where = "epoch 2, batch 1"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflowing cast is an error, not a warning
        with pytest.raises(NumericError, match=rf"^training diverged at {where} "
                                               rf"\(sigma \S+ to \S+\)$"):
            train(train_set, test_set, DIT, DiffusionSchedule(horizon=3.0), cfg)


def test_train_seed_changes_outcome():
    train_set, test_set = tiny_sets()
    a = train(train_set, test_set, DIT, DiffusionSchedule(horizon=3.0),
              TrainConfig(learning_rate=1e-3, epochs=1, batch_size=4, seed=0))
    b = train(train_set, test_set, DIT, DiffusionSchedule(horizon=3.0),
              TrainConfig(learning_rate=1e-3, epochs=1, batch_size=4, seed=1))
    assert a.curves != b.curves


def reference_train(train_set, test_set, dit_config, schedule, cfg):
    """``train`` written with per-tensor dicts: Adam and EMA formulas per name.

    Each step rounds the float64 weights into a float32 working denoiser,
    takes its gradients and widens them to float64, tensor by tensor.
    """
    rng = np.random.default_rng(cfg.seed)
    params = init_params(dit_config, rng)
    work = DitDenoiser(dit_config, params=params, dtype=np.float32)
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
            for k, a in params.items():
                work.params[k][...] = a
            loss, grads = work.loss_and_grads(h0, cond, sigmas, noise)
            step += 1
            bc1 = 1.0 - cfg.beta1**step
            bc2 = 1.0 - cfg.beta2**step
            for k, g in grads.items():
                g = g.astype(np.float64)
                m[k] = cfg.beta1 * m[k] + (1.0 - cfg.beta1) * g
                v[k] = cfg.beta2 * v[k] + (1.0 - cfg.beta2) * g**2
                params[k] -= (cfg.learning_rate * (m[k] / bc1)
                              / (np.sqrt(v[k] / bc2) + cfg.eps))
            ema = {k: cfg.ema_decay * ema[k] + (1.0 - cfg.ema_decay) * params[k]
                   for k in ema}
            losses.append(loss)
        test_loss = evaluate_loss(DitDenoiser(dit_config, params=ema, dtype=np.float32),
                                  test_set, eval_sigmas, eval_noise)
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


def test_train_steps_float32_weights_and_keeps_float64_state(monkeypatch):
    seen = []
    loss_and_grads = DitDenoiser.loss_and_grads

    def spy(self, *args):
        loss, grads = loss_and_grads(self, *args)
        seen.append((self.params.vector.dtype, grads.vector.dtype))
        return loss, grads

    monkeypatch.setattr(DitDenoiser, "loss_and_grads", spy)
    train_set, test_set = tiny_sets()
    cfg = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=4, seed=2)
    result = train(train_set, test_set, DIT, DiffusionSchedule(horizon=3.0), cfg)
    assert result.step == 4
    assert seen == [(np.float32, np.float32)] * result.step
    for group in (result.params, result.ema_params, result.adam_m, result.adam_v):
        assert group.vector.dtype == np.float64
        assert all(view.dtype == np.float64 for view in group.values())
