"""Adam optimizer and the seeded training loop for the DiT denoiser."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .diffusion import DiffusionSchedule, ema_update
from .dit import DitConfig, DitDenoiser
from .errors import NumericError


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-3
    ema_decay: float = 0.999
    epochs: int = 100
    batch_size: int = 8
    seed: int = 0

    def validate(self) -> None:
        if self.learning_rate < 0 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("invalid training configuration")
        for name in ("beta1", "beta2", "ema_decay"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


def adam_step(
    params: dict,
    grads: dict,
    m: dict,
    v: dict,
    step: int,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-3,
) -> None:
    """Bias-corrected Adam update, applied in place to params/m/v."""
    if step < 1:
        raise ValueError("step must be >= 1")
    bc1 = 1.0 - beta1**step
    bc2 = 1.0 - beta2**step
    for name, g in grads.items():
        if params[name].shape != g.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter "
                f"{name} {params[name].shape}"
            )
        m[name] = beta1 * m[name] + (1.0 - beta1) * g
        v[name] = beta2 * v[name] + (1.0 - beta2) * g**2
        params[name] -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)


@dataclass
class TrainResult:
    model: DitDenoiser
    ema_params: dict
    curves: list = field(default_factory=list)  # (epoch, train_loss, test_loss)
    adam_m: dict = field(default_factory=dict)
    adam_v: dict = field(default_factory=dict)
    step: int = 0


def evaluate_loss(
    model: DitDenoiser,
    dataset: Dataset,
    sigmas: np.ndarray,
    noise: np.ndarray,
    chunk: int = 64,
) -> float:
    """Denoising loss with fixed noise draws (comparable across epochs)."""
    total = 0.0
    n = len(dataset)
    for start in range(0, n, chunk):
        end = min(start + chunk, n)
        h0 = dataset.tensors[start:end]
        h_t = h0 + sigmas[start:end, None, None, None] * noise[start:end]
        out = model.denoise(h_t, sigmas[start:end], dataset.conditions[start:end])
        total += float(np.sum((out - h0) ** 2) / h0[0].size)
    return total / n


def train(
    train_set: Dataset,
    test_set: Dataset,
    dit_config: DitConfig,
    schedule: DiffusionSchedule,
    cfg: TrainConfig,
    progress=None,
) -> TrainResult:
    """Epoch loop: seeded shuffle, Adam updates, EMA tracking, loss curves.

    The per-epoch test loss is computed with the EMA weights on a fixed set
    of noise draws so the curve reflects parameter movement only.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    model = DitDenoiser(dit_config, rng=rng)
    params = model.params
    ema = {k: a.copy() for k, a in params.items()}
    m = {k: np.zeros_like(a) for k, a in params.items()}
    v = {k: np.zeros_like(a) for k, a in params.items()}

    eval_rng = np.random.default_rng([cfg.seed, 0xE7A1])
    eval_sigmas = schedule.draw_sigma(eval_rng, len(test_set))
    eval_noise = eval_rng.standard_normal(test_set.tensors.shape)

    n = len(train_set)
    step = 0
    curves = []
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            h0 = train_set.tensors[idx]
            cond = train_set.conditions[idx]
            sigmas = schedule.draw_sigma(rng, len(idx))
            noise = rng.standard_normal(h0.shape)
            loss, grads = model.loss_and_grads(h0, cond, sigmas, noise)
            if not np.isfinite(loss):
                raise NumericError(
                    f"training diverged at epoch {epoch}, batch {n_batches}"
                )
            step += 1
            adam_step(
                params, grads, m, v, step,
                cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps,
            )
            ema = ema_update(ema, params, cfg.ema_decay)
            epoch_loss += loss
            n_batches += 1
        train_loss = epoch_loss / n_batches
        ema_model = DitDenoiser(dit_config, params=ema)
        test_loss = evaluate_loss(ema_model, test_set, eval_sigmas, eval_noise)
        curves.append((epoch, train_loss, test_loss))
        if progress is not None:
            progress(epoch, train_loss, test_loss)

    return TrainResult(
        model=model,
        ema_params=ema,
        curves=curves,
        adam_m=m,
        adam_v=v,
        step=step,
    )
