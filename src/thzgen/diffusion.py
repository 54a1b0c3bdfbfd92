"""Denoiser-agnostic diffusion machinery.

Variance-exploding forward process with sigma(t) = t, denoising objective,
score recovery, probability-flow ODE Euler sampler, and EMA of parameters.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, check_count, check_range

# The sampler's Euler step takes dt * t and t**2 (score_from_denoiser) and
# the preconditioning sigma**2 in float64, finite only up to about 1e154.
# Long before that the sample is lost: the last step subtracts the noise,
# of size up to about 5 * horizon, from the sample, and that rounds off
# horizon * 1e-15 of it.  At this bound even a one-step sampler keeps unit-RMS
# (normalized) data to 1e-9, finer than the float32 the file stores; at a
# 1e150 horizon the samples came out all 0.
HORIZON_LIMIT = 1e6


@dataclass(frozen=True)
class DiffusionSchedule:
    """Linear noise schedule sigma(t) = t on [sigma_min, horizon]."""

    horizon: float = 10.0
    sigma_min: float = 0.01
    n_steps: int = 100

    def __post_init__(self):
        check_range("sigma_min", self.sigma_min, 0.0, HORIZON_LIMIT, "()")
        check_range("horizon", self.horizon, self.sigma_min, HORIZON_LIMIT, "(]")
        check_count("n_steps", self.n_steps)

    def draw_sigma(self, rng: np.random.Generator, size=None) -> np.ndarray:
        """Training noise levels, log-uniform on [sigma_min, horizon]."""
        return np.exp(
            rng.uniform(np.log(self.sigma_min), np.log(self.horizon), size=size)
        )

    def time_grid(self, n_steps: int | None = None) -> np.ndarray:
        """Decreasing uniform grid horizon = t_0 > ... > t_n = sigma_min."""
        # No caller in the package passes n_steps; perfbench/tracing.py's
        # euler_sample tag calls time_grid(None), so the argument stays.
        n = self.n_steps if n_steps is None else n_steps
        return np.linspace(self.horizon, self.sigma_min, n + 1)


def score_from_denoiser(d: np.ndarray, h_t: np.ndarray, sigma: float) -> np.ndarray:
    """Score estimate (D - H_t) / sigma^2."""
    check_range("sigma", sigma, 0.0, np.inf, "()")
    return (d - h_t) / sigma**2


def denoising_loss(denoiser, h0: np.ndarray, conditions, sigmas, noise) -> float:
    """Mean-square-per-entry denoising loss of a batch under given noise.

    Perturbs every sample at once, ``h_t = h0 + sigma * noise``, and makes
    one ``denoiser.evaluate`` call on the batch.  The loss is the expression
    ``DitDenoiser.loss_and_grads`` returns, so the two agree exactly.  A
    non-finite output is a ``NumericError`` naming the first such sample.
    """
    h0 = np.asarray(h0, dtype=float)
    if len(h0) == 0:
        raise ValueError("batch is empty")
    sigmas = np.asarray(sigmas, dtype=float)
    h_t = h0 + sigmas[:, None, None, None] * noise
    out = denoiser.evaluate(h_t, sigmas, conditions)
    finite = np.isfinite(out).reshape(len(out), -1).all(axis=1)
    if not finite.all():
        raise NumericError(
            f"denoiser produced non-finite output for sample {np.argmin(finite)}")
    return float(np.mean((out - h0) ** 2))


def euler_sample(
    denoiser,
    condition,
    schedule: DiffusionSchedule,
    rng: np.random.Generator,
    shape,
) -> np.ndarray:
    """Integrate the probability-flow ODE from N(0, horizon^2 I) down to sigma_min.

    Euler steps H <- H + dt * t * score(H, t) on a uniform decreasing grid.
    A non-finite update is a ``NumericError`` naming the step, t and the
    first and last non-finite sample (index along the first axis of ``shape``).
    """
    grid = schedule.time_grid()
    h = schedule.horizon * rng.standard_normal(shape)
    for step in range(len(grid) - 1):
        t = float(grid[step])
        dt = t - float(grid[step + 1])
        d = denoiser.evaluate(h, t, condition)
        h = h + dt * t * score_from_denoiser(d, h, t)
        if not np.all(np.isfinite(h)):
            raise _diverged(h, step, t)
    return h


def _diverged(h: np.ndarray, step: int, t: float) -> NumericError:
    """The error for a sampler step that left ``h`` non-finite; axis 0 is the sample."""
    bad = np.flatnonzero(~np.isfinite(h).reshape(len(h), -1).all(axis=1))
    return NumericError(
        f"sampler diverged at step {step} (t={t:g}) for samples {bad[0]}-{bad[-1]}"
    )


def ema_update(shadow: np.ndarray, current: np.ndarray, decay: float) -> np.ndarray:
    """shadow <- decay * shadow + (1 - decay) * current, in place; returns shadow."""
    check_range("decay", decay, 0.0, 1.0)
    if shadow.shape != current.shape:
        raise ValueError(
            f"shape mismatch: shadow {shadow.shape} vs current {current.shape}"
        )
    shadow *= decay
    shadow += (1.0 - decay) * current
    return shadow
