"""Denoiser-agnostic diffusion machinery.

Variance-exploding forward process with sigma(t) = t, denoising objective,
score recovery, probability-flow ODE Euler sampler, and EMA of parameters.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NumericError


@dataclass(frozen=True)
class DiffusionSchedule:
    """Linear noise schedule sigma(t) = t on [sigma_min, horizon]."""

    horizon: float = 10.0
    sigma_min: float = 0.01
    n_steps: int = 100

    def __post_init__(self):
        if not 0.0 < self.sigma_min < self.horizon:
            raise ValueError(
                f"need 0 < sigma_min < horizon, got {self.sigma_min}, {self.horizon}"
            )
        if isinstance(self.n_steps, bool) or not isinstance(self.n_steps, numbers.Integral):
            raise ValueError(f"n_steps must be an integer, got {self.n_steps!r}")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")

    def draw_sigma(self, rng: np.random.Generator, size=None) -> np.ndarray:
        """Training noise levels, log-uniform on [sigma_min, horizon]."""
        return np.exp(
            rng.uniform(np.log(self.sigma_min), np.log(self.horizon), size=size)
        )

    def time_grid(self, n_steps: int | None = None) -> np.ndarray:
        """Decreasing uniform grid horizon = t_0 > ... > t_n = sigma_min."""
        n = self.n_steps if n_steps is None else n_steps
        return np.linspace(self.horizon, self.sigma_min, n + 1)


def perturb(h0: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Forward marginal H_t = H_0 + sigma * eps with standard Gaussian eps."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    return h0 + sigma * rng.standard_normal(h0.shape)


def score_from_denoiser(d: np.ndarray, h_t: np.ndarray, sigma: float) -> np.ndarray:
    """Score estimate (D - H_t) / sigma^2."""
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    return (d - h_t) / sigma**2


class AnalyticGaussianDenoiser:
    """Posterior-mean denoiser for an isotropic Gaussian prior N(mu, sigma_d^2 I).

    Test oracle: its induced score is available in closed form.
    """

    def __init__(self, mu, sigma_d: float):
        if sigma_d < 0:
            raise ValueError(f"sigma_d must be >= 0, got {sigma_d}")
        self.mu = np.asarray(mu, dtype=float)
        self.sigma_d = float(sigma_d)

    def evaluate(self, h_t: np.ndarray, sigma: float, condition=None) -> np.ndarray:
        denom = self.sigma_d**2 + sigma**2
        if denom == 0.0:
            return np.asarray(h_t, dtype=float)
        return (self.sigma_d**2 * h_t + sigma**2 * self.mu) / denom


def denoising_loss(
    denoiser,
    h0_batch: np.ndarray,
    conditions,
    schedule: DiffusionSchedule,
    rng: np.random.Generator,
    sigmas=None,
):
    """Mean-square-per-entry denoising loss over a batch.

    ``sigmas`` overrides the schedule's log-uniform draw (used by tests and
    by fixed-noise evaluation).  Returns the loss and the per-sample sigmas.
    """
    batch = np.asarray(h0_batch, dtype=float)
    if batch.shape[0] == 0:
        raise ValueError("batch is empty")
    if sigmas is None:
        sigmas = schedule.draw_sigma(rng, size=batch.shape[0])
    sigmas = np.broadcast_to(np.asarray(sigmas, dtype=float), (batch.shape[0],))

    total = 0.0
    for i in range(batch.shape[0]):
        h_t = perturb(batch[i], float(sigmas[i]), rng)
        cond = None if conditions is None else conditions[i]
        pred = denoiser.evaluate(h_t, float(sigmas[i]), cond)
        if not np.all(np.isfinite(pred)):
            raise NumericError(f"denoiser produced non-finite output for sample {i}")
        total += np.mean((pred - batch[i]) ** 2)
    return total / batch.shape[0], sigmas


def euler_sample(
    denoiser,
    condition,
    schedule: DiffusionSchedule,
    rng: np.random.Generator,
    shape,
    n_steps: int | None = None,
) -> np.ndarray:
    """Integrate the probability-flow ODE from N(0, horizon^2 I) down to sigma_min.

    Euler steps H <- H + dt * t * score(H, t) on a uniform decreasing grid.
    """
    grid = schedule.time_grid(n_steps)
    h = schedule.horizon * rng.standard_normal(shape)
    for step in range(len(grid) - 1):
        t = float(grid[step])
        dt = t - float(grid[step + 1])
        d = denoiser.evaluate(h, t, condition)
        h = h + dt * t * score_from_denoiser(d, h, t)
        if not np.all(np.isfinite(h)):
            raise NumericError(f"sampler diverged at step {step} (t={t:g})")
    return h


def ema_update(shadow: np.ndarray, current: np.ndarray, decay: float) -> np.ndarray:
    """shadow <- decay * shadow + (1 - decay) * current, in place; returns shadow."""
    if not 0.0 <= decay <= 1.0:
        raise ValueError(f"decay must be in [0, 1], got {decay}")
    if shadow.shape != current.shape:
        raise ValueError(
            f"shape mismatch: shadow {shadow.shape} vs current {current.shape}"
        )
    shadow *= decay
    shadow += (1.0 - decay) * current
    return shadow
