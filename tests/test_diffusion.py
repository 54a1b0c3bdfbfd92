import numpy as np
import pytest

from thzgen.diffusion import (
    HORIZON_LIMIT,
    DiffusionSchedule,
    denoising_loss,
    ema_update,
    euler_sample,
    score_from_denoiser,
)
from thzgen.errors import NumericError


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


class IdentityDenoiser:
    def evaluate(self, h_t, sigma, condition=None):
        return h_t


class OracleDenoiser:
    """Returns a fixed clean tensor regardless of input."""

    def __init__(self, h0):
        self.h0 = np.asarray(h0, dtype=float)

    def evaluate(self, h_t, sigma, condition=None):
        return np.broadcast_to(self.h0, h_t.shape)


# -- schedule ---------------------------------------------------------------

def test_schedule_invariants():
    with pytest.raises(ValueError):
        DiffusionSchedule(horizon=1.0, sigma_min=1.0)
    with pytest.raises(ValueError):
        DiffusionSchedule(n_steps=0)
    for horizon in (float("inf"), float("nan"), True, "10"):
        with pytest.raises(ValueError, match="horizon"):
            DiffusionSchedule(horizon=horizon, sigma_min=0.5)
    with pytest.raises(ValueError, match="sigma_min"):
        DiffusionSchedule(sigma_min=False)
    # Finite, but the sampler would square it past float64 (at 1e300) or
    # round the sample away in its last step.
    for horizon, shown in ((1e300, r"1e\+300"), (2e6, "2000000.0")):
        with pytest.raises(ValueError, match=rf"^horizon must be a finite number in "
                                             rf"\(0.01, 1e\+06\], got {shown}$"):
            DiffusionSchedule(horizon=horizon)
    assert DiffusionSchedule(horizon=HORIZON_LIMIT).horizon == 1e6


@pytest.mark.parametrize("n_steps", [2.5, 3.0, "3", True, None])
def test_schedule_n_steps_must_be_an_integer(n_steps):
    with pytest.raises(ValueError, match="n_steps must be an integer"):
        DiffusionSchedule(n_steps=n_steps)
    assert DiffusionSchedule(n_steps=np.int64(3)).n_steps == 3


def test_schedule_grid_endpoints():
    s = DiffusionSchedule(horizon=10.0, sigma_min=0.01, n_steps=4)
    g = s.time_grid()
    assert g[0] == 10.0 and g[-1] == 0.01 and len(g) == 5
    assert np.all(np.diff(g) < 0)


def test_sigma_draw_in_range_and_log_uniform():
    s = DiffusionSchedule()
    draws = s.draw_sigma(np.random.default_rng(0), 200_000)
    assert draws.min() >= s.sigma_min and draws.max() <= s.horizon
    # log-uniform: median of log sits at the interval midpoint
    mid = 0.5 * (np.log(s.sigma_min) + np.log(s.horizon))
    assert np.median(np.log(draws)) == pytest.approx(mid, abs=0.02)


# -- loss -------------------------------------------------------------------

def test_loss_zero_for_oracle():
    h0 = np.random.default_rng(0).normal(size=(4, 2, 3, 3))
    loss = denoising_loss(
        OracleDenoiser(h0[0]),
        np.broadcast_to(h0[0], h0.shape),
        None,
        np.full(4, 0.5),
        np.random.default_rng(1).standard_normal(h0.shape),
    )
    assert loss == 0.0


def test_identity_denoiser_loss_is_sigma_squared():
    sigma = 0.8
    rng = np.random.default_rng(3)
    h0 = rng.normal(size=(10_000, 1, 2, 2))
    loss = denoising_loss(IdentityDenoiser(), h0, None, np.full(10_000, sigma),
                          rng.standard_normal(h0.shape))
    assert loss == pytest.approx(sigma**2, rel=0.03)


def test_zero_denoiser_small_sigma_limit():
    h0 = np.random.default_rng(4).normal(size=(64, 2, 4, 4))
    loss = denoising_loss(
        OracleDenoiser(np.zeros((2, 4, 4))), h0, None, np.full(64, 1e-6),
        np.random.default_rng(5).standard_normal(h0.shape),
    )
    assert loss == pytest.approx(np.mean(h0**2), rel=1e-3)


def test_loss_surfaces_nonfinite_output():
    class BadDenoiser:
        def evaluate(self, h_t, sigma, condition=None):
            out = np.zeros_like(h_t)
            out[2:] = np.nan
            return out

    with pytest.raises(NumericError, match="sample 2$"):
        denoising_loss(BadDenoiser(), np.zeros((4, 1, 2, 2)), None, np.ones(4),
                       np.zeros((4, 1, 2, 2)))


# -- score ------------------------------------------------------------------

def test_score_arithmetic():
    assert score_from_denoiser(np.array(3.0), np.array(1.0), 2.0) == pytest.approx(0.5)
    np.testing.assert_array_equal(
        score_from_denoiser(np.ones(4), np.ones(4), 0.3), np.zeros(4)
    )
    with pytest.raises(ValueError):
        score_from_denoiser(np.ones(2), np.ones(2), 0.0)


def test_gaussian_score_closed_form():
    mu, sigma_d = 1.5, 0.7
    den = AnalyticGaussianDenoiser(mu, sigma_d)
    rng = np.random.default_rng(6)
    for sigma in (0.05, 0.5, 3.0):
        h_t = rng.normal(size=(3, 3))
        s = score_from_denoiser(den.evaluate(h_t, sigma), h_t, sigma)
        expected = -(h_t - mu) / (sigma_d**2 + sigma**2)
        np.testing.assert_allclose(s, expected, atol=1e-10)


def test_analytic_denoiser_limits():
    den = AnalyticGaussianDenoiser(np.array(2.0), 1.0)
    h_t = np.array(6.0)
    assert den.evaluate(h_t, 0.0) == pytest.approx(6.0)
    assert den.evaluate(h_t, 1e9) == pytest.approx(2.0, abs=1e-6)
    assert den.evaluate(h_t, 1.0) == pytest.approx(4.0)  # sigma = sigma_d midpoint


# -- sampler ----------------------------------------------------------------

class _FixedLatent:
    """Stands in for the RNG so the initial state is deterministic."""

    def __init__(self, value):
        self.value = value

    def standard_normal(self, shape):
        return np.full(shape, self.value)


def test_euler_single_step_arithmetic():
    # H=2.0 at t=1.0 with score -0.5 and dt=0.1 -> 1.95.
    class ScoreHalf:
        def evaluate(self, h_t, sigma, condition=None):
            return h_t + sigma**2 * (-0.5)

    schedule = DiffusionSchedule(horizon=1.0, sigma_min=0.9, n_steps=1)
    out = euler_sample(ScoreHalf(), None, schedule, _FixedLatent(2.0), shape=(1,))
    assert out[0] == pytest.approx(1.95)


def test_euler_gaussian_terminal_variance():
    # For a zero-mean Gaussian prior the update is linear and homogeneous, so
    # the terminal sample variance is exactly A^2 times the initial sample
    # variance, with A the product of the per-step contraction factors.
    schedule = DiffusionSchedule(horizon=10.0, sigma_min=0.01, n_steps=200)
    den = AnalyticGaussianDenoiser(np.zeros(4), 1.0)
    out = euler_sample(den, None, schedule, np.random.default_rng(0), shape=(10000, 4))
    assert 0.95 <= out.var() <= 1.05

    grid = schedule.time_grid()
    a = np.prod(1.0 - np.diff(grid) * -grid[:-1] / (1.0 + grid[:-1] ** 2))
    init = np.random.default_rng(0).standard_normal((10000, 4)) * schedule.horizon
    assert out.var() == pytest.approx(a**2 * init.var(), rel=1e-10)


def test_euler_point_mass_collapse():
    schedule = DiffusionSchedule(horizon=10.0, sigma_min=0.01, n_steps=200)
    den = AnalyticGaussianDenoiser(np.full(500, 5.0), 1e-6)
    out = euler_sample(den, None, schedule, np.random.default_rng(8), shape=(500,))
    assert np.all(np.abs(out - 5.0) < 0.05)


def test_euler_reproducible():
    schedule = DiffusionSchedule(n_steps=20)
    den = AnalyticGaussianDenoiser(np.zeros((2, 2)), 1.0)
    a = euler_sample(den, None, schedule, np.random.default_rng(9), (2, 2))
    b = euler_sample(den, None, schedule, np.random.default_rng(9), (2, 2))
    assert np.array_equal(a, b)


def test_euler_reports_divergence_step():
    class Explodes:
        def evaluate(self, h_t, sigma, condition=None):
            return np.full_like(h_t, np.inf)

    with pytest.raises(NumericError, match="step 0"):
        euler_sample(Explodes(), None, DiffusionSchedule(), np.random.default_rng(0), (2,))


def test_euler_divergence_names_the_samples():
    class ExplodesOnTwo:
        def evaluate(self, h_t, sigma, condition=None):
            d = np.zeros_like(h_t)
            d[[2, 5], 1] = np.inf
            return d

    schedule = DiffusionSchedule(horizon=3.0, sigma_min=0.01, n_steps=4)
    with pytest.raises(NumericError) as info:
        euler_sample(ExplodesOnTwo(), None, schedule, np.random.default_rng(0), (8, 2, 3))
    assert str(info.value) == "sampler diverged at step 0 (t=3) for samples 2-5"


# -- EMA --------------------------------------------------------------------

def test_ema_decay_extremes():
    shadow, current = np.array([1.0, 2.0]), np.array([5.0, -1.0])
    np.testing.assert_array_equal(ema_update(shadow.copy(), current, 0.0), current)
    np.testing.assert_array_equal(ema_update(shadow.copy(), current, 1.0), shadow)


def test_ema_updates_shadow_in_place():
    shadow, current = np.array([1.0, 2.0]), np.array([5.0, -1.0])
    out = ema_update(shadow, current, 0.5)
    assert out is shadow
    np.testing.assert_array_equal(shadow, [3.0, 0.5])


def test_ema_geometric_series():
    decay = 0.999
    shadow = np.zeros(1)
    current = np.full(1, 3.0)
    for _ in range(250):
        shadow = ema_update(shadow, current, decay)
    expected = 3.0 * (1 - decay**250)
    assert shadow[0] == pytest.approx(expected, rel=1e-12)


def test_ema_shape_check():
    with pytest.raises(ValueError):
        ema_update(np.zeros(2), np.zeros(3), 0.5)
