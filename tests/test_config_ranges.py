"""Every bounded config number, and every finite config through the CLI.

The table holds each number ``errors.check_range`` bounds with its interval:
a value just outside either end is refused naming the key and the interval,
and a closed end is accepted.  The property test drives ``cli.main`` through
gen-data, train, sample and eval with one or two float keys or points drawn
over their whole finite range: each stage exits 0 with nothing on stderr, or
exits 1 with one ``error:`` line.  It runs the loaded Hypothesis profile's number of
examples; ``--hypothesis-profile long`` (tests/conftest.py) runs 2,000.
"""
import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from thzgen.cli import main
from thzgen.dataset import DatasetConfig
from thzgen.diffusion import DiffusionSchedule, ema_update, score_from_denoiser
from thzgen.geometry import CheckpointMeta, GeometryConfig, rayleigh_distance
from thzgen.paths import GscmConfig
from thzgen.training import TrainConfig

INF = math.inf
ONE = np.ones(1)

# (key, interval as the message shows it, low, high, a call that checks the value)
RANGES = [
    ("learning_rate", "[0, inf)", 0.0, INF, lambda v: TrainConfig(learning_rate=v)),
    ("eps", "(0, inf)", 0.0, INF, lambda v: TrainConfig(eps=v)),
    ("beta1", "[0, 1)", 0.0, 1.0, lambda v: TrainConfig(beta1=v)),
    ("beta2", "[0, 1)", 0.0, 1.0, lambda v: TrainConfig(beta2=v)),
    ("ema_decay", "[0, 1]", 0.0, 1.0, lambda v: TrainConfig(ema_decay=v)),
    ("sigma_min", "(0, 1e+06)", 0.0, 1e6, lambda v: DiffusionSchedule(sigma_min=v)),
    ("horizon", "(0.01, 1e+06]", 0.01, 1e6, lambda v: DiffusionSchedule(horizon=v)),
    ("k_factor_mean_db", "[-300, 300]", -300.0, 300.0,
     lambda v: GscmConfig(k_factor_mean_db=v)),
    ("k_factor_std_db", "[0, 100]", 0.0, 100.0, lambda v: GscmConfig(k_factor_std_db=v)),
    ("path_loss_exponent", "[0, 10]", 0.0, 10.0, lambda v: GscmConfig(path_loss_exponent=v)),
    ("azimuth_spread", "(0, inf)", 0.0, INF, lambda v: GscmConfig(azimuth_spread=v)),
    ("elevation_spread", "(0, inf)", 0.0, INF, lambda v: GscmConfig(elevation_spread=v)),
    ("scatterer_radius_min", "(0, 1e+06)", 0.0, 1e6,
     lambda v: GscmConfig(scatterer_radius_min=v, scatterer_radius_max=1e6)),
    ("scatterer_radius_max", "(1, 1e+06]", 1.0, 1e6,
     lambda v: GscmConfig(scatterer_radius_max=v)),
    ("carrier_frequency", "[1e+06, 1e+14]", 1e6, 1e14,
     lambda v: GeometryConfig(carrier_frequency=v)),
    ("intra_spacing", "(0, inf)", 0.0, INF, lambda v: GeometryConfig(intra_spacing=v)),
    ("inter_spacing", "[0.001, inf)", 1e-3, INF,
     lambda v: GeometryConfig(intra_spacing=1e-3, inter_spacing=v)),
    ("normalization_scalar", "(0, inf)", 0.0, INF,
     lambda v: CheckpointMeta(normalization_scalar=v)),
    ("test_fraction", "(0, 1)", 0.0, 1.0, lambda v: DatasetConfig(test_fraction=v)),
    ("cell_size", "[1e-09, inf)", 1e-9, INF, lambda v: DatasetConfig(cell_size=v)),
    # Arguments checked where a computation takes them.
    ("decay", "[0, 1]", 0.0, 1.0, lambda v: ema_update(ONE.copy(), ONE, v)),
    ("sigma", "(0, inf)", 0.0, INF, lambda v: score_from_denoiser(ONE, ONE, v)),
    ("aperture", "(0, inf)", 0.0, INF, lambda v: rayleigh_distance(v, 1.0)),
    ("wavelength", "(0, inf)", 0.0, INF, lambda v: rayleigh_distance(1.0, v)),
]


def end_cases():
    """(key, interval, value, accepted, check) at and just outside each end."""
    for key, interval, low, high, check in RANGES:
        yield key, interval, np.nextafter(low, -INF), False, check
        yield key, interval, low, interval[0] == "[", check
        if high == INF:
            yield key, interval, INF, False, check
        else:
            yield key, interval, np.nextafter(high, INF), False, check
            yield key, interval, high, interval[-1] == "]", check


@pytest.mark.parametrize(
    "key, interval, value, accepted, check",
    [pytest.param(*case, id=f"{case[0]}-{float(case[2])!r}") for case in end_cases()])
def test_each_bounded_number_names_its_key_and_interval(key, interval, value, accepted, check):
    value = float(value)
    if accepted:
        check(value)
        return
    with pytest.raises(ValueError) as info:
        check(value)
    assert str(info.value) == f"{key} must be a finite number in {interval}, got {value!r}"


@pytest.mark.parametrize("value", [True, "1", None, float("nan")])
def test_a_bounded_number_refuses_what_is_no_finite_number(value):
    with pytest.raises(ValueError, match=r"^ema_decay must be a finite number in \[0, 1\], got "):
        TrainConfig(ema_decay=value)


# -- every finite config through the CLI ------------------------------------

# Counts and model sizes stay small and fixed; only floats and points are drawn.
BASE = {
    "seed": 5,
    "geometry": {"n_tx": 8, "n_rx": 4, "k_tx": 2, "k_rx": 2},
    "dataset": {"count": 24, "test_fraction": 0.25},
    "dit": {"patch_size": 2, "embed_dim": 8, "depth": 1, "n_heads": 2, "mlp_ratio": 2},
    "schedule": {"n_steps": 3},
    "training": {"epochs": 1, "batch_size": 8},
}
FLOAT_KEYS = [
    ("geometry", "carrier_frequency"), ("geometry", "intra_spacing"),
    ("geometry", "inter_spacing"),
    *(("gscm", key) for key in ("k_factor_mean_db", "k_factor_std_db", "azimuth_spread",
                                "elevation_spread", "path_loss_exponent",
                                "scatterer_radius_min", "scatterer_radius_max")),
    ("dataset", "test_fraction"), ("dataset", "cell_size"),
    ("schedule", "horizon"), ("schedule", "sigma_min"),
    *(("training", key) for key in ("learning_rate", "beta1", "beta2", "eps", "ema_decay")),
]
POINT_KEYS = [("geometry", "tx_origin"), ("geometry", "axis"), ("region", "low"),
              ("region", "high")]

# Both signs and zero; magnitudes log-uniform from 1e-300 to 1e300, and as
# often within float32's 1e-40 to 1e40, where the network computes.
FINITE = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, exponent: sign * 10.0 ** exponent, st.sampled_from([-1.0, 1.0]),
              st.one_of(st.floats(-300.0, 300.0), st.floats(-40.0, 40.0))))
POINT = st.lists(FINITE, min_size=3, max_size=3)
# One or two keys, each with a value of its kind: a third key would most often
# fail the config before the stages after gen-data run.
OVERRIDES = st.lists(st.sampled_from(FLOAT_KEYS + POINT_KEYS), min_size=1, max_size=2,
                     unique=True).flatmap(
    lambda keys: st.fixed_dictionaries(
        {key: POINT if key in POINT_KEYS else FINITE for key in keys}))
POSITIONS = st.one_of(st.just([6.0, 1.0, 0.0]), POINT)


def run_stage(argv) -> bool:
    """Run one command; assert it exits 0 with an empty stderr, or 1 with one
    ``error:`` line (a warning is an error here).  True if it exited 0."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main(argv)
    err = err.getvalue()
    if status == 0:
        assert err == "", (argv, err)
        return True
    assert status == 1, (argv, status)
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    return False


@settings(derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(overrides=OVERRIDES, position=POSITIONS)
def test_every_finite_config_exits_0_or_with_one_error_line(overrides, position):
    config = json.loads(json.dumps(BASE))
    for (section, key), value in overrides.items():
        config.setdefault(section, {})[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "config.json").write_text(json.dumps(config))
        cfg, data, ckpt = str(root / "config.json"), str(root / "data"), str(root / "m.ckpt")
        pos = ",".join(map(repr, position))
        stages = [
            ["gen-data", "--config", cfg, "--out", data],
            ["train", "--config", cfg, "--data", data, "--out-ckpt", ckpt],
            ["sample", "--ckpt", ckpt, f"--pos={pos}", "--num", "2",
             "--out", str(root / "gen.bin")],
            ["eval", "--gen", str(root / "gen.bin"), "--ref", data + ".test",
             "--out-csv", str(root / "eval.csv")],
        ]
        for argv in stages:
            if not run_stage(argv):
                event(f"{argv[0]} exits 1")
                break
        else:
            event("all four stages exit 0")
