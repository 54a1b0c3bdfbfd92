"""Metric names, units and how the per-layer table is computed from spans.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json`` declares;
the self-test checks that they match.  Per-layer values are 0 where a
workload never calls the function a metric describes.
"""
from __future__ import annotations

from statistics import median

import numpy as np

from tracing import MODULES, SpanTable

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("primary_ms.p90", "ms", "lower", 0.25),
    ("secondary_ms.p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("success_rate", "1", "higher", 0.01),
)

# name, unit, better
PER_LAYER = (
    ("paths.draw_paths.ms", "ms", "lower"),
    ("channel.swm_channel.ms", "ms", "lower"),
    ("channel.swm_channel.elem_paths", "count", "lower"),
    ("channel.swm_channel.melem_paths_per_s", "1/s", "higher"),
    ("channel.hpsm_channel.ms", "ms", "lower"),
    ("beamspace.to_beamspace.ms", "ms", "lower"),
    ("dataset.build_dataset.self_ms_per_sample", "ms", "lower"),
    ("dataset.normalize.ms", "ms", "lower"),
    ("dataset.split.ms", "ms", "lower"),
    ("dataset.write_dataset.mb_per_s", "MB/s", "higher"),
    ("dataset.read_dataset.mb_per_s", "MB/s", "higher"),
    ("dataset.bytes", "bytes", "lower"),
    ("dit.loss_and_grads.ms", "ms", "lower"),
    ("dit.forward.ms.b8", "ms", "lower"),
    ("dit.backward.ms.b8", "ms", "lower"),
    ("dit.gelu.ms", "ms", "lower"),
    ("dit.dgelu.ms", "ms", "lower"),
    ("dit.layer_norm.ms", "ms", "lower"),
    ("dit.layer_norm_backward.ms", "ms", "lower"),
    ("dit.forward.gflop", "GFLOP", "lower"),
    ("dit.backward.gflop", "GFLOP", "lower"),
    ("dit.evaluate.ms.b512", "ms", "lower"),
    ("dit.evaluate.ms.b8", "ms", "lower"),
    ("dit.evaluate.ms.b8.p90", "ms", "lower"),
    ("dit.gelu.share.b512", "1", "lower"),
    ("dit.evaluate.gflops.b512", "GFLOP/s", "higher"),
    ("dit.evaluate.peak_alloc_mb.b512", "MB", "lower"),
    ("diffusion.euler_sample.self_ms_per_step", "ms", "lower"),
    ("diffusion.ema_update.ms", "ms", "lower"),
    ("diffusion.draw_sigma.us", "us", "lower"),
    ("training.adam_step.ms", "ms", "lower"),
    ("training.evaluate_loss.ms_per_epoch", "ms", "lower"),
    ("training.train.self_ms_per_step", "ms", "lower"),
    ("training.train.attributed_frac", "1", "higher"),
    ("training.train.test_loss", "1", "lower"),
    ("checkpoint.save_checkpoint.ms", "ms", "lower"),
    ("checkpoint.load_checkpoint.ms", "ms", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("evaluation.ssim_complex.us", "us", "lower"),
    ("evaluation.ssim_complex.calls_per_pair", "count", "lower"),
    ("evaluation.angular_power.ms", "ms", "lower"),
    ("evaluation.nmse.us", "us", "lower"),
    ("cli.cmd_eval.self_ms", "ms", "lower"),
    *((f"{module}.errors", "count", "lower") for module in MODULES),
    ("bench.trace_overhead_frac.primary", "1", "lower"),
    ("bench.trace_overhead_frac.secondary", "1", "lower"),
)

# Counts derived from sizes and configurations rather than timed.
COMPUTED = frozenset({
    "channel.swm_channel.elem_paths", "dataset.bytes", "dit.forward.gflop",
    "dit.backward.gflop", "checkpoint.bytes", "evaluation.ssim_complex.calls_per_pair",
})

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def dit_matmul_flops(cfg, batch: int) -> int:
    """Matmul FLOPs of one DitDenoiser.forward at this batch size.

    Counts 2 FLOPs per multiply-add in every linear layer and in the two
    attention products; elementwise work is not counted.  ``backward``
    computes an input and a weight gradient for each of them: twice this.
    """
    d, n, p, r = cfg.embed_dim, cfg.n_tokens, cfg.patch_dim, cfg.mlp_ratio
    per_token = 2 * p * d + 2 * d * p + cfg.depth * (
        2 * d * 3 * d      # qkv
        + 2 * 2 * n * d    # scores and attention-weighted values
        + 2 * d * d        # proj
        + 2 * 2 * d * r * d  # fc1, fc2
    )
    per_sample = (
        2 * 2 * d * d                           # timestep MLP
        + 2 * (cfg.condition_dim * d + d * d)   # condition MLP
        + cfg.depth * 2 * d * 6 * d             # block adaLN modulation
        + 2 * d * 2 * d                         # final modulation
    )
    return batch * (n * per_token + per_sample)


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(outcome, setup_times, peak_rss_mb: float) -> dict:
    values = {"setup_s": median(setup_times) if setup_times else 0.0}
    for key in ("primary_ms", "secondary_ms"):
        samples = outcome.samples.get(key)
        values[f"{key}.p90"] = float(np.percentile(samples, 90)) if samples else 0.0
    values["peak_rss_mb"] = peak_rss_mb
    values["success_rate"] = 1.0 - _per(outcome.failed, outcome.attempted)
    return values


def per_layer(tracer, counts: dict, sizes, dit_config, extras: dict) -> dict:
    """The per-layer table from one traced run's spans."""
    tab = SpanTable(tracer)
    big, small = sizes.big_batch, sizes.small_batch
    m = {}

    def mean(name, tag=None, scale=1.0):
        return tab.mean_ms(name, tag) * scale

    def rate_mb_per_s(name):
        return _per(tab.tag_total(name) / 1e6, tab.total_ms(name) / 1e3)

    m["paths.draw_paths.ms"] = mean("paths.draw_paths")
    m["channel.swm_channel.ms"] = mean("channel.swm_channel")
    m["channel.swm_channel.elem_paths"] = _per(
        tab.tag_total("channel.swm_channel"), tab.count("channel.swm_channel"))
    m["channel.swm_channel.melem_paths_per_s"] = _per(
        tab.tag_total("channel.swm_channel") / 1e6,
        tab.total_ms("channel.swm_channel") / 1e3)
    m["channel.hpsm_channel.ms"] = mean("channel.hpsm_channel")
    m["beamspace.to_beamspace.ms"] = mean("beamspace.to_beamspace")
    m["dataset.build_dataset.self_ms_per_sample"] = _per(
        tab.self_total_ms("dataset.build_dataset"), tab.tag_total("dataset.build_dataset"))
    m["dataset.normalize.ms"] = mean("dataset.normalize")
    m["dataset.split.ms"] = mean("dataset.split")
    m["dataset.write_dataset.mb_per_s"] = rate_mb_per_s("dataset.write_dataset")
    m["dataset.read_dataset.mb_per_s"] = rate_mb_per_s("dataset.read_dataset")
    m["dataset.bytes"] = _per(
        tab.tag_total("dataset.write_dataset"), tab.count("dataset.write_dataset"))

    uses_dit = tab.count("dit.forward") > 0
    m["dit.loss_and_grads.ms"] = mean("dit.loss_and_grads")
    m["dit.forward.ms.b8"] = mean("dit.forward", small)
    m["dit.backward.ms.b8"] = mean("dit.backward", small)
    for fn in ("gelu", "dgelu", "layer_norm", "layer_norm_backward"):
        m[f"dit.{fn}.ms"] = mean(f"dit.{fn}")
    forward_gflop = dit_matmul_flops(dit_config, small) / 1e9 if uses_dit else 0.0
    m["dit.forward.gflop"] = forward_gflop
    m["dit.backward.gflop"] = 2 * forward_gflop
    evaluate_big = tab.mean_ms("dit.evaluate", big)
    m["dit.evaluate.ms.b512"] = evaluate_big
    m["dit.evaluate.ms.b8"] = mean("dit.evaluate", small)
    m["dit.evaluate.ms.b8.p90"] = tab.percentile_ms("dit.evaluate", 90, small)
    m["dit.gelu.share.b512"] = _per(
        float(tab.dur_ms[tab.inside("dit.gelu", "dit.evaluate", big)].sum()),
        tab.total_ms("dit.evaluate", big))
    m["dit.evaluate.gflops.b512"] = _per(
        dit_matmul_flops(dit_config, big) / 1e9, evaluate_big / 1e3)
    m["dit.evaluate.peak_alloc_mb.b512"] = extras.get("dit.evaluate.peak_alloc_mb.b512", 0.0)

    m["diffusion.euler_sample.self_ms_per_step"] = _per(
        tab.self_total_ms("diffusion.euler_sample"), tab.tag_total("diffusion.euler_sample"))
    m["diffusion.ema_update.ms"] = mean("diffusion.ema_update")
    m["diffusion.draw_sigma.us"] = mean("diffusion.draw_sigma", scale=1e3)

    m["training.adam_step.ms"] = mean("training.adam_step")
    epoch_loss = tab.inside("training.evaluate_loss", "training.train")
    m["training.evaluate_loss.ms_per_epoch"] = (
        float(tab.dur_ms[epoch_loss].mean()) if epoch_loss.any() else 0.0)
    m["training.train.self_ms_per_step"] = _per(
        tab.self_total_ms("training.train"), tab.tag_total("training.train"))
    train_ms = tab.total_ms("training.train")
    m["training.train.attributed_frac"] = _per(
        train_ms - tab.self_total_ms("training.train"), train_ms)
    m["training.train.test_loss"] = extras.get("training.train.test_loss", 0.0)

    m["checkpoint.save_checkpoint.ms"] = mean("checkpoint.save_checkpoint")
    m["checkpoint.load_checkpoint.ms"] = mean("checkpoint.load_checkpoint")
    m["checkpoint.bytes"] = _per(
        tab.tag_total("checkpoint.save_checkpoint"), tab.count("checkpoint.save_checkpoint"))

    m["evaluation.ssim_complex.us"] = mean("evaluation.ssim_complex", scale=1e3)
    m["evaluation.ssim_complex.calls_per_pair"] = _per(
        int(tab.inside("evaluation.ssim_complex", "cli.cmd_eval").sum()),
        counts.get("eval_pairs", 0))
    m["evaluation.angular_power.ms"] = mean("evaluation.angular_power")
    m["evaluation.nmse.us"] = mean("evaluation.nmse", scale=1e3)
    m["cli.cmd_eval.self_ms"] = _per(
        tab.self_total_ms("cli.cmd_eval"), tab.count("cli.cmd_eval"))

    for module in MODULES:
        m[f"{module}.errors"] = float(tracer.errors[module])
    for key in ("primary", "secondary"):
        name = f"bench.trace_overhead_frac.{key}"
        m[name] = extras.get(name, 0.0)
    return m
