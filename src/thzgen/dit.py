"""Conditional diffusion transformer denoiser with hand-written gradients.

Everything runs in float64 numpy.  The parameters, and each gradient, live
as named views into one flat vector (``FlatParams``) laid out by
``param_shapes``.  ``forward`` caches intermediates so ``backward`` can
produce exact parameter gradients (verified against central finite
differences in the test suite).  Inference (``denoise``) runs the same block
code over fixed-size slices of the batch and records no cache, so its
working set does not grow with the batch; the slices of one call run on one
lane (thread) per usable CPU.
"""
from __future__ import annotations

import contextvars
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import NumericError

LN_EPS = 1e-6

# Token rows per inference slice: ``denoise`` runs ``max(2, ROWS // n_tokens)``
# samples at a time, which keeps a slice's activations small enough to stay
# in CPU cache while still amortising numpy's per-call overhead.
ROWS = 256


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Lanes that run the slices of one ``denoise`` call: the calling thread and
# ``LANES - 1`` helper threads from one pool.  ``taskset`` limits it.
LANES = _usable_cpus()

# A call gets one lane per SLICES_PER_LANE slices.  A helper that has just
# been woken can share the caller's CPU for a whole short call: on a 2-core
# box an 8-slice toy-model call (B=64) on two lanes ran anywhere between
# 1.8x faster and 15% slower than on one, from one call to the next, while
# calls of 12 slices or more ran steadily 1.6-1.8x faster.
SLICES_PER_LANE = 8

_pool: tuple[int, ThreadPoolExecutor] | None = None
_pool_lock = threading.Lock()


def _helper_pool() -> ThreadPoolExecutor:
    """The helper-lane pool, made on first use with ``LANES - 1`` threads.

    A pool made for another lane count is replaced; the old one's threads
    exit once it is collected.
    """
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != LANES - 1:
            _pool = (LANES - 1, ThreadPoolExecutor(LANES - 1, "thzgen-lane"))
        return _pool[1]


def _drop_pool() -> None:
    # A forked child has none of the pool's threads.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # absent where there is no fork
    os.register_at_fork(after_in_child=_drop_pool)


@dataclass(frozen=True)
class DitConfig:
    n_rx: int
    n_tx: int
    patch_size: int = 4
    embed_dim: int = 64
    depth: int = 4
    n_heads: int = 4
    mlp_ratio: int = 4
    condition_dim: int = 8
    sigma_data: float = 1.0

    def __post_init__(self):
        if self.n_rx % self.patch_size or self.n_tx % self.patch_size:
            raise ValueError(
                f"patch size {self.patch_size} must divide ({self.n_rx}, {self.n_tx})"
            )
        if self.embed_dim % self.n_heads:
            raise ValueError(
                f"embed_dim {self.embed_dim} must divide into {self.n_heads} heads"
            )
        if self.embed_dim % 4:
            raise ValueError("embed_dim must be divisible by 4 for 2-D sincos tables")
        if self.n_tokens < 1:
            raise ValueError("need at least one token")

    @property
    def grid(self) -> tuple[int, int]:
        return self.n_rx // self.patch_size, self.n_tx // self.patch_size

    @property
    def n_tokens(self) -> int:
        gr, gc = self.grid
        return gr * gc

    @property
    def patch_dim(self) -> int:
        return 2 * self.patch_size**2

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.n_heads


# ---------------------------------------------------------------------------
# Elementwise nonlinearities and their derivatives.

def silu(x):
    return x / (1.0 + np.exp(-x))


def dsilu(x):
    s = 1.0 / (1.0 + np.exp(-x))
    return s * (1.0 + x * (1.0 - s))


def gelu(x):
    """Returns (gelu(x), 1 + erf(x/sqrt 2)); the second factor feeds dgelu."""
    e = np.divide(x, np.sqrt(2.0))
    erf(e, out=e)
    e += 1.0
    y = 0.5 * x
    y *= e
    return y, e


def dgelu(x, e):
    """GELU derivative at x, given e = 1 + erf(x/sqrt 2) from the forward pass."""
    g = x**2
    g *= -0.5
    np.exp(g, out=g)
    g *= x
    g /= np.sqrt(2.0 * np.pi)
    g += 0.5 * e
    return g


# ---------------------------------------------------------------------------
# Tokenization and embeddings.

def patchify(tensor: np.ndarray, patch_size: int) -> np.ndarray:
    """(..., 2, Nr, Nt) -> (..., N, 2*P*P), row-major over the patch grid."""
    *lead, ch, n_rx, n_tx = tensor.shape
    p = patch_size
    if n_rx % p or n_tx % p:
        raise ValueError(f"patch size {p} must divide ({n_rx}, {n_tx})")
    gr, gc = n_rx // p, n_tx // p
    x = tensor.reshape(*lead, ch, gr, p, gc, p)
    # (..., gr, gc, ch, p, p): each flattened patch is (channel, row, col).
    x = np.moveaxis(x, (-5, -4, -3, -2, -1), (-3, -5, -2, -4, -1))
    return x.reshape(*lead, gr * gc, ch * p * p)


def unpatchify(
    patches: np.ndarray, patch_size: int, n_rx: int, n_tx: int
) -> np.ndarray:
    """Inverse of patchify; exact round trip."""
    *lead, n_tokens, patch_dim = patches.shape
    p = patch_size
    gr, gc = n_rx // p, n_tx // p
    ch = patch_dim // (p * p)
    x = patches.reshape(*lead, gr, gc, ch, p, p)
    x = np.moveaxis(x, (-5, -4, -3, -2, -1), (-4, -2, -5, -3, -1))
    return x.reshape(*lead, ch, n_rx, n_tx)


def _sincos_1d(positions: np.ndarray, dim: int) -> np.ndarray:
    omega = 1.0 / 10000.0 ** (np.arange(dim // 2) / (dim // 2))
    args = np.outer(positions, omega)
    return np.concatenate([np.sin(args), np.cos(args)], axis=-1)


def positional_table(grid: tuple[int, int], embed_dim: int) -> np.ndarray:
    """Fixed 2-D sinusoidal table, (gr*gc, D); half the width per axis."""
    if embed_dim % 4:
        raise ValueError("embed_dim must be divisible by 4")
    gr, gc = grid
    rows, cols = np.meshgrid(np.arange(gr), np.arange(gc), indexing="ij")
    emb_r = _sincos_1d(rows.ravel(), embed_dim // 2)
    emb_c = _sincos_1d(cols.ravel(), embed_dim // 2)
    return np.concatenate([emb_r, emb_c], axis=-1)


def timestep_features(c_noise: np.ndarray, dim: int) -> np.ndarray:
    """Sinusoidal features of the log-noise level, (B, D)."""
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    args = np.asarray(c_noise)[:, None] * freqs[None, :]
    return np.concatenate([np.cos(args), np.sin(args)], axis=-1)


def layer_norm(x: np.ndarray):
    """Per-token normalization over the feature axis, no learned affine."""
    # Same sums as x.var(): the mean of the squared deviations from x.mean().
    x_hat = x - x.mean(axis=-1, keepdims=True)
    var = np.square(x_hat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    x_hat *= inv
    return x_hat, inv


def layer_norm_backward(dy: np.ndarray, x_hat: np.ndarray, inv: np.ndarray):
    m1 = dy.mean(axis=-1, keepdims=True)
    m2 = (dy * x_hat).mean(axis=-1, keepdims=True)
    return inv * (dy - m1 - x_hat * m2)


def adaln(x: np.ndarray, c: np.ndarray, mod_w: np.ndarray, mod_b: np.ndarray):
    """LayerNorm followed by condition-driven scale/shift.

    The modulation map produces (gamma, beta) from silu(c); zero-initialized
    maps make this an exact LayerNorm.
    """
    mod = silu(c) @ mod_w + mod_b
    gamma, beta = np.split(mod, 2, axis=-1)
    x_hat, _ = layer_norm(x)
    return (1.0 + gamma[..., None, :]) * x_hat + beta[..., None, :]


# ---------------------------------------------------------------------------
# Parameter layout and initialization.

def param_shapes(config: DitConfig) -> dict[str, tuple[int, ...]]:
    """The parameter layout: tensor name -> shape, in flat-vector order."""
    d, f, pd = config.embed_dim, config.mlp_ratio * config.embed_dim, config.patch_dim
    shapes = {
        "patch.w": (pd, d), "patch.b": (d,),
        "t_mlp.w1": (d, d), "t_mlp.b1": (d,),
        "t_mlp.w2": (d, d), "t_mlp.b2": (d,),
        "p_mlp.w1": (config.condition_dim, d), "p_mlp.b1": (d,),
        "p_mlp.w2": (d, d), "p_mlp.b2": (d,),
    }
    for i in range(config.depth):
        pre = f"block{i}."
        shapes.update({
            pre + "mod.w": (d, 6 * d), pre + "mod.b": (6 * d,),
            pre + "qkv.w": (d, 3 * d), pre + "qkv.b": (3 * d,),
            pre + "proj.w": (d, d), pre + "proj.b": (d,),
            pre + "fc1.w": (d, f), pre + "fc1.b": (f,),
            pre + "fc2.w": (f, d), pre + "fc2.b": (d,),
        })
    shapes.update({
        "final.mod.w": (d, 2 * d), "final.mod.b": (2 * d,),
        "head.w": (d, pd), "head.b": (pd,),
    })
    return shapes


class FlatParams(dict):
    """Named, shaped views into one float64 vector, ``self.vector``.

    Writing into ``params[name]`` writes the vector; assigning a new array to
    a name only rebinds that entry, so the vector is trusted only by code
    that built the mapping.
    """

    def __init__(self, shapes: dict, vector: np.ndarray | None = None):
        sizes = [math.prod(shape) for shape in shapes.values()]
        self.vector = np.zeros(sum(sizes)) if vector is None else vector
        chunks = np.split(self.vector, np.cumsum(sizes)[:-1])
        super().__init__(
            (name, chunk.reshape(shape))
            for (name, shape), chunk in zip(shapes.items(), chunks)
        )

    @classmethod
    def copy_of(cls, shapes: dict, tensors, what: str = "DiT parameters") -> FlatParams:
        """A new vector holding ``tensors``, after checking names and shapes.

        The ValueError names each missing, unexpected or mis-shaped tensor.
        """
        faults = [f"missing tensor {n!r}" for n in shapes if n not in tensors]
        faults += [f"unexpected tensor {n!r}" for n in tensors if n not in shapes]
        faults += [
            f"tensor {n!r} has shape {np.shape(a)}, the config expects {shapes[n]}"
            for n, a in tensors.items() if n in shapes and np.shape(a) != shapes[n]
        ]
        if faults:
            raise ValueError(f"{what}: {'; '.join(faults)}")
        params = cls(shapes)
        for name, view in params.items():
            view[...] = tensors[name]
        return params


# Biases, the adaLN modulation maps and the head start at zero (adaLN-Zero).
_ZERO_INIT = (".b", ".b1", ".b2", "mod.w", "head.w")


def init_params(config: DitConfig, rng: np.random.Generator) -> FlatParams:
    """Fan-in scaled normal weights, drawn in layout order; the rest zero."""
    # Fan-in scaling keeps activation magnitudes roughly unit regardless of
    # layer width; a fixed small std starves narrow inputs (e.g. the patch
    # embedding at small patch sizes) relative to the O(1) positional table.
    params = FlatParams(param_shapes(config))
    for name, view in params.items():
        if not name.endswith(_ZERO_INIT):
            view[...] = rng.normal(0.0, 1.0 / np.sqrt(view.shape[0]), size=view.shape)
    return params


def _linear(x, w, b):
    y = x @ w
    y += b
    return y


def _linear_backward(dy, x, params, grads, w, b):
    """dx; writes the grads of weight ``w`` and bias ``b`` (batch axes flattened)."""
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    np.matmul(x2.T, dy2, out=grads[w])
    np.sum(dy2, axis=0, out=grads[b])
    return dy @ params[w].T


class DitDenoiser:
    """Preconditioned conditional DiT: D(h, sigma, p) = c_skip*h + c_out*F(...)."""

    def __init__(
        self,
        config: DitConfig,
        params: dict | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.config = config
        self.shapes = param_shapes(config)
        if params is None:
            self.params = init_params(config, rng or np.random.default_rng(0))
        else:
            self.params = FlatParams.copy_of(self.shapes, params)
        self.pos = positional_table(config.grid, config.embed_dim)

    # -- preconditioning ----------------------------------------------------

    def _coeffs(self, sigma: np.ndarray):
        sd = self.config.sigma_data
        denom = sigma**2 + sd**2
        c_skip = sd**2 / denom
        c_out = sigma * sd / np.sqrt(denom)
        c_in = 1.0 / np.sqrt(denom)
        c_noise = np.log(sigma) / 4.0
        return c_skip, c_out, c_in, c_noise

    # -- embeddings ---------------------------------------------------------

    def embed_timestep(self, sigma) -> np.ndarray:
        """(B,) noise levels -> (B, D) timestep embedding."""
        sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
        if np.any(sigma <= 0):
            raise ValueError("sigma must be > 0")
        p = self.params
        feat = timestep_features(np.log(sigma) / 4.0, self.config.embed_dim)
        return _linear(silu(_linear(feat, p["t_mlp.w1"], p["t_mlp.b1"])),
                       p["t_mlp.w2"], p["t_mlp.b2"])

    def embed_condition(self, cond) -> np.ndarray:
        """(B, 8) conditioning vectors -> (B, D) geometry embedding."""
        cond = np.atleast_2d(np.asarray(cond, dtype=float))
        if not np.all(np.isfinite(cond)):
            raise ValueError("condition vector contains non-finite values")
        p = self.params
        return _linear(silu(_linear(cond, p["p_mlp.w1"], p["p_mlp.b1"])),
                       p["p_mlp.w2"], p["p_mlp.b2"])

    # -- forward ------------------------------------------------------------

    def forward(self, h: np.ndarray, sigma: np.ndarray, cond: np.ndarray):
        """Batched forward pass; returns (output, cache) for backward."""
        cache = {"blocks": []}
        return self._forward(h, sigma, cond, cache), cache

    def _forward(self, h, sigma, cond, cache=None) -> np.ndarray:
        """The forward pass; fills ``cache``, if given, with what ``backward`` needs."""
        cfg = self.config
        p = self.params
        h = np.asarray(h, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        cond = np.asarray(cond, dtype=float)
        if np.any(sigma <= 0):
            raise ValueError("sigma must be > 0")

        c_skip, c_out, c_in, c_noise = self._coeffs(sigma)
        x_in = c_in[:, None, None, None] * h
        patches = patchify(x_in, cfg.patch_size)
        tok = _linear(patches, p["patch.w"], p["patch.b"])
        tok += self.pos

        tfeat = timestep_features(c_noise, cfg.embed_dim)
        t_pre = _linear(tfeat, p["t_mlp.w1"], p["t_mlp.b1"])
        t_act = silu(t_pre)
        e_t = _linear(t_act, p["t_mlp.w2"], p["t_mlp.b2"])
        p_pre = _linear(cond, p["p_mlp.w1"], p["p_mlp.b1"])
        p_act = silu(p_pre)
        e_p = _linear(p_act, p["p_mlp.w2"], p["p_mlp.b2"])
        c = e_t + e_p
        sc = silu(c)

        for i in range(cfg.depth):
            tok, bcache = self._block_forward(tok, sc, i)
            if cache is not None:
                cache["blocks"].append(bcache)
            # Free an unrecorded block's activations before the next block runs.
            del bcache

        mod = _linear(sc, p["final.mod.w"], p["final.mod.b"])
        gf, bf = np.split(mod, 2, axis=-1)
        lnf, invf = layer_norm(tok)
        y = (1.0 + gf[:, None, :]) * lnf
        y += bf[:, None, :]
        out_patches = _linear(y, p["head.w"], p["head.b"])
        f_out = unpatchify(out_patches, cfg.patch_size, cfg.n_rx, cfg.n_tx)
        out = c_skip[:, None, None, None] * h + c_out[:, None, None, None] * f_out
        if not np.all(np.isfinite(out)):
            raise _non_finite(0, sigma)

        if cache is not None:
            cache.update({
                "cond": cond, "c_out": c_out, "patches": patches, "tfeat": tfeat,
                "t_pre": t_pre, "t_act": t_act, "p_pre": p_pre, "p_act": p_act,
                "c": c, "sc": sc, "gf": gf, "lnf": lnf, "invf": invf, "y": y,
            })
        return out

    def _block_forward(self, tok: np.ndarray, sc: np.ndarray, i: int):
        cfg = self.config
        p = self.params
        pre = f"block{i}."
        b, n, d = tok.shape
        nh, dh = cfg.n_heads, cfg.head_dim

        mod = _linear(sc, p[pre + "mod.w"], p[pre + "mod.b"])
        g1, s1, a1, g2, s2, a2 = np.split(mod, 6, axis=-1)

        ln1, inv1 = layer_norm(tok)
        m1 = (1.0 + g1[:, None, :]) * ln1
        m1 += s1[:, None, :]
        qkv = _linear(m1, p[pre + "qkv.w"], p[pre + "qkv.b"])
        q, k, v = np.split(qkv, 3, axis=-1)
        q = q.reshape(b, n, nh, dh).transpose(0, 2, 1, 3)
        k = k.reshape(b, n, nh, dh).transpose(0, 2, 1, 3)
        v = v.reshape(b, n, nh, dh).transpose(0, 2, 1, 3)
        # Softmax in place: scale, shift by the row max, exp, normalise.
        attn = q @ k.transpose(0, 1, 3, 2)
        attn /= np.sqrt(dh)
        attn -= attn.max(axis=-1, keepdims=True)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=-1, keepdims=True)
        heads = attn @ v  # (b, nh, n, dh)
        concat = heads.transpose(0, 2, 1, 3).reshape(b, n, d)
        attn_out = _linear(concat, p[pre + "proj.w"], p[pre + "proj.b"])
        tok1 = a1[:, None, :] * attn_out
        tok1 += tok

        ln2, inv2 = layer_norm(tok1)
        m2 = (1.0 + g2[:, None, :]) * ln2
        m2 += s2[:, None, :]
        f_pre = _linear(m2, p[pre + "fc1.w"], p[pre + "fc1.b"])
        f_act, f_erf = gelu(f_pre)
        ffn_out = _linear(f_act, p[pre + "fc2.w"], p[pre + "fc2.b"])
        tok2 = a2[:, None, :] * ffn_out
        tok2 += tok1

        bcache = {
            "g1": g1, "a1": a1, "g2": g2, "a2": a2,
            "ln1": ln1, "inv1": inv1, "m1": m1,
            "q": q, "k": k, "v": v, "attn": attn, "concat": concat,
            "attn_out": attn_out,
            "ln2": ln2, "inv2": inv2, "m2": m2,
            "f_pre": f_pre, "f_erf": f_erf, "f_act": f_act, "ffn_out": ffn_out,
        }
        return tok2, bcache

    # -- backward -----------------------------------------------------------

    def backward(self, cache, d_out: np.ndarray) -> FlatParams:
        """Parameter gradients for a loss whose output gradient is d_out."""
        cfg = self.config
        p = self.params
        grads = FlatParams(self.shapes)

        c_out = cache["c_out"]
        d_f = c_out[:, None, None, None] * d_out
        d_patches_out = patchify(d_f, cfg.patch_size)

        # Output head and final adaLN.
        d_y = _linear_backward(d_patches_out, cache["y"], p, grads, "head.w", "head.b")
        gf, lnf, invf = cache["gf"], cache["lnf"], cache["invf"]
        d_lnf = d_y * (1.0 + gf[:, None, :])
        d_gf = (d_y * lnf).sum(axis=1)
        d_bf = d_y.sum(axis=1)
        d_modf = np.concatenate([d_gf, d_bf], axis=-1)
        d_sc = _linear_backward(
            d_modf, cache["sc"], p, grads, "final.mod.w", "final.mod.b"
        )
        d_tok = layer_norm_backward(d_lnf, lnf, invf)

        for i in reversed(range(cfg.depth)):
            d_tok, d_sc_i = self._block_backward(
                d_tok, cache["blocks"][i], cache["sc"], i, grads
            )
            d_sc += d_sc_i

        # Patch embedding.
        _linear_backward(d_tok, cache["patches"], p, grads, "patch.w", "patch.b")

        # Conditioning vector into both embedding MLPs.
        d_c = d_sc * dsilu(cache["c"])
        d_ta = _linear_backward(d_c, cache["t_act"], p, grads, "t_mlp.w2", "t_mlp.b2")
        d_tpre = d_ta * dsilu(cache["t_pre"])
        _linear_backward(d_tpre, cache["tfeat"], p, grads, "t_mlp.w1", "t_mlp.b1")
        d_pa = _linear_backward(d_c, cache["p_act"], p, grads, "p_mlp.w2", "p_mlp.b2")
        d_ppre = d_pa * dsilu(cache["p_pre"])
        _linear_backward(d_ppre, cache["cond"], p, grads, "p_mlp.w1", "p_mlp.b1")
        return grads

    def _block_backward(self, d_tok2, bc, sc, i, grads):
        cfg = self.config
        p = self.params
        pre = f"block{i}."
        nh, dh = cfg.n_heads, cfg.head_dim

        # FFN branch: tok2 = tok1 + a2 * ffn_out.
        a2 = bc["a2"]
        d_a2 = (d_tok2 * bc["ffn_out"]).sum(axis=1)
        d_ffn = d_tok2 * a2[:, None, :]
        d_fact = _linear_backward(
            d_ffn, bc["f_act"], p, grads, pre + "fc2.w", pre + "fc2.b"
        )
        d_fpre = d_fact * dgelu(bc["f_pre"], bc["f_erf"])
        d_m2 = _linear_backward(
            d_fpre, bc["m2"], p, grads, pre + "fc1.w", pre + "fc1.b"
        )
        d_g2 = (d_m2 * bc["ln2"]).sum(axis=1)
        d_s2 = d_m2.sum(axis=1)
        d_ln2 = d_m2 * (1.0 + bc["g2"][:, None, :])
        d_tok1 = d_tok2 + layer_norm_backward(d_ln2, bc["ln2"], bc["inv2"])

        # Attention branch: tok1 = tok + a1 * attn_out.
        a1 = bc["a1"]
        d_a1 = (d_tok1 * bc["attn_out"]).sum(axis=1)
        d_attn_out = d_tok1 * a1[:, None, :]
        d_concat = _linear_backward(
            d_attn_out, bc["concat"], p, grads, pre + "proj.w", pre + "proj.b"
        )
        b, n, d = d_concat.shape
        d_heads = d_concat.reshape(b, n, nh, dh).transpose(0, 2, 1, 3)
        attn, v = bc["attn"], bc["v"]
        d_attn = d_heads @ v.transpose(0, 1, 3, 2)
        d_v = attn.transpose(0, 1, 3, 2) @ d_heads
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
        d_scores /= np.sqrt(dh)
        d_q = d_scores @ bc["k"]
        d_k = d_scores.transpose(0, 1, 3, 2) @ bc["q"]

        def merge(x):
            return x.transpose(0, 2, 1, 3).reshape(b, n, d)

        d_qkv = np.concatenate([merge(d_q), merge(d_k), merge(d_v)], axis=-1)
        d_m1 = _linear_backward(d_qkv, bc["m1"], p, grads, pre + "qkv.w", pre + "qkv.b")
        d_g1 = (d_m1 * bc["ln1"]).sum(axis=1)
        d_s1 = d_m1.sum(axis=1)
        d_ln1 = d_m1 * (1.0 + bc["g1"][:, None, :])
        d_tok = d_tok1 + layer_norm_backward(d_ln1, bc["ln1"], bc["inv1"])

        d_mod = np.concatenate([d_g1, d_s1, d_a1, d_g2, d_s2, d_a2], axis=-1)
        d_sc = _linear_backward(d_mod, sc, p, grads, pre + "mod.w", pre + "mod.b")
        return d_tok, d_sc

    # -- loss helpers -------------------------------------------------------

    def loss_and_grads(
        self,
        h0: np.ndarray,
        cond: np.ndarray,
        sigmas: np.ndarray,
        noise: np.ndarray,
    ):
        """Denoising loss and exact parameter gradients for one batch.

        ``noise`` is the pre-drawn standard-normal perturbation, so the loss
        is a deterministic function of the parameters (as the gradient
        checks require).
        """
        h0 = np.asarray(h0, dtype=float)
        sigmas = np.asarray(sigmas, dtype=float)
        h_t = h0 + sigmas[:, None, None, None] * noise
        out, cache = self.forward(h_t, sigmas, cond)
        diff = out - h0
        loss = float(np.mean(diff**2))
        d_out = 2.0 * diff / diff.size
        grads = self.backward(cache, d_out)
        return loss, grads

    # -- denoiser interface -------------------------------------------------

    def denoise(self, h: np.ndarray, sigma: np.ndarray, cond: np.ndarray) -> np.ndarray:
        """``forward(h, sigma, cond)[0]`` without recording a backward cache.

        Runs the forward pass over consecutive slices of
        ``max(2, ROWS // n_tokens)`` samples and writes each slice into one
        output array, so each lane holds one slice's activations at a time.
        Every sample goes through the same arithmetic as in a whole-batch
        ``forward``, so the result is bit-for-bit the same at any lane
        count.  That needs at least two samples per slice: on one sample the
        per-sample matmuls take BLAS's matrix-vector path, which rounds
        differently, so a lone last sample joins the slice before it.

        The calling thread and ``lane_count - 1`` pool threads take slices
        in order until none is left or one has failed.  Then the error of
        the lowest failing slice is raised: every slice below it was taken
        and run, so the error does not depend on thread timing.
        """
        h = np.asarray(h, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        cond = np.asarray(cond, dtype=float)
        edges = slice_edges(self.config, len(h))
        out = np.empty(h.shape)
        todo = iter(zip(edges, edges[1:]))
        failures = []
        lock = threading.Lock()

        def lane():
            while True:
                with lock:
                    if failures:
                        return
                    start, end = next(todo, (None, None))
                if start is None:
                    return
                try:
                    out[start:end] = self._forward(
                        h[start:end], sigma[start:end], cond[start:end]
                    )
                except Exception as exc:
                    with lock:
                        failures.append((start, end, exc))
                    return

        # Each helper runs in a copy of the caller's context, which carries
        # numpy's errstate.
        helpers = [
            _helper_pool().submit(contextvars.copy_context().run, lane)
            for _ in range(lane_count(self.config, len(h)) - 1)
        ]
        lane()
        for helper in helpers:
            helper.result()
        if failures:
            start, end, exc = min(failures, key=lambda f: f[0])
            if isinstance(exc, NumericError):
                raise _non_finite(start, sigma[start:end]) from None
            raise exc
        return out

    def evaluate(self, h_t: np.ndarray, sigma, condition) -> np.ndarray:
        """Shape-preserving denoiser call; accepts single samples or batches."""
        h_t = np.asarray(h_t, dtype=float)
        single = h_t.ndim == 3
        if single:
            h_t = h_t[None]
        batch = h_t.shape[0]
        sigma = np.broadcast_to(np.asarray(sigma, dtype=float), (batch,))
        condition = np.asarray(condition, dtype=float)
        if condition.ndim == 1:
            condition = np.broadcast_to(condition, (batch, condition.shape[0]))
        out = self.denoise(h_t, sigma, condition)
        return out[0] if single else out


def slice_edges(config: DitConfig, batch: int) -> list[int]:
    """Sample indices at which ``denoise`` cuts a batch into slices."""
    step = max(2, ROWS // config.n_tokens)
    return [*range(0, max(batch - 1, 1), step), batch]


def lane_count(config: DitConfig, batch: int) -> int:
    """Threads one ``denoise`` call on ``batch`` samples runs on."""
    slices = len(slice_edges(config, batch)) - 1
    return max(1, min(LANES, slices // SLICES_PER_LANE))


def _non_finite(start: int, sigma: np.ndarray) -> NumericError:
    """The error for a batch slice whose output head went non-finite."""
    return NumericError(
        f"non-finite activations in the output head for samples "
        f"{start}-{start + len(sigma) - 1} "
        f"(sigma {float(sigma.min()):g} to {float(sigma.max()):g})"
    )
