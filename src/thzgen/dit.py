"""Conditional diffusion transformer denoiser with hand-written gradients.

The parameters, and each gradient, live as named views into one flat
vector (``FlatParams``) laid out by ``param_shapes``.  ``forward`` caches
intermediates so ``backward`` can produce exact parameter gradients
(verified against central finite differences, in float64, in the test
suite).  Inference (``evaluate``) runs the same block code over fixed-size
slices of the batch and records no cache, so its working set does not grow
with the batch; a call whose slices carry enough work splits them over
lanes, threads it starts and joins (``_lanes``).  A denoiser runs its network,
forward and backward, in the dtype of the weights it holds: training steps,
sampling and the test loss use float32 weights, while the preconditioning,
the skip path ``c_skip*h + c_out*F`` and the loss stay float64.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import _lanes
from .errors import NumericError, check_count, is_integer
from .geometry import CONDITION_DIM

LN_EPS = 1e-6

# EDM's sigma_data (Karras et al. 2022), the clean data's per-entry RMS:
# ``dataset.normalize`` scales every dataset to 1.
SIGMA_DATA = 1.0

# Token rows per inference slice: ``evaluate`` runs ``max(2, ROWS // n_tokens)``
# samples at a time, which keeps a slice's activations small enough to stay
# in CPU cache while still amortising numpy's per-call overhead.
ROWS = 256


@dataclass(frozen=True)
class DitConfig:
    n_rx: int
    n_tx: int
    patch_size: int = 4
    embed_dim: int = 64
    depth: int = 4
    n_heads: int = 4
    mlp_ratio: int = 4

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not is_integer(value):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        check_count("n_rx", self.n_rx)
        check_count("n_tx", self.n_tx)
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        if min(self.patch_size, self.embed_dim, self.n_heads, self.mlp_ratio) < 1:
            raise ValueError("patch_size, embed_dim, n_heads and mlp_ratio must be >= 1")
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

    @property
    def condition_dim(self) -> int:
        return CONDITION_DIM

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


# tanh-approximation GELU (Hendrycks & Gimpel 2016), as in the DiT MLP.
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x):
    """Returns (0.5*x*e, e) with e = 1 + tanh(sqrt(2/pi)*(x + 0.044715*x**3)).

    ``e`` is built in one buffer, in place, and feeds ``dgelu``.
    """
    e = np.multiply(x, x)
    e *= x
    e *= _GELU_A
    e += x
    e *= _GELU_C
    np.tanh(e, out=e)
    e += 1.0
    y = 0.5 * x
    y *= e
    return y, e


def dgelu(x, e):
    """Exact derivative of ``gelu`` at x, given its factor e = 1 + tanh(u).

    d/dx = 0.5*e + 0.5*x*(1 - tanh(u)**2)*u', with 1 - tanh(u)**2 = e*(2 - e)
    and u' = sqrt(2/pi)*(1 + 3*0.044715*x**2), so no second tanh is taken.
    """
    g = 2.0 - e
    g *= e
    g *= x
    du = np.multiply(x, x)
    du *= 3.0 * _GELU_A
    du += 1.0
    du *= 0.5 * _GELU_C
    g *= du
    np.multiply(e, 0.5, out=du)
    g += du
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


def _modulate(x, g, s):
    """adaLN-Zero modulation (1 + g)*LayerNorm(x) + s by (B, D) g and s; returns (m, ln, inv)."""
    ln, inv = layer_norm(x)
    m = (1.0 + g[:, None, :]) * ln
    m += s[:, None, :]
    return m, ln, inv


def _modulate_backward(d_m, g, ln, inv):
    """(dx, dg, ds) of ``_modulate`` for an output gradient d_m."""
    d_g = (d_m * ln).sum(axis=1)
    d_s = d_m.sum(axis=1)
    d_x = layer_norm_backward(d_m * (1.0 + g[:, None, :]), ln, inv)
    return d_x, d_g, d_s


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
    """Named, shaped views into one vector, ``self.vector`` (float64 by default).

    Writing into ``params[name]`` writes the vector; assigning a new array to
    a name only rebinds that entry, so the vector is trusted only by code
    that built the mapping.
    """

    def __init__(self, shapes: dict, vector: np.ndarray | None = None, dtype=np.float64):
        sizes = [math.prod(shape) for shape in shapes.values()]
        self.vector = np.zeros(sum(sizes), dtype) if vector is None else vector
        chunks = np.split(self.vector, np.cumsum(sizes)[:-1])
        super().__init__(
            (name, chunk.reshape(shape))
            for (name, shape), chunk in zip(shapes.items(), chunks)
        )

    @classmethod
    def copy_of(
        cls, shapes: dict, tensors, what: str = "DiT parameters", dtype=np.float64
    ) -> FlatParams:
        """A new ``dtype`` vector holding ``tensors``, after checking names and shapes.

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
        params = cls(shapes, dtype=dtype)
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


def _embed(x, params, name):
    """The conditioning MLP ``name`` (linear, SiLU, linear); returns (out, pre, act)."""
    pre = _linear(x, params[name + ".w1"], params[name + ".b1"])
    act = silu(pre)
    return _linear(act, params[name + ".w2"], params[name + ".b2"]), pre, act


def _embed_backward(d_out, params, grads, name, x, pre, act):
    """Writes the grads of the conditioning MLP ``name`` for an output gradient."""
    d_act = _linear_backward(d_out, act, params, grads, name + ".w2", name + ".b2")
    _linear_backward(d_act * dsilu(pre), x, params, grads, name + ".w1", name + ".b1")


class DitDenoiser:
    """Preconditioned conditional DiT: D(h, sigma, p) = c_skip*h + c_out*F(...).

    It holds a ``dtype`` copy of ``params``, a name-to-tensor mapping checked
    against ``param_shapes(config)``; ``init_params`` draws a fresh one.  F
    and its gradients run in ``dtype``; ``backward`` returns gradients in
    that dtype.  ``training.train`` steps a float32 denoiser and keeps the
    float64 master weights itself.
    """

    def __init__(self, config: DitConfig, params: dict, dtype=np.float64):
        self.config = config
        self.shapes = param_shapes(config)
        self.dtype = np.dtype(dtype)
        self.params = FlatParams.copy_of(self.shapes, params, dtype=self.dtype)
        self.pos = positional_table(config.grid, config.embed_dim).astype(self.dtype)

    # -- preconditioning ----------------------------------------------------

    def _coeffs(self, sigma: np.ndarray):
        denom = sigma**2 + SIGMA_DATA**2
        c_skip = SIGMA_DATA**2 / denom
        c_out = sigma * SIGMA_DATA / np.sqrt(denom)
        c_in = 1.0 / np.sqrt(denom)
        c_noise = np.log(sigma) / 4.0
        return c_skip, c_out, c_in, c_noise

    # -- forward ------------------------------------------------------------

    def forward(self, h: np.ndarray, sigma: np.ndarray, cond: np.ndarray):
        """Batched forward pass; returns (output, cache) for backward."""
        cache = {"blocks": []}
        return self._forward(h, sigma, cond, cache), cache

    def _forward(self, h, sigma, cond, cache=None) -> np.ndarray:
        """The forward pass; fills ``cache``, if given, with what ``backward`` needs.

        F runs in the weights' dtype; the preconditioning coefficients and
        the skip path stay float64, so the output is float64.
        """
        cfg = self.config
        p = self.params
        h = np.asarray(h, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        cond = np.asarray(cond, dtype=float)
        finite = np.isfinite(sigma)
        if not finite.all():
            raise ValueError(f"sigma must be finite, got {sigma[~finite].flat[0]:g}")
        if np.any(sigma <= 0):
            raise ValueError("sigma must be > 0")
        if not np.all(np.isfinite(cond)):
            raise ValueError("condition vector contains non-finite values")

        dt = self.dtype
        cond = cond.astype(dt, copy=False)
        c_skip, c_out, c_in, c_noise = self._coeffs(sigma)
        x_in = (c_in[:, None, None, None] * h).astype(dt, copy=False)
        patches = patchify(x_in, cfg.patch_size)
        tok = _linear(patches, p["patch.w"], p["patch.b"])
        tok += self.pos

        tfeat = timestep_features(c_noise, cfg.embed_dim).astype(dt, copy=False)
        e_t, t_pre, t_act = _embed(tfeat, p, "t_mlp")
        e_p, p_pre, p_act = _embed(cond, p, "p_mlp")
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
        y, lnf, invf = _modulate(tok, gf, bf)
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

        m1, ln1, inv1 = _modulate(tok, g1, s1)
        qkv = _linear(m1, p[pre + "qkv.w"], p[pre + "qkv.b"])
        q, k, v = qkv.reshape(b, n, 3, nh, dh).transpose(2, 0, 3, 1, 4)  # (b, nh, n, dh)
        # Softmax in place: scale, shift by the row max, exp, normalise.
        attn = q @ k.transpose(0, 1, 3, 2)
        attn /= math.sqrt(dh)  # a Python float keeps attn in the weights' dtype
        attn -= attn.max(axis=-1, keepdims=True)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=-1, keepdims=True)
        heads = attn @ v  # (b, nh, n, dh)
        concat = heads.transpose(0, 2, 1, 3).reshape(b, n, d)
        attn_out = _linear(concat, p[pre + "proj.w"], p[pre + "proj.b"])
        tok1 = a1[:, None, :] * attn_out
        tok1 += tok

        m2, ln2, inv2 = _modulate(tok1, g2, s2)
        f_pre = _linear(m2, p[pre + "fc1.w"], p[pre + "fc1.b"])
        f_act, f_e = gelu(f_pre)
        ffn_out = _linear(f_act, p[pre + "fc2.w"], p[pre + "fc2.b"])
        tok2 = a2[:, None, :] * ffn_out
        tok2 += tok1

        bcache = {
            "g1": g1, "a1": a1, "g2": g2, "a2": a2,
            "ln1": ln1, "inv1": inv1, "m1": m1,
            "q": q, "k": k, "v": v, "attn": attn, "concat": concat,
            "attn_out": attn_out,
            "ln2": ln2, "inv2": inv2, "m2": m2,
            "f_pre": f_pre, "f_e": f_e, "f_act": f_act, "ffn_out": ffn_out,
        }
        return tok2, bcache

    # -- backward -----------------------------------------------------------

    def backward(self, cache, d_out: np.ndarray) -> FlatParams:
        """Parameter gradients, in the weights' dtype, for a loss whose output
        gradient is d_out."""
        cfg = self.config
        p = self.params
        grads = FlatParams(self.shapes, dtype=self.dtype)

        c_out = cache["c_out"]
        d_f = (c_out[:, None, None, None] * d_out).astype(self.dtype, copy=False)
        d_patches_out = patchify(d_f, cfg.patch_size)

        # Output head and final adaLN.
        d_y = _linear_backward(d_patches_out, cache["y"], p, grads, "head.w", "head.b")
        d_tok, d_gf, d_bf = _modulate_backward(d_y, cache["gf"], cache["lnf"], cache["invf"])
        d_modf = np.concatenate([d_gf, d_bf], axis=-1)
        d_sc = _linear_backward(d_modf, cache["sc"], p, grads, "final.mod.w", "final.mod.b")

        for i in reversed(range(cfg.depth)):
            d_tok, d_sc_i = self._block_backward(
                d_tok, cache["blocks"][i], cache["sc"], i, grads
            )
            d_sc += d_sc_i

        # Patch embedding.
        _linear_backward(d_tok, cache["patches"], p, grads, "patch.w", "patch.b")

        # Conditioning vector into both embedding MLPs.
        d_c = d_sc * dsilu(cache["c"])
        _embed_backward(d_c, p, grads, "t_mlp", cache["tfeat"], cache["t_pre"], cache["t_act"])
        _embed_backward(d_c, p, grads, "p_mlp", cache["cond"], cache["p_pre"], cache["p_act"])
        return grads

    def _block_backward(self, d_tok2, bc, sc, i, grads):
        cfg = self.config
        p = self.params
        pre = f"block{i}."
        nh, dh = cfg.n_heads, cfg.head_dim

        # FFN branch: tok2 = tok1 + a2 * ffn_out.
        d_a2 = (d_tok2 * bc["ffn_out"]).sum(axis=1)
        d_ffn = d_tok2 * bc["a2"][:, None, :]
        d_fact = _linear_backward(d_ffn, bc["f_act"], p, grads, pre + "fc2.w", pre + "fc2.b")
        d_fpre = d_fact * dgelu(bc["f_pre"], bc["f_e"])
        d_m2 = _linear_backward(d_fpre, bc["m2"], p, grads, pre + "fc1.w", pre + "fc1.b")
        d_x2, d_g2, d_s2 = _modulate_backward(d_m2, bc["g2"], bc["ln2"], bc["inv2"])
        d_tok1 = d_tok2 + d_x2

        # Attention branch: tok1 = tok + a1 * attn_out.
        d_a1 = (d_tok1 * bc["attn_out"]).sum(axis=1)
        d_attn_out = d_tok1 * bc["a1"][:, None, :]
        d_concat = _linear_backward(
            d_attn_out, bc["concat"], p, grads, pre + "proj.w", pre + "proj.b"
        )
        b, n, d = d_concat.shape
        d_heads = d_concat.reshape(b, n, nh, dh).transpose(0, 2, 1, 3)
        attn, v = bc["attn"], bc["v"]
        d_attn = d_heads @ v.transpose(0, 1, 3, 2)
        d_v = attn.transpose(0, 1, 3, 2) @ d_heads
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
        d_scores /= math.sqrt(dh)
        d_q = d_scores @ bc["k"]
        d_k = d_scores.transpose(0, 1, 3, 2) @ bc["q"]
        # (3, b, nh, n, dh) -> (b, n, 3, nh, dh): the layout of qkv's columns.
        d_qkv = np.stack([d_q, d_k, d_v]).transpose(1, 3, 0, 2, 4).reshape(b, n, 3 * d)
        d_m1 = _linear_backward(d_qkv, bc["m1"], p, grads, pre + "qkv.w", pre + "qkv.b")
        d_x1, d_g1, d_s1 = _modulate_backward(d_m1, bc["g1"], bc["ln1"], bc["inv1"])
        d_tok = d_tok1 + d_x1

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

        ``noise`` is the pre-drawn standard-normal noise, so the loss
        is a deterministic function of the parameters (as the gradient
        checks require).  The loss is a float64 mean over the float64
        output; the gradients are in the weights' dtype.
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

    def evaluate(self, h_t: np.ndarray, sigma, condition) -> np.ndarray:
        """``forward(h_t, sigma, condition)[0]`` without recording a backward cache.

        The one inference call.  It takes one sample or a batch, and a
        scalar ``sigma`` or a single condition vector is shared by the whole
        batch.  It runs the forward pass over consecutive slices of
        ``max(2, ROWS // n_tokens)`` samples and writes each slice into one
        output array, so each lane holds one slice's activations at a time.
        Every sample goes through the same arithmetic as in a whole-batch
        ``forward``, so the result is bit-for-bit the same at any lane
        count.  That needs at least two samples per slice: on one sample the
        per-sample matmuls take BLAS's matrix-vector path, which rounds
        differently, so a lone last sample joins the slice before it.

        The slices run on ``lane_count(...)`` lanes through ``_lanes.run``,
        which raises the error of the lowest failing slice.
        """
        h = np.asarray(h_t, dtype=float)
        single = h.ndim == 3
        if single:
            h = h[None]
        sigma = np.broadcast_to(np.asarray(sigma, dtype=float), (len(h),))
        cond = np.asarray(condition, dtype=float)
        if cond.ndim == 1:
            cond = np.broadcast_to(cond, (len(h), len(cond)))
        edges = slice_edges(self.config, len(h))
        out = np.empty(h.shape)

        def run_slice(i):
            start, end = edges[i], edges[i + 1]
            try:
                out[start:end] = self._forward(h[start:end], sigma[start:end], cond[start:end])
            except NumericError:
                raise _non_finite(start, sigma[start:end]) from None

        _lanes.run(len(edges) - 1, lane_count(self.config, len(h)), run_slice)
        return out[0] if single else out


def slice_edges(config: DitConfig, batch: int) -> list[int]:
    """Sample indices at which ``evaluate`` cuts a batch into slices."""
    step = max(2, ROWS // config.n_tokens)
    return [*range(0, max(batch - 1, 1), step), batch]


def matmul_flops(config: DitConfig, batch: int) -> int:
    """Matmul flops of one forward pass over ``batch`` samples.

    Two flops per multiply-add in every linear layer and in the two
    attention products; elementwise work is not counted.
    """
    d, n, p, r = config.embed_dim, config.n_tokens, config.patch_dim, config.mlp_ratio
    per_token = 4 * p * d + config.depth * (8 * d * d + 4 * n * d + 4 * r * d * d)
    per_sample = 4 * d * d + 2 * (CONDITION_DIM + d) * d + (12 * config.depth + 4) * d * d
    return batch * (n * per_token + per_sample)


def lane_count(config: DitConfig, batch: int) -> int:
    """Threads one ``evaluate`` call on ``batch`` samples runs on, by a slice's flops."""
    edges = slice_edges(config, batch)
    slice_flops = matmul_flops(config, edges[1] - edges[0])
    return _lanes.lane_count(len(edges) - 1, slice_flops)


def _non_finite(start: int, sigma: np.ndarray) -> NumericError:
    """The error for a batch slice whose output head went non-finite."""
    return NumericError(
        f"non-finite activations in the output head for samples "
        f"{start}-{start + len(sigma) - 1} "
        f"(sigma {float(sigma.min()):g} to {float(sigma.max()):g})"
    )
