"""Compact vision transformer over stacked silhouette masks.

Two masks stack in the channel dimension, are cut into patches, and pass
through a pre-norm encoder; the class-token encoding is concatenated with the
normalized 10-D configuration and regressed through two GELU layers to the
raw correction outputs. Since the head reads the class token alone, the last
encoder layer computes only that token's row: its layer norm and q/k/v
projection cover every token, for the keys and values, but the class token is
its only query, and the rest of the layer and the final norm run on its row
(the class-attention form of CaiT, Touvron et al., arXiv:2103.17239). The
output is that of the network run on every token, up to rounding.

The forward pass is dual-mode: weights given as DiffValues record the whole
network as one autodiff node, whose parents are those weights; plain arrays
give a fast inference path. The node's backward is written out in
:func:`forward`, layer by layer in reverse, from the backwards of this
module's ops: linear (one GEMM), layer norm, attention over the packed q/k/v
projection, and GELU. A plain pass keeps no op's backward, so it frees each
op's activations as soon as the next op has run.

The ops write their passes into arrays they own. Each allocates its
output, what its backward keeps and at most two scratch buffers, and runs
its elementwise steps in place in them (in-place ufuncs, ``out=``, products
into views of the packed result). The steps are those of the plain
expression in its order, with at most the operands of a product or a sum
swapped, which is exact, so every result is the expression's bit for bit.
A backward keeps: linear its flattened input; layer norm the normalized
input and the rows' std; attention the probabilities and its input's q, k
and v; GELU its input and the tanh. Nothing a backward keeps is written
after its op returns: a backward writes only into the gradients it returns
and its own scratch, and :func:`forward` adds the residuals and the
position embedding into the token array or a branch's output, which no
backward keeps.

It computes in the dtype of ``patch_embed.w``: float32 weights run the
network in float32 (training does), anything else in float64 (inference,
saved models). The output is float64 either way, and the recorded node casts
its incoming gradient back to the weights' dtype.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


def is_integer(value) -> bool:
    """An integer (not a bool): a seed in a config."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_count(value) -> bool:
    """An integer (not a bool) of at least 1: a size or a count in a config."""
    return is_integer(value) and value >= 1


def is_real(value) -> bool:
    """A real number (not a bool): a float field of a config."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class VitConfig:
    image_size: int = 64
    patch_size: int = 8
    embed_dim: int = 64
    heads: int = 4
    layers: int = 4
    mlp_ratio: int = 4
    head_widths: tuple = (128, 64)
    config_dim: int = 10  # fused configuration vector length

    def __post_init__(self):
        for name in ("image_size", "patch_size", "embed_dim", "heads", "layers",
                     "mlp_ratio", "config_dim"):
            value = getattr(self, name)
            if not is_count(value):
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
        widths = self.head_widths
        if not (isinstance(widths, (tuple, list)) and len(widths) == 2
                and all(map(is_count, widths))):
            raise ValueError(f"head_widths must be two integers of at least 1, got {widths!r}")
        if self.image_size % self.patch_size:
            raise ValueError("image size must be divisible by patch size")
        if self.embed_dim % self.heads:
            raise ValueError("embed dim must be divisible by heads")

    @property
    def num_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def patch_dim(self) -> int:
        return 2 * self.patch_size ** 2


def init_weights(config: VitConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Normal(0, 0.02) linear weights, zero biases, identity layer norms.

    The final regression layer starts at zero so the untrained corrector is
    the identity under centered squashing.
    """
    d = config.embed_dim
    std = 0.02

    def lin(name, n_in, n_out, zero=False):
        w = np.zeros((n_in, n_out)) if zero else rng.normal(0.0, std, (n_in, n_out))
        return {f"{name}.w": w, f"{name}.b": np.zeros(n_out)}

    weights: dict[str, np.ndarray] = {}
    weights.update(lin("patch_embed", config.patch_dim, d))
    weights["cls_token"] = rng.normal(0.0, std, (1, d))
    weights["pos_embed"] = rng.normal(0.0, std, (config.num_patches + 1, d))
    for i in range(config.layers):
        p = f"enc{i}"
        weights[f"{p}.ln1.g"] = np.ones(d)
        weights[f"{p}.ln1.b"] = np.zeros(d)
        weights.update(lin(f"{p}.qkv", d, 3 * d))
        weights.update(lin(f"{p}.proj", d, d))
        weights[f"{p}.ln2.g"] = np.ones(d)
        weights[f"{p}.ln2.b"] = np.zeros(d)
        weights.update(lin(f"{p}.mlp1", d, config.mlp_ratio * d))
        weights.update(lin(f"{p}.mlp2", config.mlp_ratio * d, d))
    weights["final_ln.g"] = np.ones(d)
    weights["final_ln.b"] = np.zeros(d)
    w1, w2 = config.head_widths
    weights.update(lin("head1", d + config.config_dim, w1))
    weights.update(lin("head2", w1, w2))
    weights.update(lin("head3", w2, 10, zero=True))
    return weights


def patchify(masks: np.ndarray, patch_size: int) -> np.ndarray:
    """(B, 2, H, W) -> (B, num_patches, 2*p*p), row-major patch order."""
    b, c, h, w = masks.shape
    p = patch_size
    x = masks.reshape(b, c, h // p, p, w // p, p)
    x = x.transpose(0, 2, 4, 1, 3, 5)
    return np.ascontiguousarray(x.reshape(b, (h // p) * (w // p), c * p * p))


# ---------------------------------------------------------------------------
# the network's ops: each returns its output and its backward, which maps the
# output's gradient to its operands' gradients

def _linear(x, w, b):
    """``x @ w + b`` over the last axis of ``x``, as one 2-D GEMM on the
    flattened leading axes. ``back(g, dx=True)`` returns (gx, gw, gb), with
    gx None when ``dx`` is false."""
    if w.ndim != 2 or x.shape[-1:] != w.shape[:1] or b.shape != w.shape[1:]:
        raise ad.ShapeMismatch("linear", x.shape, w.shape, b.shape)
    x2 = x.reshape(-1, w.shape[0])

    def back(g, dx=True):
        g2 = g.reshape(-1, w.shape[1])
        return (g2 @ w.T).reshape(x.shape) if dx else None, x2.T @ g2, g2.sum(axis=0)

    y = x2 @ w
    y += b
    return y.reshape(x.shape[:-1] + w.shape[1:]), back


def _layer_norm(x, gain, bias):
    """Normalize the last axis to zero mean and unit variance, then
    ``* gain + bias``. ``back(g)`` returns (gx, ggain, gbias)."""
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    y = np.square(xhat)                 # (x - mu) ** 2
    std = y.mean(axis=-1, keepdims=True)
    std += 1e-5
    np.sqrt(std, out=std)
    xhat /= std
    lead = tuple(range(x.ndim - 1))

    def back(g):
        # (gh - mean(gh) - xhat * mean(gh * xhat)) / std with gh = g * gain,
        # on gh and one scratch buffer
        gh = np.multiply(g, gain)
        s = np.multiply(gh, xhat)
        m = s.mean(axis=-1, keepdims=True)
        gh -= gh.mean(axis=-1, keepdims=True)
        np.multiply(xhat, m, out=s)
        gh -= s
        gh /= std
        np.multiply(g, xhat, out=s)
        return gh, s.sum(axis=lead), g.sum(axis=lead)

    np.multiply(xhat, gain, out=y)
    y += bias
    return y, back


def _attention(qkv, heads: int, queries: int | None = None):
    """Multi-head softmax attention over queries, keys and values packed
    along the last axis, (B, T, 3D). Only the first ``queries`` tokens (all
    when None) are queried, over all T keys and values; returns their merged
    heads, (B, queries, D). The backward's q-gradient is zero on the rows of
    the tokens not queried."""
    b, t, d3 = qkv.shape
    tq = t if queries is None else queries
    dh = d3 // (3 * heads)
    q, k, v = np.transpose(qkv.reshape(b, t, 3, heads, dh), (2, 0, 3, 1, 4))  # (B, H, T, dh)
    q = q[:, :, :tq]                                                           # (B, H, Tq, dh)
    scale = 1.0 / math.sqrt(dh)  # a Python float keeps float32 operands float32
    p = np.matmul(q, np.swapaxes(k, -1, -2))                                   # (B, H, Tq, T)
    p *= scale
    p -= np.max(p, axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    # the heads' outputs land merged: (B, Tq, H, dh) seen as (B, H, Tq, dh)
    out = np.empty((b, tq, heads, dh), dtype=p.dtype)
    np.matmul(p, v, out=np.transpose(out, (0, 2, 1, 3)))

    def back(g):
        go = np.transpose(g.reshape(b, tq, heads, dh), (0, 2, 1, 3))
        # gs = (gp - sum(gp * p)) * p * scale with gp = go @ v^T, on gp and
        # one scratch buffer
        gs = np.matmul(go, np.swapaxes(v, -1, -2))
        s = np.multiply(gs, p)
        gs -= s.sum(axis=-1, keepdims=True)
        del s
        gs *= p
        gs *= scale
        # the q, k and v gradients land packed: (B, T, 3, H, dh) seen as
        # (3, B, H, T, dh)
        grad = np.empty((b, t, 3, heads, dh), dtype=qkv.dtype)
        gq, gk, gv = np.transpose(grad, (2, 0, 3, 1, 4))
        np.matmul(gs, k, out=gq[:, :, :tq])
        gq[:, :, tq:] = 0.0
        np.matmul(np.swapaxes(gs, -1, -2), q, out=gk)
        np.matmul(np.swapaxes(p, -1, -2), go, out=gv)
        return grad.reshape(b, t, d3)

    return out.reshape(b, tq, d3 // 3), back


def _gelu(x):
    """tanh-approximation GELU, (x * 0.5) * (1 + th) with th = tanh(c * (x +
    0.044715 * (x * (x * x)))) and c = sqrt(2/pi)."""
    c = 0.7978845608028654  # sqrt(2/pi)
    th = np.multiply(x, x)
    th *= x
    th *= 0.044715
    th += x
    th *= c
    np.tanh(th, out=th)

    def back(g):
        # g * (0.5 * (1 + th) + (x * 0.5) * ((1 - th * th) * du)) with
        # du = c * (1 + 3 * 0.044715 * (x * x)), on two buffers
        a = np.multiply(x, x)
        a *= 3.0 * 0.044715
        a += 1.0
        a *= c                          # du
        r = np.multiply(th, th)
        np.subtract(1.0, r, out=r)
        r *= a                          # (1 - th * th) * du
        np.multiply(x, 0.5, out=a)
        r *= a
        np.add(1.0, th, out=a)
        a *= 0.5
        a += r
        a *= g
        return a

    y = np.multiply(x, 0.5)
    y *= 1.0 + th
    return y, back


def forward(config: VitConfig, weights: dict, masks: np.ndarray, theta_norm: np.ndarray):
    """Raw 10-vector outputs for a batch.

    masks: (B, 2, H, W) plain array; theta_norm: (B, config_dim) plain
    array; weights: name -> array or DiffValue, all float32 or all float64.
    Both inputs are cast to the weights' dtype; the output is float64. With
    any weight a DiffValue, the output is one node whose parents are the
    DiffValue weights.

    Every encoder layer but the last runs on all T = num_patches + 1 tokens.
    The last one queries the class token alone, over all T keys and values,
    and its projection, MLP and the final norm run on (B, 1, D); the node's
    backward mirrors this. The result equals the all-token network's up to
    rounding: BLAS may sum a one-row product in another order.
    """
    b, c, h, wd = masks.shape
    if c != 2 or h != config.image_size or wd != config.image_size:
        raise ad.ShapeMismatch("vit-forward", masks.shape,
                               (b, 2, config.image_size, config.image_size))
    if np.shape(theta_norm) != (b, config.config_dim):
        raise ad.ShapeMismatch("vit-forward", np.shape(theta_norm), (b, config.config_dim))
    d = config.embed_dim
    w = {name: ad._val(v) for name, v in weights.items()}
    dtype = w["patch_embed.w"].dtype
    taped = [name for name, v in weights.items() if isinstance(v, ad.DiffValue)]
    backs = {} if taped else None  # op name -> its backward, kept only when taped

    def op(name, fn, *args):
        out, back = fn(*args)
        if backs is not None:
            backs[name] = back
        return out

    def linear(name, x):
        return op(name, _linear, x, w[f"{name}.w"], w[f"{name}.b"])

    def norm(name, x):
        return op(name, _layer_norm, x, w[f"{name}.g"], w[f"{name}.b"])

    x = linear("patch_embed", patchify(np.asarray(masks, dtype=dtype), config.patch_size))
    cls = np.broadcast_to(w["cls_token"].reshape(1, 1, d), (b, 1, d))
    x = np.concatenate([cls, x], axis=1)                              # (B, T, D)
    x += w["pos_embed"]
    for i in range(config.layers):
        p = f"enc{i}"
        # the head reads the class token alone, so the last layer queries it
        # alone: from there on x is (B, 1, D)
        rows = 1 if i == config.layers - 1 else None
        # each branch one expression, so no local keeps its activations
        # alive; the residual adds into the branch's output, which no
        # backward keeps
        h = linear(f"{p}.proj", op(
            f"{p}.attn", _attention, linear(f"{p}.qkv", norm(f"{p}.ln1", x)), config.heads, rows))
        h += x[:, :rows]
        x = h
        h = linear(f"{p}.mlp2", op(f"{p}.gelu", _gelu, linear(f"{p}.mlp1", norm(f"{p}.ln2", x))))
        h += x
        x = h
    x = norm("final_ln", x)
    fused = np.concatenate([x[:, 0], np.asarray(theta_norm, dtype=dtype)], axis=-1)
    hdn = op("head1.gelu", _gelu, linear("head1", fused))
    hdn = op("head2.gelu", _gelu, linear("head2", hdn))
    out = linear("head3", hdn).astype(np.float64, copy=False)          # (B, 10)
    if backs is None:
        return out

    def vjp(g):
        grads = {}

        def linear_back(name, g, dx=True):
            gx, grads[f"{name}.w"], grads[f"{name}.b"] = backs[name](g, dx)
            return gx

        def norm_back(name, g):
            gx, grads[f"{name}.g"], grads[f"{name}.b"] = backs[name](g)
            return gx

        g = g.astype(dtype, copy=False)
        g = backs["head2.gelu"](linear_back("head3", g))
        g = backs["head1.gelu"](linear_back("head2", g))
        gx = norm_back("final_ln", linear_back("head1", g)[:, None, :d])   # (B, 1, D)
        for i in reversed(range(config.layers)):
            # each residual's gradient: the skip path's plus its branch's
            p = f"enc{i}"
            gh = linear_back(f"{p}.mlp1", backs[f"{p}.gelu"](linear_back(f"{p}.mlp2", gx)))
            gh = norm_back(f"{p}.ln2", gh)
            gh += gx
            gx = gh
            ga = linear_back(f"{p}.qkv", backs[f"{p}.attn"](linear_back(f"{p}.proj", gx)))
            # ln1 ran on all T tokens; the last layer's skip path carries the
            # class token's row alone
            gl = norm_back(f"{p}.ln1", ga)
            gl[:, :gx.shape[1]] += gx
            gx = gl
        grads["pos_embed"] = gx.sum(axis=0)
        grads["cls_token"] = gx[:, :1].sum(axis=0, keepdims=True).reshape(1, d)
        linear_back("patch_embed", gx[:, 1:], dx=False)   # the masks take no gradient
        return tuple(grads[name] for name in taped)

    return ad.from_op(out, [weights[name] for name in taped], vjp)

