"""Compact vision transformer over stacked silhouette masks.

Two masks stack in the channel dimension, are cut into patches, and pass
through a pre-norm encoder; the class-token encoding is concatenated with the
normalized 10-D configuration and regressed through two GELU layers to the
raw correction outputs. Each linear layer (matmul plus bias), layer norm,
attention over the packed q/k/v projection and GELU is one fused autodiff op.

The forward pass is dual-mode: weights given as DiffValues produce a
recorded, differentiable output; plain arrays give a fast inference path.
It computes in the dtype of ``patch_embed.w``: float32 weights run the
network in float32 (training does), anything else in float64 (inference,
saved models). The output is float64 either way.
"""

from __future__ import annotations

import json
import numbers
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad


def is_count(value) -> bool:
    """An integer (not a bool) of at least 1: a size or a count in a config."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


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

    @staticmethod
    def from_dict(d: dict) -> "VitConfig":
        d = dict(d)
        d["head_widths"] = tuple(d.get("head_widths", (128, 64)))
        return VitConfig(**d)


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


def _linear(x, w, name):
    return ad.linear(x, w[f"{name}.w"], w[f"{name}.b"])


def forward(config: VitConfig, weights: dict, masks: np.ndarray, theta_norm: np.ndarray):
    """Raw 10-vector outputs for a batch.

    masks: (B, 2, H, W) plain array; theta_norm: (B, config_dim) plain
    array; weights: name -> array or DiffValue, all float32 or all float64.
    Both inputs are cast to the weights' dtype; the output is float64.
    """
    b, c, h, wd = masks.shape
    if c != 2 or h != config.image_size or wd != config.image_size:
        raise ad.ShapeMismatch("vit-forward", masks.shape,
                               (b, 2, config.image_size, config.image_size))
    if np.shape(theta_norm) != (b, config.config_dim):
        raise ad.ShapeMismatch("vit-forward", np.shape(theta_norm), (b, config.config_dim))
    d = config.embed_dim
    dtype = ad._val(weights["patch_embed.w"]).dtype

    patches = patchify(np.asarray(masks, dtype=dtype), config.patch_size)
    x = _linear(patches, weights, "patch_embed")                      # (B, N, D)
    cls = ad.broadcast_to(ad.reshape(weights["cls_token"], (1, 1, d)), (b, 1, d))
    x = ad.concatenate([cls, x], axis=1)                              # (B, T, D)
    x = ad.add(x, weights["pos_embed"])

    for i in range(config.layers):
        p = f"enc{i}"
        hdn = ad.layer_norm(x, weights[f"{p}.ln1.g"], weights[f"{p}.ln1.b"])
        qkv = _linear(hdn, weights, f"{p}.qkv")                       # (B, T, 3D)
        x = ad.add(x, _linear(ad.attention(qkv, config.heads), weights, f"{p}.proj"))
        hdn = ad.layer_norm(x, weights[f"{p}.ln2.g"], weights[f"{p}.ln2.b"])
        hdn = ad.gelu(_linear(hdn, weights, f"{p}.mlp1"))
        x = ad.add(x, _linear(hdn, weights, f"{p}.mlp2"))

    x = ad.layer_norm(x, weights["final_ln.g"], weights["final_ln.b"])
    cls_tok = ad.take(x, (slice(None), 0))                            # (B, D)
    fused = ad.concatenate([cls_tok, np.asarray(theta_norm, dtype=dtype)], axis=-1)
    hdn = ad.gelu(_linear(fused, weights, "head1"))
    hdn = ad.gelu(_linear(hdn, weights, "head2"))
    return ad.astype(_linear(hdn, weights, "head3"), np.float64)      # (B, 10)


# ---------------------------------------------------------------------------
# weights file: numpy .npz archive, one float64 array per tensor plus ``meta``,
# a 0-d string array holding the JSON header {"config": ..., **extra}

def save_weights(path, config: VitConfig, weights: dict[str, np.ndarray],
                 extra: dict | None = None) -> None:
    meta = json.dumps({"config": asdict(config), **(extra or {})}, sort_keys=True)
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(meta),
                 **{name: np.asarray(w, dtype=np.float64) for name, w in weights.items()})


def load_weights(path) -> tuple[VitConfig, dict[str, np.ndarray], dict]:
    """Config, weights and the header's other entries. The tensors must be
    those of ``init_weights(config)``, each finite float64 of its shape.
    Raises ValueError or FileNotFoundError naming the path."""
    path = Path(path)
    try:
        # through our own handle: np.load leaks the one it opens when the
        # zip directory is unreadable
        with open(path, "rb") as fh:
            archive = np.load(fh)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("a single array, not an .npz archive")
            with archive:
                weights = {name: archive[name] for name in archive.files}
    except OSError as exc:
        raise FileNotFoundError(f"weights file not readable: {path}") from exc
    # MemoryError: a tensor header that claims more values than memory holds
    except (ValueError, EOFError, MemoryError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: not a weights archive: {exc}") from exc
    blob = weights.pop("meta", None)
    if blob is None or blob.shape != () or blob.dtype.kind != "U":
        raise ValueError(f"{path}: no 'meta' string")
    try:
        meta = json.loads(str(blob))
        config = VitConfig.from_dict(meta.pop("config"))
        expected = init_weights(config, np.random.default_rng(0))
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed meta: {exc!r}") from exc
    if weights.keys() != expected.keys():
        raise ValueError(f"{path}: missing or unexpected tensors "
                         f"{sorted(weights.keys() ^ expected.keys())}")
    for name, w in weights.items():
        if w.shape != expected[name].shape or w.dtype != np.float64 \
                or not np.isfinite(w).all():
            raise ValueError(f"{path}: tensor {name!r} is not finite float64 "
                             f"of shape {expected[name].shape}")
    return config, weights, meta
