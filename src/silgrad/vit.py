"""Compact vision transformer over stacked silhouette masks.

Two masks stack in the channel dimension, are cut into patches, and pass
through a pre-norm encoder; the class-token encoding is concatenated with the
normalized 10-D configuration and regressed through two GELU layers to the
raw correction outputs.

The forward pass is dual-mode: weights given as DiffValues produce a
recorded, differentiable output; plain arrays give a fast inference path.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad

WEIGHTS_MAGIC = b"SGWT"
WEIGHTS_VERSION = 1


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

    def to_dict(self) -> dict:
        return {
            "image_size": self.image_size, "patch_size": self.patch_size,
            "embed_dim": self.embed_dim, "heads": self.heads,
            "layers": self.layers, "mlp_ratio": self.mlp_ratio,
            "head_widths": list(self.head_widths), "config_dim": self.config_dim,
        }

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
    return ad.add(ad.matmul(x, w[f"{name}.w"]), w[f"{name}.b"])


def _ln(x, w, name):
    return ad.add(ad.mul(ad.layer_norm(x, axis=-1), w[f"{name}.g"]), w[f"{name}.b"])


def forward(config: VitConfig, weights: dict, masks: np.ndarray, theta_norm: np.ndarray):
    """Raw 10-vector outputs for a batch.

    masks: (B, 2, H, W) plain array; theta_norm: (B, 10) plain array;
    weights: name -> array or DiffValue.
    """
    b, c, h, wd = masks.shape
    if c != 2 or h != config.image_size or wd != config.image_size:
        raise ad.ShapeMismatch("vit-forward", masks.shape,
                               (b, 2, config.image_size, config.image_size))
    d = config.embed_dim
    nh, dh = config.heads, config.embed_dim // config.heads

    patches = patchify(np.asarray(masks, dtype=np.float64), config.patch_size)
    x = _linear(patches, weights, "patch_embed")                      # (B, N, D)
    cls = ad.broadcast_to(ad.reshape(weights["cls_token"], (1, 1, d)), (b, 1, d))
    x = ad.concatenate([cls, x], axis=1)                              # (B, T, D)
    x = ad.add(x, weights["pos_embed"])
    t = config.num_patches + 1

    for i in range(config.layers):
        p = f"enc{i}"
        hdn = _ln(x, weights, f"{p}.ln1")
        qkv = _linear(hdn, weights, f"{p}.qkv")                       # (B, T, 3D)
        heads = []
        for s in range(3):
            part = ad.take(qkv, (slice(None), slice(None), slice(s * d, (s + 1) * d)))
            part = ad.reshape(part, (b, t, nh, dh))
            heads.append(ad.transpose(part, (0, 2, 1, 3)))            # (B, H, T, dh)
        q, k, v = heads
        att = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2)))             # (B, H, T, T)
        att = ad.softmax(ad.mul(att, 1.0 / np.sqrt(dh)), axis=-1)
        o = ad.matmul(att, v)                                         # (B, H, T, dh)
        o = ad.reshape(ad.transpose(o, (0, 2, 1, 3)), (b, t, d))
        x = ad.add(x, _linear(o, weights, f"{p}.proj"))
        hdn = _ln(x, weights, f"{p}.ln2")
        hdn = ad.gelu(_linear(hdn, weights, f"{p}.mlp1"))
        x = ad.add(x, _linear(hdn, weights, f"{p}.mlp2"))

    x = _ln(x, weights, "final_ln")
    cls_tok = ad.take(x, (slice(None), 0))                            # (B, D)
    fused = ad.concatenate(
        [cls_tok, np.asarray(theta_norm, dtype=np.float64)], axis=-1)
    hdn = ad.gelu(_linear(fused, weights, "head1"))
    hdn = ad.gelu(_linear(hdn, weights, "head2"))
    return _linear(hdn, weights, "head3")                             # (B, 10)


# ---------------------------------------------------------------------------
# weights container (little-endian, f32 tensor payloads)

def save_weights(path, config: VitConfig, weights: dict[str, np.ndarray],
                 extra: dict | None = None) -> None:
    meta = {"config": config.to_dict(), **(extra or {})}
    blob = json.dumps(meta, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(WEIGHTS_MAGIC)
        fh.write(struct.pack("<I", WEIGHTS_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in sorted(weights):
            data = np.asarray(weights[name], dtype="<f4")
            nm = name.encode()
            fh.write(struct.pack("<I", len(nm)))
            fh.write(nm)
            fh.write(struct.pack("<I", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}Q", *data.shape))
            fh.write(data.tobytes())


def load_weights(path) -> tuple[VitConfig, dict[str, np.ndarray], dict]:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise FileNotFoundError(f"weights file not readable: {path}") from exc
    if raw[:4] != WEIGHTS_MAGIC:
        raise ValueError(f"{path}: not a weights container")
    offset = 4

    def read(n: int, what: str) -> bytes:
        nonlocal offset
        if offset + n > len(raw):
            raise ValueError(f"{path}: truncated {what} at byte {offset} "
                             f"({len(raw) - offset} of {n} bytes left)")
        chunk = raw[offset:offset + n]
        offset += n
        return chunk

    version, = struct.unpack("<I", read(4, "version"))
    if version != WEIGHTS_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    blob_len, = struct.unpack("<I", read(4, "header length"))
    blob = read(blob_len, "header")
    try:
        meta = json.loads(blob.decode())
    except ValueError as exc:
        raise ValueError(f"{path}: malformed header: {exc}") from exc
    config = VitConfig.from_dict(meta.pop("config"))
    weights: dict[str, np.ndarray] = {}
    while offset < len(raw):
        nlen, = struct.unpack("<I", read(4, "tensor name length"))
        name = read(nlen, "tensor name").decode()
        rank, = struct.unpack("<I", read(4, f"rank of {name}"))
        dims = struct.unpack(f"<{rank}Q", read(8 * rank, f"shape of {name}"))
        weights[name] = np.frombuffer(read(4 * math.prod(dims), f"tensor {name}"),
                                      dtype="<f4").reshape(dims).astype(np.float64)
    return config, weights, meta
