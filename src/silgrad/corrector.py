"""One-shot pose correction: parametrization, losses, training, inference.

The 10-D configuration vector is [base Euler zyx (rad), base translation (m),
visible joints (rad)], anchored at the manipulator pivot. Raw network outputs
squash through a centered sigmoid scaled by per-coordinate bounds ``k``; raw
zero therefore means "no correction". The literal one-sided squashing
(k * sigmoid, strictly positive corrections) stays available for comparison.

Training backpropagates the weighted silhouette + keypoint + joint loss
through the soft rasterizer and forward kinematics into the network.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import se3, vit
from .scene import ToolScene, keypoints_screen, render_masks
from .synth import Dataset, rng_stream

VISIBLE_SLICE = slice(3, 7)
_TRAIN_STREAM = 1 << 32  # RNG stream ids above the trajectory namespace


def default_scale(chain) -> np.ndarray:
    """Per-coordinate correction bounds: 10 deg / 20 mm / quarter joint range."""
    ranges = (chain.upper_limits - chain.lower_limits)[VISIBLE_SLICE]
    return np.concatenate([np.full(3, np.deg2rad(10.0)), np.full(3, 0.020),
                           0.25 * ranges])


def default_loss_weights(camera) -> tuple[float, float, float]:
    """(alpha, beta, gamma) placing each weighted term in the 0..1000 band."""
    return 1000.0 / (camera.height * camera.width), 0.05, 500.0


def apply_correction(raw, theta_noisy, k, chain, squash: str = "centered"):
    """Squash raw outputs into bounded deltas and add to the noisy vector.

    Visible joints are additionally clamped to the chain limits. Dual-mode.
    """
    # clamp away from exact saturation so |delta| < k holds strictly even
    # when the sigmoid rounds to 1.0
    tiny = 8.0 * np.finfo(np.float64).eps
    squashed = ad.clamp(ad.sigmoid(raw), tiny, 1.0 - tiny)
    if squash == "centered":
        delta = ad.mul(k, ad.sub(ad.mul(2.0, squashed), 1.0))
    elif squash == "literal":
        delta = ad.mul(k, squashed)
    else:
        raise ValueError(f"unknown squashing mode {squash!r}")
    theta = ad.add(theta_noisy, delta)
    pose = ad.take(theta, (..., slice(0, 6)))
    joints = ad.clamp(ad.take(theta, (..., slice(6, 10))),
                      chain.lower_limits[VISIBLE_SLICE],
                      chain.upper_limits[VISIBLE_SLICE])
    return ad.concatenate([pose, joints], axis=-1)


def render_corrected(scene: ToolScene, theta_hat, q_noisy_first3,
                     sigma_r: float | None = None):
    """Soft mask (B,H,W) and projected keypoints (B,6,2) at the corrected pose.

    Joints 1-3 come from the noisy reading; the corrected vector supplies the
    base pose and the four visible joints.
    """
    rot = se3.euler_to_matrix_diff(ad.take(theta_hat, (..., slice(0, 3))))
    trans = ad.take(theta_hat, (..., slice(3, 6)))
    q = ad.concatenate([np.asarray(q_noisy_first3, dtype=np.float64),
                        ad.take(theta_hat, (..., slice(6, 10)))], axis=-1)
    mask = render_masks(scene, rot, trans, q, "soft", sigma_r)
    kps, _ = keypoints_screen(scene, rot, trans, q)
    return mask, kps


# ---------------------------------------------------------------------------
# losses (per-frame scalars; batched inputs give (B,) vectors)

def loss_render(s_hat, m_ref):
    return ad.reduce_sum(ad.power(ad.sub(s_hat, m_ref), 2.0), axis=(-2, -1))


def loss_keypoints(p_hat, p_ref):
    return ad.reduce_sum(ad.power(ad.sub(p_hat, p_ref), 2.0), axis=(-2, -1))


def loss_joint(vis_hat, vis_true):
    return ad.reduce_sum(ad.power(ad.sub(vis_hat, vis_true), 2.0), axis=-1)


def loss_total(alpha, beta, gamma, render_part, keypoint_part, joint_part):
    return ad.add(ad.add(ad.mul(alpha, render_part), ad.mul(beta, keypoint_part)),
                  ad.mul(gamma, joint_part))


# ---------------------------------------------------------------------------
# frame store: a dataset split flattened into training tensors

@dataclass
class FrameStore:
    scene: ToolScene
    masks_ref: np.ndarray     # (N, H, W) uint8, ground-truth masks
    masks_noisy: np.ndarray   # (N, H, W) uint8, rendered at the noisy config
    theta_noisy: np.ndarray   # (N, 10)
    q_first3: np.ndarray      # (N, 3) noisy non-visible joints
    q_true_vis: np.ndarray    # (N, 4)
    q_noisy_full: np.ndarray  # (N, 7)
    q_true_full: np.ndarray   # (N, 7)
    keypoints: np.ndarray     # (N, 6, 2) truth
    traj_of: np.ndarray       # (N,)
    base_true: se3.RigidTransform
    times: np.ndarray         # (N,)

    def __len__(self):
        return len(self.theta_noisy)


def noisy_theta_vector(rec) -> np.ndarray:
    """Per-frame 10-vector from a trajectory's noisy base pose and joints."""
    pose, _ = se3.transform_to_euler(rec.base_noisy)
    head = np.tile(pose.as_vector(), (rec.num_frames, 1))
    return np.concatenate([head, rec.q_noisy[:, VISIBLE_SLICE]], axis=1)


def build_frame_store(ds: Dataset, threads: int = 1, stride: int = 1) -> FrameStore:
    """Load a split into memory; renders the uncorrected prediction masks."""
    from .synth import render_truth

    def load(i):
        rec = ds.load_trajectory(i)
        sel = slice(0, rec.num_frames, stride)
        noisy_masks, _ = render_truth(ds.scene, rec.base_noisy, rec.q_noisy[sel])
        return rec, sel, noisy_masks

    indices = range(ds.num_trajectories)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            loaded = list(pool.map(load, indices))
    else:
        loaded = [load(i) for i in indices]

    parts = {k: [] for k in ("mr", "mn", "tn", "q3", "qv", "qn", "qt", "kp", "tj", "tm")}
    for i, (rec, sel, noisy_masks) in enumerate(loaded):
        parts["mr"].append(rec.masks[sel])
        parts["mn"].append(noisy_masks)
        parts["tn"].append(noisy_theta_vector(rec)[sel])
        parts["q3"].append(rec.q_noisy[sel, :3])
        parts["qv"].append(rec.q_true[sel, VISIBLE_SLICE])
        parts["qn"].append(rec.q_noisy[sel])
        parts["qt"].append(rec.q_true[sel])
        parts["kp"].append(rec.keypoints[sel].astype(float))
        parts["tj"].append(np.full(len(rec.times[sel]), i))
        parts["tm"].append(rec.times[sel])
    return FrameStore(
        scene=ds.scene,
        masks_ref=np.concatenate(parts["mr"]),
        masks_noisy=np.concatenate(parts["mn"]),
        theta_noisy=np.concatenate(parts["tn"]),
        q_first3=np.concatenate(parts["q3"]),
        q_true_vis=np.concatenate(parts["qv"]),
        q_noisy_full=np.concatenate(parts["qn"]),
        q_true_full=np.concatenate(parts["qt"]),
        keypoints=np.concatenate(parts["kp"]),
        traj_of=np.concatenate(parts["tj"]),
        base_true=loaded[0][0].base_true,
        times=np.concatenate(parts["tm"]),
    )


# ---------------------------------------------------------------------------
# model container

@dataclass
class CorrectorModel:
    config: vit.VitConfig
    weights: dict
    k: np.ndarray
    squash: str = "centered"
    alpha: float = 0.0
    beta: float = 0.05
    gamma: float = 500.0

    def save(self, path) -> None:
        vit.save_weights(path, self.config, self.weights, extra={
            "k": [float(v) for v in self.k],
            "squash": self.squash,
            "alpha": self.alpha, "beta": self.beta, "gamma": self.gamma,
        })

    @staticmethod
    def load(path) -> "CorrectorModel":
        config, weights, meta = vit.load_weights(path)
        return CorrectorModel(config, weights, np.asarray(meta["k"]),
                              meta.get("squash", "centered"),
                              float(meta.get("alpha", 0.0)),
                              float(meta.get("beta", 0.05)),
                              float(meta.get("gamma", 500.0)))


def stack_mask_channels(m_ref: np.ndarray, m_noisy: np.ndarray) -> np.ndarray:
    return np.stack([m_ref, m_noisy], axis=1).astype(np.float64)


def infer(model: CorrectorModel, store: FrameStore, idx=None, chain=None) -> np.ndarray:
    """One forward pass + squashing per frame; no renderer involved."""
    if idx is None:
        idx = np.arange(len(store))
    chain = chain or store.scene.chain
    masks = stack_mask_channels(store.masks_ref[idx], store.masks_noisy[idx])
    theta_noisy = store.theta_noisy[idx]
    raw = vit.forward(model.config, model.weights, masks, theta_noisy / model.k)
    return apply_correction(raw, theta_noisy, model.k, chain, model.squash)


# ---------------------------------------------------------------------------
# training

@dataclass
class TrainConfig:
    epochs: int = 60
    batch_size: int = 10
    lr: float = 1e-4
    weight_decay: float = 1e-4
    alpha: float | None = None   # default computed from the camera
    beta: float = 0.05
    gamma: float = 500.0
    seed: int = 0
    patience: int = 20
    squash: str = "centered"
    val_stride: int = 5
    vit_config: vit.VitConfig = field(default_factory=vit.VitConfig)


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0


def adam_step(weights: dict, grads: dict, state: AdamState, lr: float,
              weight_decay: float, b1: float = 0.9, b2: float = 0.999,
              eps: float = 1e-8) -> None:
    state.t += 1
    t = state.t
    for name, w in weights.items():
        g = grads[name]
        if weight_decay:
            g = g + weight_decay * w
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        mhat = state.m[name] / (1 - b1 ** t)
        vhat = state.v[name] / (1 - b2 ** t)
        weights[name] = w - lr * mhat / (np.sqrt(vhat) + eps)


def batch_loss(model_cfg: vit.VitConfig, weights: dict, store: FrameStore,
               idx: np.ndarray, k: np.ndarray, alpha: float, beta: float,
               gamma: float, squash: str):
    """Mean weighted loss over a batch; dual-mode in the weights.

    Returns (total, parts) where parts are plain per-term batch means.
    """
    masks = stack_mask_channels(store.masks_ref[idx], store.masks_noisy[idx])
    theta_noisy = store.theta_noisy[idx]
    raw = vit.forward(model_cfg, weights, masks, theta_noisy / k)
    theta_hat = apply_correction(raw, theta_noisy, k, store.scene.chain, squash)
    s_hat, kp_hat = render_corrected(store.scene, theta_hat, store.q_first3[idx])
    lr_part = loss_render(s_hat, store.masks_ref[idx].astype(np.float64))
    lk_part = loss_keypoints(kp_hat, store.keypoints[idx])
    lj_part = loss_joint(ad.take(theta_hat, (..., slice(6, 10))), store.q_true_vis[idx])
    total = ad.reduce_mean(loss_total(alpha, beta, gamma, lr_part, lk_part, lj_part))
    parts = {
        "render": float(np.mean(ad._val(lr_part))),
        "keypoints": float(np.mean(ad._val(lk_part))),
        "joints": float(np.mean(ad._val(lj_part))),
    }
    return total, parts


def evaluate_loss(model: CorrectorModel, store: FrameStore, idx: np.ndarray,
                  alpha: float, beta: float, gamma: float,
                  batch_size: int = 32) -> dict:
    """Plain-numpy loss over the given frames (no tape)."""
    sums = {"total": 0.0, "render": 0.0, "keypoints": 0.0, "joints": 0.0}
    for lo in range(0, len(idx), batch_size):
        sel = idx[lo:lo + batch_size]
        total, parts = batch_loss(model.config, model.weights, store, sel,
                                  model.k, alpha, beta, gamma, model.squash)
        n = len(sel)
        sums["total"] += float(ad._val(total)) * n
        for key in ("render", "keypoints", "joints"):
            sums[key] += parts[key] * n
    return {key: v / len(idx) for key, v in sums.items()}


def train(train_ds: Dataset, val_ds: Dataset, cfg: TrainConfig,
          out_dir=None, threads: int = 1, log_fn=print):
    """Adam training with early stopping on validation loss.

    Returns (model, log) where log holds one record per epoch. Checkpoints
    are written on every validation improvement when ``out_dir`` is given.
    """
    store = build_frame_store(train_ds, threads=threads)
    val_store = build_frame_store(val_ds, threads=threads, stride=cfg.val_stride)
    camera = train_ds.scene.camera
    alpha = cfg.alpha if cfg.alpha is not None else default_loss_weights(camera)[0]
    k = default_scale(train_ds.scene.chain)

    rng = rng_stream(cfg.seed, _TRAIN_STREAM)
    weights = vit.init_weights(cfg.vit_config, rng)
    state = AdamState(m={n: np.zeros_like(w) for n, w in weights.items()},
                      v={n: np.zeros_like(w) for n, w in weights.items()})
    model = CorrectorModel(cfg.vit_config, weights, k, cfg.squash,
                           alpha, cfg.beta, cfg.gamma)

    n = len(store)
    val_idx = np.arange(len(val_store))
    best_val = np.inf
    best_weights = {name: w.copy() for name, w in weights.items()}
    stale = 0
    log = []
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    for epoch in range(cfg.epochs):
        t0 = time.time()
        order = rng_stream(cfg.seed, _TRAIN_STREAM + 1 + epoch).permutation(n)
        train_sums = {"total": 0.0, "render": 0.0, "keypoints": 0.0, "joints": 0.0}
        batches = 0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            tape = ad.Tape()
            dvs = {name: ad.leaf(tape, w) for name, w in weights.items()}
            total, parts = batch_loss(cfg.vit_config, dvs, store, idx, model.k,
                                      alpha, cfg.beta, cfg.gamma, cfg.squash)
            value = float(ad._val(total))
            if not np.isfinite(value):
                frames = [(int(store.traj_of[i]), float(store.times[i])) for i in idx]
                raise FloatingPointError(
                    f"non-finite training loss at epoch {epoch}, frames "
                    f"(trajectory, t): {frames}")
            grads = ad.backward(total)
            adam_step(weights, {name: grads[dv.nid] for name, dv in dvs.items()},
                      state, cfg.lr, cfg.weight_decay)
            train_sums["total"] += value
            for key in ("render", "keypoints", "joints"):
                train_sums[key] += parts[key]
            batches += 1

        val = evaluate_loss(model, val_store, val_idx, alpha, cfg.beta, cfg.gamma)
        rec = {"epoch": epoch,
               "train": {key: v / max(batches, 1) for key, v in train_sums.items()},
               "val": val, "seconds": round(time.time() - t0, 2)}
        log.append(rec)
        if log_fn:
            log_fn(f"epoch {epoch:3d}  train {rec['train']['total']:10.3f}  "
                   f"val {val['total']:10.3f}  ({rec['seconds']:.1f}s)")

        if val["total"] < best_val:
            best_val = val["total"]
            best_weights = {name: w.copy() for name, w in weights.items()}
            stale = 0
            if out_dir is not None:
                model.save(out_dir / "checkpoint.sgwt")
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    model.weights = best_weights
    if out_dir is not None:
        model.save(out_dir / "model.sgwt")
    return model, log
