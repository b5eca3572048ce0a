"""One-shot pose correction: parametrization, loss, training, inference.

The 10-D configuration vector is [base Euler zyx (rad), base translation (m),
visible joints (rad)], anchored at the manipulator pivot. Raw network outputs
squash through a centered sigmoid scaled by per-coordinate bounds ``k``; raw
zero therefore means "no correction". The literal one-sided squashing
(k * sigmoid, strictly positive corrections) stays available for comparison.

Both methods minimize :func:`pose_loss`, the weighted silhouette, keypoint
and joint loss through the pose geometry and the soft rasterizer: training
backpropagates it into the network, the baseline into the configuration.
After the weight leaves, a training step's tape holds one node per stage:
the network, the correction, the pose geometry, the soft raster and the
loss. :class:`CorrectorModel` holds the model and owns its file.
"""

from __future__ import annotations

import json
import time
import zipfile
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import se3, vit
from .scene import ToolScene, project_theta, render_points
from .synth import Dataset, rng_stream

VISIBLE_SLICE = slice(3, 7)
BETA, GAMMA = 0.05, 500.0  # default keypoint and joint loss weights
_SQUASH_MODES = ("centered", "literal")
_TRAIN_STREAM = 1 << 32  # RNG stream ids above the trajectory namespace
_EVAL_BATCH = 32         # frames per evaluate_loss batch
_VAL_STRIDE = 5          # train validates on every 5th frame of the split


def default_scale(chain) -> np.ndarray:
    """Per-coordinate correction bounds: 10 deg / 20 mm / quarter joint range."""
    ranges = (chain.upper_limits - chain.lower_limits)[VISIBLE_SLICE]
    return np.concatenate([np.full(3, np.deg2rad(10.0)), np.full(3, 0.020),
                           0.25 * ranges])


def default_loss_weights(camera) -> tuple[float, float, float]:
    """(alpha, beta, gamma) placing each weighted term in the 0..1000 band."""
    return 1000.0 / (camera.height * camera.width), BETA, GAMMA


def apply_correction(raw, theta_noisy, k, chain, squash: str = "centered"):
    """Squash raw outputs into bounded deltas and add them to the noisy vector,
    as one node: theta_noisy + k (2 s - 1), or + k s for ``"literal"``, where
    s is the sigmoid of ``raw`` clipped to [tiny, 1 - tiny]; the visible
    joints are then clipped to the chain limits.

    Dual-mode in ``raw``. The VJP is diagonal, k s (1 - s) (twice that when
    centered), and zero wherever either clip is active, bounds included.
    """
    if squash not in _SQUASH_MODES:
        raise ValueError(f"unknown squashing mode {squash!r}")
    rv, tn, k = ad._val(raw), ad._val(theta_noisy), ad._val(k)
    # clip away from exact saturation so |delta| < k holds strictly even
    # when the sigmoid rounds to 1.0
    tiny = 8.0 * np.finfo(np.float64).eps
    s = ad.stable_sigmoid(rv)
    squashed = np.clip(s, tiny, 1.0 - tiny)
    if squash == "centered":
        delta = k * (2.0 * squashed - 1.0)
    else:
        delta = k * squashed
    theta = tn + delta
    lo, hi = chain.lower_limits[VISIBLE_SLICE], chain.upper_limits[VISIBLE_SLICE]
    joints = theta[..., 6:10]
    unclipped = (s >= tiny) & (s <= 1.0 - tiny)
    unclipped[..., 6:10] &= (joints >= lo) & (joints <= hi)
    theta[..., 6:10] = np.clip(joints, lo, hi)

    def vjp(g):
        gd = g * k
        if squash == "centered":
            gd = gd * 2.0
        return ((gd * unclipped) * s * (1.0 - s),)

    return ad.from_op(theta, [raw], vjp)


# ---------------------------------------------------------------------------
# loss

def weighted_loss(s_hat, points, theta_hat, m_ref, kp_ref, joints_ref,
                  alpha: float, beta: float, gamma: float):
    """Batch mean of alpha |s_hat - m_ref|^2 + beta |kp_hat - kp_ref|^2 +
    gamma |j_hat - joints_ref|^2 as one node, where kp_hat are the last K
    rows of ``points`` (B, N, 2), K the rows of ``kp_ref`` (B, K, 2), and
    j_hat the visible joints of ``theta_hat`` (B, 10). Fewer than K rows of
    points raise :class:`~silgrad.autodiff.ShapeMismatch`.

    Returns (total, parts): ``parts`` holds the plain per-frame squared
    errors "render", "keypoints" and "joints", each (B,). Dual-mode in the
    three predictions; the VJP to each taped prediction p with reference r
    and weight w is 2 w (p - r) / B, zero on the rows of ``points`` before
    the keypoints.
    """
    preds = (s_hat, points, theta_hat)
    sv, pv, tv = (ad._val(p) for p in preds)
    kr = ad._val(kp_ref)
    first = pv.shape[-2] - kr.shape[-2]
    if first < 0:
        raise ad.ShapeMismatch("weighted_loss", pv.shape, kr.shape)
    d_s = sv - ad._val(m_ref)
    d_k = pv[..., first:, :] - kr
    d_j = tv[..., 6:10] - ad._val(joints_ref)
    parts = {"render": np.sum(np.power(d_s, 2.0), axis=(-2, -1)),
             "keypoints": np.sum(np.power(d_k, 2.0), axis=(-2, -1)),
             "joints": np.sum(np.power(d_j, 2.0), axis=-1)}
    per_frame = alpha * parts["render"] + beta * parts["keypoints"] + gamma * parts["joints"]
    n = per_frame.size
    taped = [isinstance(p, ad.DiffValue) for p in preds]

    def vjp(g):
        c = g * (1.0 / n)
        g_points = np.zeros_like(pv)
        g_points[..., first:, :] = ((c * beta) * 2.0) * d_k
        g_theta = np.zeros_like(tv)
        g_theta[..., 6:10] = ((c * gamma) * 2.0) * d_j
        grads = (((c * alpha) * 2.0) * d_s, g_points, g_theta)
        return tuple(gr for gr, t in zip(grads, taped) if t)

    return (ad.from_op(np.sum(per_frame) * (1.0 / n),
                       [p for p, t in zip(preds, taped) if t], vjp), parts)


def pose_loss(scene: ToolScene, theta_hat, q_first3, m_ref, kp_ref, joints_ref,
              alpha: float, beta: float, gamma: float):
    """:func:`weighted_loss` at configurations ``theta_hat`` (B, 10) with
    the reading ``q_first3`` (B, 3) of joints 1-3. Taped, it records three
    nodes: the pose geometry, the soft raster of its vertex rows and the
    loss, which reads its keypoint rows."""
    xy, depth = project_theta(scene, theta_hat, q_first3)
    s_hat = render_points(scene, xy, depth, "soft")
    return weighted_loss(s_hat, xy, theta_hat, m_ref, kp_ref, joints_ref, alpha, beta, gamma)


# ---------------------------------------------------------------------------
# frame store: a dataset split flattened into training tensors

@dataclass
class FrameStore:
    scene: ToolScene
    masks_ref: np.ndarray     # (N, H, W) uint8, ground-truth masks
    masks_noisy: np.ndarray   # (N, H, W) uint8, rendered at the noisy config
    theta_noisy: np.ndarray   # (N, 10)
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
    head = np.tile(pose, (rec.num_frames, 1))
    return np.concatenate([head, rec.q_noisy[:, VISIBLE_SLICE]], axis=1)


def build_frame_store(ds: Dataset, stride: int = 1) -> FrameStore:
    """Load a split into memory; renders the uncorrected prediction masks.
    The store holds one true base: a split whose true bases differ raises
    ValueError naming the first trajectory file that differs."""
    from .synth import render_truth

    recs = [ds.load_trajectory(i) for i in range(ds.num_trajectories)]
    base = recs[0].base_true
    per_traj = []
    for i, rec in enumerate(recs):
        if not (np.array_equal(rec.base_true.rotation, base.rotation)
                and np.array_equal(rec.base_true.translation, base.translation)):
            raise ValueError(f"{ds.trajectory_path(i)}: true base differs from "
                             f"trajectory 0's, and a frame store holds one")
        sel = slice(0, rec.num_frames, stride)
        per_traj.append({
            "masks_ref": rec.masks[sel],
            "masks_noisy": render_truth(ds.scene, rec.base_noisy, rec.q_noisy[sel])[0],
            "theta_noisy": noisy_theta_vector(rec)[sel],
            "q_noisy_full": rec.q_noisy[sel],
            "q_true_full": rec.q_true[sel],
            "keypoints": rec.keypoints[sel].astype(float),
            "traj_of": np.full(len(rec.times[sel]), i),
            "times": rec.times[sel]})
    return FrameStore(scene=ds.scene, base_true=base,
                      **{key: np.concatenate([t[key] for t in per_traj]) for key in per_traj[0]})


# ---------------------------------------------------------------------------
# the model and its file: a numpy .npz archive, one float64 array per weight
# tensor plus ``meta``, a 0-d string array holding the JSON header {"config":
# the VitConfig's fields, "k", "squash", "alpha", "beta", "gamma"}

@dataclass
class CorrectorModel:
    config: vit.VitConfig
    weights: dict
    k: np.ndarray
    squash: str
    alpha: float
    beta: float
    gamma: float

    def save(self, path) -> None:
        meta = json.dumps({"config": asdict(self.config),
                           "k": [float(v) for v in self.k], "squash": self.squash,
                           "alpha": self.alpha, "beta": self.beta, "gamma": self.gamma},
                          sort_keys=True)
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.array(meta), **{
                name: np.asarray(w, dtype=np.float64) for name, w in self.weights.items()})

    @staticmethod
    def load(path) -> "CorrectorModel":
        """The model at ``path``: its config holds exactly the VitConfig's
        fields, and its tensors are those of ``vit.init_weights(config)``,
        each finite float64. Raises FileNotFoundError, or ValueError naming
        the path and the missing or malformed entry."""
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
            conf = meta["config"]
            odd = sorted(conf.keys() ^ {f.name for f in fields(vit.VitConfig)})
            if odd:
                raise ValueError(f"missing or unexpected config keys {odd}")
            config = vit.VitConfig(**{**conf, "head_widths": tuple(conf["head_widths"])})
            expected = vit.init_weights(config, np.random.default_rng(0))
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
        odd = sorted(meta.keys() ^ {"config", "k", "squash", "alpha", "beta", "gamma"})
        if odd:
            raise ValueError(f"{path}: missing or unexpected entries {odd}")
        try:
            k = np.asarray(meta["k"], dtype=np.float64).reshape(10)
            gains = [float(meta[key]) for key in ("alpha", "beta", "gamma")]
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed k or loss weight: {exc}") from exc
        if not np.all((k > 0) & (k < np.inf)):
            raise ValueError(f"{path}: 'k' must be finite and positive")
        for key, gain in zip(("alpha", "beta", "gamma"), gains):
            if not 0 <= gain < np.inf:
                raise ValueError(f"{path}: {key!r} must be finite and nonnegative")
        if meta["squash"] not in _SQUASH_MODES:
            raise ValueError(f"{path}: unknown squashing mode {meta['squash']!r}")
        return CorrectorModel(config, weights, k, meta["squash"], *gains)


def stack_mask_channels(m_ref: np.ndarray, m_noisy: np.ndarray) -> np.ndarray:
    return np.stack([m_ref, m_noisy], axis=1).astype(np.float64)


def _correct(config: vit.VitConfig, weights: dict, store: FrameStore, idx, k, squash: str):
    """The corrected configurations of frames ``idx``: the network on their
    mask pairs and theta / k, then the correction. Dual-mode in the weights."""
    masks = stack_mask_channels(store.masks_ref[idx], store.masks_noisy[idx])
    theta_noisy = store.theta_noisy[idx]
    raw = vit.forward(config, weights, masks, theta_noisy / k)
    return apply_correction(raw, theta_noisy, k, store.scene.chain, squash)


def infer(model: CorrectorModel, store: FrameStore, idx=None) -> np.ndarray:
    """One forward pass + squashing per frame; no renderer involved."""
    if idx is None:
        idx = np.arange(len(store))
    return _correct(model.config, model.weights, store, idx, model.k, model.squash)


# ---------------------------------------------------------------------------
# training

@dataclass
class TrainConfig:
    epochs: int = 60
    batch_size: int = 10
    lr: float = 1e-4
    weight_decay: float = 1e-4
    beta: float = BETA
    gamma: float = GAMMA
    seed: int = 0
    patience: int = 20
    squash: str = "centered"
    vit_config: vit.VitConfig = field(default_factory=vit.VitConfig)

    def __post_init__(self):
        # lr = 0 is allowed: training then returns the seeded initial weights
        for name in ("lr", "weight_decay", "beta", "gamma"):
            value = getattr(self, name)
            if not (vit.is_real(value) and 0 <= value < np.inf):
                raise ValueError(f"{name} must be a finite nonnegative number, got {value!r}")
        for name in ("epochs", "batch_size", "patience"):
            value = getattr(self, name)
            if not vit.is_count(value):
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
        if not vit.is_integer(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.squash not in _SQUASH_MODES:
            raise ValueError(f"squash: unknown squashing mode {self.squash!r}")
        if not isinstance(self.vit_config, vit.VitConfig):
            raise ValueError(f"vit_config must be a vit.VitConfig, got {self.vit_config!r}")


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0


def adam_step(weights: dict, grads: dict, state: AdamState, lr: float,
              weight_decay: float) -> None:
    """One Adam step with L2 weight decay folded into the gradient: for each
    tensor, g = grad + weight_decay * w, m = b1 m + (1 - b1) g, v = b2 v +
    (1 - b2) g g, and w - lr m^ / (sqrt(v^) + eps) with the bias-corrected
    m^ and v^.

    Rebinds each name of ``weights``, ``state.m`` and ``state.v`` to a new
    array and writes into none of the arrays passed in, so a caller may keep
    them. Each tensor takes four new arrays, five with weight decay, and
    the remaining passes write into them.
    """
    b1, b2, eps = 0.9, 0.999, 1e-8
    state.t += 1
    t = state.t
    for name, w in weights.items():
        g = grads[name]
        if weight_decay:
            g = np.multiply(w, weight_decay)
            g += grads[name]
        m = np.multiply(state.m[name], b1)
        s = np.multiply(g, 1 - b1)
        m += s
        v = np.multiply(state.v[name], b2)
        np.multiply(g, 1 - b2, out=s)
        s *= g
        v += s
        state.m[name], state.v[name] = m, v
        step = np.divide(m, 1 - b1 ** t)            # m^
        step *= lr
        np.divide(v, 1 - b2 ** t, out=s)            # v^
        np.sqrt(s, out=s)
        s += eps
        step /= s
        weights[name] = np.subtract(w, step, out=step)


def batch_loss(model_cfg: vit.VitConfig, weights: dict, store: FrameStore,
               idx: np.ndarray, k: np.ndarray, alpha: float, beta: float,
               gamma: float, squash: str):
    """Mean weighted loss over a batch; dual-mode in the weights.

    Returns (total, parts) where parts are plain per-term batch means.
    """
    theta_hat = _correct(model_cfg, weights, store, idx, k, squash)
    total, parts = pose_loss(store.scene, theta_hat, store.q_noisy_full[idx, :3],
                             store.masks_ref[idx], store.keypoints[idx],
                             store.q_true_full[idx, VISIBLE_SLICE], alpha, beta, gamma)
    return total, {name: float(np.mean(part)) for name, part in parts.items()}


def _frame_means(batches: list) -> dict:
    """Each loss part's mean over frames, from one (frames, {part: batch
    mean}) pair per batch: a batch counts by its number of frames."""
    frames = sum(n for n, _ in batches)
    return {key: sum(n * means[key] for n, means in batches) / frames
            for key in batches[0][1]}


def evaluate_loss(model: CorrectorModel, store: FrameStore, idx: np.ndarray) -> dict:
    """Plain-numpy loss over the given frames (no tape), with the model's
    loss weights."""
    batches = []
    for lo in range(0, len(idx), _EVAL_BATCH):
        sel = idx[lo:lo + _EVAL_BATCH]
        total, parts = batch_loss(model.config, model.weights, store, sel,
                                  model.k, model.alpha, model.beta, model.gamma,
                                  model.squash)
        batches.append((len(sel), {"total": float(ad._val(total)), **parts}))
    return _frame_means(batches)


def train(train_ds: Dataset, val_ds: Dataset, cfg: TrainConfig,
          out_dir=None, log_fn=print):
    """Adam training with early stopping on validation loss.

    Mixed precision: the master weights are float64, and each step's tape
    takes float32 copies of them as leaves, so the ViT runs forward and
    backward in float32. Forward kinematics, the soft raster and the losses
    stay float64 (the ViT's output is cast back), and Adam updates the float64
    masters with the gradients cast to float64. Validation, the returned model
    and the saved files are float64.

    A seeded run repeats bit for bit only at a fixed BLAS thread count: the
    BLAS may order a matrix product's sums differently for another number of
    threads, so a run with one thread and one with two end with weights that
    differ in the last bits.

    Returns (model, log) where log holds one record per epoch; its "train"
    and "val" loss parts are frame-weighted means. Checkpoints are written
    on every validation improvement when ``out_dir`` is given.
    """
    size = cfg.vit_config.image_size
    for ds in (train_ds, val_ds):
        cam = ds.scene.camera
        if (cam.width, cam.height) != (size, size):
            raise ValueError(f"{ds.root}: camera is {cam.width}x{cam.height}, "
                             f"the ViT takes {size}x{size} masks")
    store = build_frame_store(train_ds)
    val_store = build_frame_store(val_ds, stride=_VAL_STRIDE)

    rng = rng_stream(cfg.seed, _TRAIN_STREAM)
    weights = vit.init_weights(cfg.vit_config, rng)
    state = AdamState(m={n: np.zeros_like(w) for n, w in weights.items()},
                      v={n: np.zeros_like(w) for n, w in weights.items()})
    model = CorrectorModel(cfg.vit_config, weights, default_scale(train_ds.scene.chain),
                           cfg.squash, default_loss_weights(train_ds.scene.camera)[0],
                           cfg.beta, cfg.gamma)

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
        batches = []
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            tape = ad.Tape()
            dvs = {name: ad.leaf(tape, w.astype(np.float32)) for name, w in weights.items()}
            total, parts = batch_loss(model.config, dvs, store, idx, model.k, model.alpha,
                                      model.beta, model.gamma, model.squash)
            value = float(ad._val(total))
            if not np.isfinite(value):
                frames = [(int(store.traj_of[i]), float(store.times[i])) for i in idx]
                raise FloatingPointError(
                    f"non-finite training loss at epoch {epoch}, frames "
                    f"(trajectory, t): {frames}")
            grads = ad.backward(total)
            adam_step(weights, {name: grads[dv.nid].astype(np.float64)
                                for name, dv in dvs.items()},
                      state, cfg.lr, cfg.weight_decay)
            # the tape holds the whole ViT node: free it before the next
            # step's forward pass, not after it
            del tape, dvs, total, grads
            batches.append((len(idx), {"total": value, **parts}))

        val = evaluate_loss(model, val_store, val_idx)
        rec = {"epoch": epoch,
               "train": _frame_means(batches),
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
                model.save(out_dir / "checkpoint.npz")
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    model.weights = best_weights
    if out_dir is not None:
        model.save(out_dir / "model.npz")
    return model, log
