"""Synthetic trajectory and dataset generation.

Trajectories chain 50-step linear joint-space segments between rejection-
sampled in-view targets at 30 Hz. Noise model: one uniform perturbation of
the camera-from-base transform per trajectory (applied in Euler-pose
coordinates) plus i.i.d. per-frame Gaussian joint noise. Ground-truth hard
masks and 2-D keypoints are rendered at the true configuration.

Every trajectory owns a counter-based RNG stream keyed by (global seed,
trajectory index), so parallel and serial generation agree bit-exactly.

Dataset directory layout::

    <out>/manifest            YAML: split, counts, camera, chain, noise, seed
    <out>/assets/             chain description + mesh files (self-contained)
    <out>/traj_0000/frames.bin    per frame, little-endian:
                                  t f64, q_true 7xf64, q_noisy 7xf64,
                                  base_true 12xf64 (row-major R then t),
                                  base_noisy 12xf64, keypoints 12xf32
    <out>/traj_0000/mask_0000.pgm ground-truth hard masks
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import yaml

from . import kinematics as kin
from . import render, se3
from .scene import ToolScene, load_scene, reference_scene, render_pose, write_assets

FRAME_RATE = 30.0
SEGMENT_STEPS = 50
MAX_REJECTIONS = 10000
_VIEW_MARGIN = 0.1
_RENDER_SLAB = 128

_FRAME_F64 = 1 + 7 + 7 + 12 + 12
_FRAME_BYTES = _FRAME_F64 * 8 + 12 * 4


@dataclass(frozen=True)
class NoiseSpec:
    transform_translation_halfwidth: np.ndarray  # (3,) m
    transform_euler_halfwidth: np.ndarray        # (3,) rad
    joint_sigma: np.ndarray                      # (7,) rad or m

    def __post_init__(self):
        for name in ("transform_translation_halfwidth", "transform_euler_halfwidth",
                     "joint_sigma"):
            v = np.asarray(getattr(self, name), dtype=float)
            if np.any(v < 0):
                raise ValueError(f"{name} must be nonnegative")
            object.__setattr__(self, name, v)

    def to_dict(self) -> dict:
        return {
            "transform_translation_halfwidth": self.transform_translation_halfwidth.tolist(),
            "transform_euler_halfwidth": self.transform_euler_halfwidth.tolist(),
            "joint_sigma": self.joint_sigma.tolist(),
        }

    @staticmethod
    def zero() -> "NoiseSpec":
        return NoiseSpec(np.zeros(3), np.zeros(3), np.zeros(7))


def default_noise_spec() -> NoiseSpec:
    """Visible but recoverable misalignment at the default resolutions."""
    return NoiseSpec(
        transform_translation_halfwidth=np.full(3, 0.010),
        transform_euler_halfwidth=np.full(3, np.deg2rad(5.0)),
        joint_sigma=np.array([0.010, 0.010, 0.002, 0.020, 0.020, 0.020, 0.020]),
    )


@dataclass
class TrajectoryRecord:
    """One trajectory's frames, as generated or as read back from disk."""

    times: np.ndarray          # (N,) seconds at FRAME_RATE
    q_true: np.ndarray         # (N, 7)
    q_noisy: np.ndarray        # (N, 7)
    base_true: se3.RigidTransform    # constant over the trajectory
    base_noisy: se3.RigidTransform   # sampled once per trajectory
    masks: np.ndarray          # (N, H, W) uint8 in {0, 1}, rendered at truth
    keypoints: np.ndarray      # (N, 6, 2) float32, projected at truth

    @property
    def num_frames(self) -> int:
        return len(self.times)


def rng_stream(global_seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array(
        [global_seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)))


# ---------------------------------------------------------------------------
# sampling and interpolation

def _view_points(scene: ToolScene, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projected (keypoints + end effector) and their depths at truth base."""
    base = scene.base
    links = kin.forward_kinematics(scene.chain, base.rotation[None],
                                   base.translation[None], q[None])
    pts = np.vstack([kin.keypoints_3d(scene.chain, links)[0], links[-1][1]])
    xy, _ = render.project(scene.camera, pts)
    return xy, pts[:, 2]


def _in_box(scene: ToolScene, xy: np.ndarray, z: np.ndarray, margin: float) -> bool:
    cam = scene.camera
    x0, x1 = margin * cam.width, (1 - margin) * cam.width
    y0, y1 = margin * cam.height, (1 - margin) * cam.height
    return bool(np.all((xy[:, 0] > x0) & (xy[:, 0] < x1)
                       & (xy[:, 1] > y0) & (xy[:, 1] < y1)
                       & (z > cam.near) & (z < cam.far)))


def sample_target_pose(scene: ToolScene, rng: np.random.Generator,
                       max_rejections: int = MAX_REJECTIONS) -> np.ndarray:
    """Uniform in-limits config whose keypoints and end effector all project
    strictly inside the 10%-margin view box."""
    lo, hi = scene.chain.lower_limits, scene.chain.upper_limits
    for _ in range(max_rejections):
        q = rng.uniform(lo, hi)
        xy, z = _view_points(scene, q)
        if _in_box(scene, xy, z, _VIEW_MARGIN):
            return q
    raise RuntimeError(
        f"no in-view configuration found after {max_rejections} rejections; "
        "camera or chain is misconfigured")


def interpolate_segment(q_start: np.ndarray, q_target: np.ndarray,
                        steps: int = SEGMENT_STEPS) -> np.ndarray:
    """Per-joint linear interpolation, endpoints inclusive, shape (steps, J)."""
    if steps < 2:
        raise ValueError("steps must be at least 2")
    return np.linspace(np.asarray(q_start, dtype=float),
                       np.asarray(q_target, dtype=float), steps)


def _segment_in_view(scene: ToolScene, seg: np.ndarray) -> bool:
    """Ground-truth end effector stays inside the image for all frames."""
    base = scene.base
    links = kin.forward_kinematics(scene.chain, base.rotation[None],
                                   base.translation[None], seg)
    eef = links[-1][1]
    xy, behind = render.project(scene.camera, eef)
    cam = scene.camera
    ok = ((xy[:, 0] >= 0) & (xy[:, 0] < cam.width)
          & (xy[:, 1] >= 0) & (xy[:, 1] < cam.height) & ~behind)
    return bool(np.all(ok))


def _joint_path(scene: ToolScene, n_frames: int, rng: np.random.Generator) -> np.ndarray:
    configs = [sample_target_pose(scene, rng)]
    while len(configs) < n_frames:
        remaining = n_frames - len(configs)
        if remaining < SEGMENT_STEPS - 1:
            configs.extend([configs[-1]] * remaining)  # pad by holding
            break
        for _ in range(200):
            target = sample_target_pose(scene, rng)
            seg = interpolate_segment(configs[-1], target)
            if _segment_in_view(scene, seg):
                break
        else:
            raise RuntimeError("could not keep the end effector in view while "
                               "interpolating; widen the view or narrow limits")
        configs.extend(seg[1:])
    return np.asarray(configs)


def render_truth(scene: ToolScene, base: se3.RigidTransform,
                 q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hard masks (N,H,W uint8) and keypoints (N,6,2 f32) at configuration q.

    Raises ValueError naming the first frame whose mask is not finite.
    """
    n = len(q)
    masks = np.empty((n, scene.camera.height, scene.camera.width), dtype=np.uint8)
    kps = np.empty((n, len(scene.chain.keypoints), 2), dtype=np.float32)
    for lo in range(0, n, _RENDER_SLAB):
        hi = min(lo + _RENDER_SLAB, n)
        rot = np.broadcast_to(base.rotation, (hi - lo, 3, 3))
        trans = np.broadcast_to(base.translation, (hi - lo, 3))
        slab, xy = render_pose(scene, rot, trans, q[lo:hi], "hard")
        bad = np.flatnonzero(np.isnan(slab).any(axis=(1, 2)))
        if len(bad):
            raise ValueError(f"frame {lo + bad[0]}: non-finite vertex in the hard render")
        masks[lo:hi] = slab.astype(np.uint8)
        kps[lo:hi] = xy.astype(np.float32)
    return masks, kps


def generate_trajectory(frames: int, scene: ToolScene, noise: NoiseSpec,
                        global_seed: int, index: int = 0) -> TrajectoryRecord:
    """``frames`` frames at FRAME_RATE from stream ``index`` of ``global_seed``."""
    rng = rng_stream(global_seed, index)
    if frames < 1:
        raise ValueError("trajectory must contain at least one frame")

    base_true = scene.base
    pose, _ = se3.transform_to_euler(base_true)
    d_euler = rng.uniform(-noise.transform_euler_halfwidth, noise.transform_euler_halfwidth) \
        if noise.transform_euler_halfwidth.any() else np.zeros(3)
    d_trans = rng.uniform(-noise.transform_translation_halfwidth,
                          noise.transform_translation_halfwidth) \
        if noise.transform_translation_halfwidth.any() else np.zeros(3)
    base_noisy = se3.euler_to_transform(se3.EulerPose(pose.euler + d_euler,
                                                      pose.translation + d_trans))

    q_true = _joint_path(scene, frames, rng)
    jn = rng.standard_normal((frames, scene.chain.num_joints)) * noise.joint_sigma
    q_noisy = q_true + jn

    masks, kps = render_truth(scene, base_true, q_true)
    return TrajectoryRecord(
        times=np.arange(frames, dtype=float) / FRAME_RATE,
        q_true=q_true,
        q_noisy=q_noisy,
        base_true=base_true,
        base_noisy=base_noisy,
        masks=masks,
        keypoints=kps,
    )


# ---------------------------------------------------------------------------
# persistence

def _pack_transform(t: se3.RigidTransform) -> np.ndarray:
    return np.concatenate([t.rotation.reshape(9), t.translation])


def _unpack_transform(row: np.ndarray) -> se3.RigidTransform:
    return se3.RigidTransform(row[:9].reshape(3, 3), row[9:12])


def write_trajectory(traj_dir, rec: TrajectoryRecord) -> None:
    traj_dir = Path(traj_dir)
    traj_dir.mkdir(parents=True, exist_ok=True)
    n = rec.num_frames
    f64 = np.empty((n, _FRAME_F64))
    f64[:, 0] = rec.times
    f64[:, 1:8] = rec.q_true
    f64[:, 8:15] = rec.q_noisy
    f64[:, 15:27] = _pack_transform(rec.base_true)
    f64[:, 27:39] = _pack_transform(rec.base_noisy)
    kp = rec.keypoints.reshape(n, 12).astype("<f4")
    with open(traj_dir / "frames.bin", "wb") as fh:
        body = np.empty((n, _FRAME_BYTES), dtype=np.uint8)
        body[:, : _FRAME_F64 * 8] = f64.astype("<f8").view(np.uint8).reshape(n, -1)
        body[:, _FRAME_F64 * 8:] = kp.view(np.uint8).reshape(n, -1)
        fh.write(body.tobytes())
    for i in range(n):
        render.write_pgm(traj_dir / f"mask_{i:04d}.pgm", rec.masks[i])


def _read_mask(path: Path, shape: tuple | None) -> np.ndarray:
    """One ground-truth mask as uint8 {0, 1}; ``shape`` is the first mask's."""
    mask = render.read_pgm(path)
    if shape is not None and mask.shape != shape:
        raise ValueError(f"{path}: mask is {mask.shape[1]}x{mask.shape[0]}, "
                         f"the first mask is {shape[1]}x{shape[0]}")
    return mask


def read_trajectory(traj_dir) -> TrajectoryRecord:
    traj_dir = Path(traj_dir)
    path = traj_dir / "frames.bin"
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise FileNotFoundError(f"trajectory table missing: {path}") from exc
    if not raw or len(raw) % _FRAME_BYTES:
        raise ValueError(f"{path}: length {len(raw)} is not a positive multiple "
                         f"of the {_FRAME_BYTES}-byte frame")
    n = len(raw) // _FRAME_BYTES
    body = np.frombuffer(raw, dtype=np.uint8).reshape(n, _FRAME_BYTES)
    f64 = body[:, : _FRAME_F64 * 8].reshape(-1).view("<f8").reshape(n, _FRAME_F64)
    kp = body[:, _FRAME_F64 * 8:].reshape(-1).view("<f4").reshape(n, 6, 2)
    bad = np.flatnonzero(~np.isfinite(f64).all(axis=1) | ~np.isfinite(kp).all(axis=(1, 2)))
    if len(bad):
        raise ValueError(f"{path}: frame {bad[0]} holds a non-finite value")

    base_true_rows = f64[:, 15:27]
    base_noisy_rows = f64[:, 27:39]
    for name, rows in (("base_true", base_true_rows), ("base_noisy", base_noisy_rows)):
        if not np.all(rows == rows[0]):
            raise ValueError(f"{path}: {name} varies within the trajectory")

    masks = [_read_mask(traj_dir / "mask_0000.pgm", None)]
    for i in range(1, n):
        masks.append(_read_mask(traj_dir / f"mask_{i:04d}.pgm", masks[0].shape))
    return TrajectoryRecord(
        times=f64[:, 0].copy(),
        q_true=f64[:, 1:8].copy(),
        q_noisy=f64[:, 8:15].copy(),
        base_true=_unpack_transform(base_true_rows[0]),
        base_noisy=_unpack_transform(base_noisy_rows[0]),
        masks=np.stack(masks),
        keypoints=np.ascontiguousarray(kp),
    )


@dataclass
class Dataset:
    root: Path
    manifest: dict
    scene: ToolScene

    @property
    def num_trajectories(self) -> int:
        return int(self.manifest["trajectories"])

    def trajectory_dir(self, i: int) -> Path:
        return self.root / f"traj_{i:04d}"

    def load_trajectory(self, i: int) -> TrajectoryRecord:
        rec = read_trajectory(self.trajectory_dir(i))
        want = int(self.manifest["frames_per_trajectory"])
        if rec.num_frames != want:
            raise ValueError(f"{self.trajectory_dir(i) / 'frames.bin'}: {rec.num_frames} "
                             f"frames, the manifest says {want}")
        return rec


def generate_dataset(out_dir, split: str, trajectories: int, duration_s: float,
                     seed: int, scene: ToolScene | None = None,
                     noise: NoiseSpec | None = None,
                     frames_per_trajectory: int | None = None,
                     threads: int = 1) -> Dataset:
    """Generate and persist a dataset split; returns the readable handle."""
    if trajectories < 1:
        raise ValueError("trajectory count must be positive")
    scene = scene or reference_scene(64)
    noise = noise or default_noise_spec()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_assets(out / "assets", scene)

    frames = frames_per_trajectory if frames_per_trajectory is not None \
        else int(round(duration_s * FRAME_RATE))
    manifest = {
        "split": split,
        "trajectories": int(trajectories),
        "frames_per_trajectory": int(frames),
        "frame_rate": FRAME_RATE,
        "duration_s": float(duration_s),
        "camera": asdict(scene.camera),
        "chain": f"assets/{Path('psm_simplified.yaml')}",
        "noise": noise.to_dict(),
        "seed": int(seed),
    }
    (out / "manifest").write_text(yaml.safe_dump(manifest, sort_keys=False))

    def build(i: int):
        rec = generate_trajectory(frames, scene, noise, seed, index=i)
        write_trajectory(out / f"traj_{i:04d}", rec)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(build, range(trajectories)))
    else:
        for i in range(trajectories):
            build(i)
    return read_dataset(out)


def read_dataset(root) -> Dataset:
    root = Path(root)
    path = root / "manifest"
    try:
        manifest = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise FileNotFoundError(f"dataset manifest missing: {path}") from exc
    except yaml.YAMLError as exc:
        raise ValueError(f"{path}: not valid YAML") from exc
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: not a YAML mapping")
    for key in ("trajectories", "frames_per_trajectory", "camera", "chain"):
        if key not in manifest:
            raise ValueError(f"{path}: no {key!r} entry")
    for key in ("trajectories", "frames_per_trajectory"):
        if not isinstance(manifest[key], int) or manifest[key] < 1:
            raise ValueError(f"{path}: {key} must be a positive integer")
    try:
        camera = render.PinholeCamera(**manifest["camera"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: camera: {exc}") from None
    chain_path = root / manifest["chain"]
    if not chain_path.exists():
        raise FileNotFoundError(f"dataset chain file missing: {chain_path}")
    ds_scene = load_scene(chain_path, camera)
    for i in range(int(manifest["trajectories"])):
        td = root / f"traj_{i:04d}"
        if not (td / "frames.bin").exists():
            raise FileNotFoundError(f"dataset trajectory missing: {td}/frames.bin")
    return Dataset(root=root, manifest=manifest, scene=ds_scene)
