"""Synthetic trajectory and dataset generation.

Trajectories chain 50-step linear joint-space segments between rejection-
sampled in-view targets at 30 Hz. Noise model: one uniform perturbation of
the camera-from-base transform per trajectory (applied in Euler-pose
coordinates) plus i.i.d. per-frame Gaussian joint noise. Ground-truth hard
masks and 2-D keypoints are rendered at the true configuration.

Every trajectory owns a counter-based RNG stream keyed by (global seed,
trajectory index), so a trajectory does not depend on how many others are
generated before it, and the same seed writes the same bytes.

A target is a uniform in-limits configuration whose keypoints and end
effector project inside the view box; about 1 candidate in 35 is accepted
at 64 and at 128 px, since the box scales with the camera. The sampler draws
candidates in blocks of ``_SAMPLE_BLOCK`` = 64 and runs forward kinematics,
keypoints and projection once per block. At that rate a block holds a hit
about 84% of the time; 64 was the fastest of block sizes 8 to 256 on a
2-core Xeon (0.37 ms per target at 64 px, against 0.44 ms for 32 and 128,
and 6 ms one candidate at a time). On a hit at row k the stream is rewound
to the block's start and k + 1 rows are drawn again, so the target and
every later draw of the trajectory are those of the one-at-a-time loop: the
bytes of a split do not depend on the block size.

A dataset carries no copy of the scene: the manifest records the camera and
the :func:`~silgrad.scene.geometry_digest` of the built-in tool, and
:func:`read_dataset` rebuilds it with ``reference_scene(camera=...)``.

Dataset directory layout::

    <out>/manifest            JSON: split, counts, camera, geometry digest,
                              noise, seed
    <out>/traj_0000.npy       one record per frame (numpy .npy, structured):
                              t f8, q_true 7 f8, q_noisy 7 f8,
                              base_true 12 f8 (row-major R then t),
                              base_noisy 12 f8, keypoints (6, 2) f4,
                              mask (H, W) u1 in {0, 1} (ground truth)
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import kinematics as kin
from . import render, se3, vit
from .scene import ToolScene, geometry_digest, reference_scene, render_pose

FRAME_RATE = 30.0
SEGMENT_STEPS = 50
MAX_REJECTIONS = 10000
_VIEW_MARGIN = 0.1
_RENDER_SLAB = 128
# candidates per forward-kinematics pass in sample_target_pose (see the
# module docstring)
_SAMPLE_BLOCK = 64


@dataclass(frozen=True)
class NoiseSpec:
    transform_translation_halfwidth: np.ndarray  # (3,) m
    transform_euler_halfwidth: np.ndarray        # (3,) rad
    joint_sigma: np.ndarray                      # (7,) rad or m

    def __post_init__(self):
        for name, n in (("transform_translation_halfwidth", 3),
                        ("transform_euler_halfwidth", 3), ("joint_sigma", 7)):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {v.shape}")
            if not np.all(np.isfinite(v) & (v >= 0)):
                raise ValueError(f"{name} must be finite and nonnegative")
            object.__setattr__(self, name, v)

    def to_dict(self) -> dict:
        return {
            "transform_translation_halfwidth": self.transform_translation_halfwidth.tolist(),
            "transform_euler_halfwidth": self.transform_euler_halfwidth.tolist(),
            "joint_sigma": self.joint_sigma.tolist(),
        }


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
    """Projected keypoints and end effector (..., 7, 2) and their depths
    (..., 7) at the true base, for configurations q of shape (..., J)."""
    base = scene.base
    links = kin.forward_kinematics(scene.chain, base.rotation, base.translation, q)
    pts = np.concatenate([kin.keypoints_3d(scene.chain, links), links[-1][1][..., None, :]],
                         axis=-2)
    return render.project(scene.camera, pts), pts[..., 2]


def _in_box(scene: ToolScene, xy: np.ndarray, z: np.ndarray, margin: float) -> np.ndarray:
    """Whether every point of each configuration's (..., P) points lies
    strictly inside the margin box and the depth range, shape (...)."""
    cam = scene.camera
    x0, x1 = margin * cam.width, (1 - margin) * cam.width
    y0, y1 = margin * cam.height, (1 - margin) * cam.height
    return np.all((xy[..., 0] > x0) & (xy[..., 0] < x1)
                  & (xy[..., 1] > y0) & (xy[..., 1] < y1)
                  & (z > cam.near) & (z < cam.far), axis=-1)


def sample_target_pose(scene: ToolScene, rng: np.random.Generator,
                       max_rejections: int = MAX_REJECTIONS) -> np.ndarray:
    """Uniform in-limits config whose keypoints and end effector all project
    strictly inside the 10%-margin view box.

    This is rejection sampling of one candidate at a time, run in blocks of
    ``_SAMPLE_BLOCK`` candidates with one forward-kinematics pass each (see
    the module docstring for the size). On a hit at row k the stream is
    rewound to the block's start and k + 1 rows are drawn again, so the
    result and the stream's next draw are those of the one-at-a-time loop.
    A block without a hit keeps its draws, as the loop would. At most
    ``max_rejections`` candidates are drawn in all.
    """
    lo, hi = scene.chain.lower_limits, scene.chain.upper_limits
    for start in range(0, max_rejections, _SAMPLE_BLOCK):
        rows = min(_SAMPLE_BLOCK, max_rejections - start)
        state = rng.bit_generator.state
        q = rng.uniform(lo, hi, (rows, len(lo)))
        hits = np.flatnonzero(_in_box(scene, *_view_points(scene, q), _VIEW_MARGIN))
        if len(hits):
            rng.bit_generator.state = state
            return rng.uniform(lo, hi, (hits[0] + 1, len(lo)))[-1]
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
    """Ground-truth end effector stays inside the image and in front of the
    near plane for all frames."""
    xy, z = _view_points(scene, seg)
    (x, y), cam = xy[:, -1].T, scene.camera
    return bool(np.all((x >= 0) & (x < cam.width) & (y >= 0) & (y < cam.height)
                       & (z[:, -1] > cam.near)))


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
    base_noisy = se3.euler_to_transform(pose + np.concatenate([d_euler, d_trans]))

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


def _frame_dtype(mask_shape: tuple) -> np.dtype:
    return np.dtype([("t", "<f8"), ("q_true", "<f8", (7,)), ("q_noisy", "<f8", (7,)),
                     ("base_true", "<f8", (12,)), ("base_noisy", "<f8", (12,)),
                     ("keypoints", "<f4", (6, 2)), ("mask", "u1", mask_shape)])


def write_trajectory(path, rec: TrajectoryRecord) -> None:
    frames = np.empty(rec.num_frames, _frame_dtype(rec.masks.shape[1:]))
    frames["t"] = rec.times
    frames["q_true"] = rec.q_true
    frames["q_noisy"] = rec.q_noisy
    frames["base_true"] = _pack_transform(rec.base_true)
    frames["base_noisy"] = _pack_transform(rec.base_noisy)
    frames["keypoints"] = rec.keypoints
    frames["mask"] = rec.masks
    with open(path, "wb") as fh:
        np.save(fh, frames)


def read_trajectory(path) -> TrajectoryRecord:
    """One trajectory file, checked: non-empty, finite, one base pose per
    trajectory and {0, 1} masks. Raises ValueError naming the path."""
    path = Path(path)
    try:
        # np.load would take anything else for an .npz or a pickle
        with open(path, "rb") as fh:
            is_npy = fh.read(6) == np.lib.format.MAGIC_PREFIX
        # memory-mapped, so a header that overclaims the frame count fails
        # on the file size instead of allocating the claimed array
        frames = np.load(path, mmap_mode="r") if is_npy else None
    except OSError as exc:
        raise FileNotFoundError(f"trajectory file not readable: {path}") from exc
    except (ValueError, EOFError) as exc:
        raise ValueError(f"{path}: not a trajectory file: {exc}") from exc
    if frames is None:
        raise ValueError(f"{path}: not an .npy file")
    fields = frames.dtype.fields or {}
    mask_shape = fields["mask"][0].shape if "mask" in fields else ()
    if frames.ndim != 1 or len(mask_shape) != 2 or frames.dtype != _frame_dtype(mask_shape):
        raise ValueError(f"{path}: not a trajectory record array")
    if not len(frames):
        raise ValueError(f"{path}: no frames")
    finite = np.isfinite(frames["keypoints"]).all(axis=(1, 2)) & np.isfinite(frames["t"])
    for name in ("q_true", "q_noisy", "base_true", "base_noisy"):
        finite &= np.isfinite(frames[name]).all(axis=1)
    bad = np.flatnonzero(~finite)
    if len(bad):
        raise ValueError(f"{path}: frame {bad[0]} holds a non-finite value")
    bases = {}
    for name in ("base_true", "base_noisy"):
        if not np.all(frames[name] == frames[name][0]):
            raise ValueError(f"{path}: {name} varies within the trajectory")
        packed = np.array(frames[name][0])
        bases[name] = se3.RigidTransform(packed[:9], packed[9:])
        try:
            bases[name].validate()
        except ValueError as exc:
            raise ValueError(f"{path}: {name}: {exc}") from None
    masks = np.array(frames["mask"])
    if (masks > 1).any():
        raise ValueError(f"{path}: mask holds a value other than 0 and 1")
    return TrajectoryRecord(
        times=np.array(frames["t"]),
        q_true=np.array(frames["q_true"]),
        q_noisy=np.array(frames["q_noisy"]),
        base_true=bases["base_true"],
        base_noisy=bases["base_noisy"],
        masks=masks,
        keypoints=np.array(frames["keypoints"]),
    )


@dataclass
class Dataset:
    root: Path
    manifest: dict
    scene: ToolScene

    @property
    def num_trajectories(self) -> int:
        return int(self.manifest["trajectories"])

    def trajectory_path(self, i: int) -> Path:
        return self.root / f"traj_{i:04d}.npy"

    def load_trajectory(self, i: int) -> TrajectoryRecord:
        path = self.trajectory_path(i)
        rec = read_trajectory(path)
        want = int(self.manifest["frames_per_trajectory"])
        if rec.num_frames != want:
            raise ValueError(f"{path}: {rec.num_frames} frames, the manifest says {want}")
        cam = self.scene.camera
        h, w = rec.masks.shape[1:]
        if (w, h) != (cam.width, cam.height):
            raise ValueError(f"{path}: masks are {w}x{h}, the camera is "
                             f"{cam.width}x{cam.height}")
        return rec


def generate_dataset(out_dir, split: str, trajectories: int, duration_s: float,
                     seed: int, scene: ToolScene | None = None,
                     noise: NoiseSpec | None = None,
                     frames_per_trajectory: int | None = None) -> Dataset:
    """Generate and persist a dataset split; returns the readable handle.

    Each trajectory holds ``frames_per_trajectory`` frames, or
    ``round(duration_s * FRAME_RATE)`` when that is None. ``scene`` must have
    the built-in geometry, since the split records only its camera and
    geometry digest. A bad size, duration, seed or scene raises ValueError,
    naming the field, before any write."""
    if not (vit.is_real(duration_s) and 0 < duration_s < np.inf):
        raise ValueError(f"duration_s must be a finite positive number of seconds, "
                         f"got {duration_s!r}")
    if frames_per_trajectory is None:
        frames = int(round(duration_s * FRAME_RATE))
        if frames < 1:
            raise ValueError(f"duration_s must be long enough for one frame at {FRAME_RATE} Hz, "
                             f"got {duration_s!r}")
    else:
        frames = frames_per_trajectory
    for name, value in (("trajectories", trajectories), ("frames_per_trajectory", frames)):
        if not vit.is_count(value):
            raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
    if not vit.is_integer(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    scene = scene or reference_scene(64)
    geometry = geometry_digest(scene)
    if geometry != geometry_digest(reference_scene(camera=scene.camera)):
        raise ValueError("scene geometry differs from the built-in tool")
    noise = noise or default_noise_spec()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    manifest = {
        "split": split,
        "trajectories": int(trajectories),
        "frames_per_trajectory": int(frames),
        "camera": asdict(scene.camera),
        "geometry": geometry,
        "noise": noise.to_dict(),
        "seed": int(seed),
    }
    # the manifest goes last, so a run that fails partway leaves no manifest
    # naming trajectories that were never written; an earlier split's
    # trajectory files go with its manifest
    (out / "manifest").unlink(missing_ok=True)
    for stale in out.glob("traj_*.npy"):
        stale.unlink()
    for i in range(trajectories):
        rec = generate_trajectory(frames, scene, noise, seed, index=i)
        write_trajectory(out / f"traj_{i:04d}.npy", rec)
    (out / "manifest").write_text(json.dumps(manifest, indent=2) + "\n")
    return read_dataset(out)


def read_dataset(root) -> Dataset:
    root = Path(root)
    path = root / "manifest"
    try:
        manifest = json.loads(path.read_text())
    except OSError as exc:
        raise FileNotFoundError(f"dataset manifest missing: {path}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: not a JSON object")
    for key in ("trajectories", "frames_per_trajectory", "camera", "geometry"):
        if key not in manifest:
            raise ValueError(f"{path}: no {key!r} entry")
    for key in ("trajectories", "frames_per_trajectory"):
        if type(manifest[key]) is not int or manifest[key] < 1:
            raise ValueError(f"{path}: {key} must be a positive integer")
    try:
        camera = render.PinholeCamera(**manifest["camera"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: camera: {exc}") from None
    ds_scene = reference_scene(camera=camera)
    if manifest["geometry"] != geometry_digest(ds_scene):
        raise ValueError(f"{path}: the geometry digest does not match the built-in tool")
    ds = Dataset(root=root, manifest=manifest, scene=ds_scene)
    for i in range(ds.num_trajectories):
        if not ds.trajectory_path(i).exists():
            raise FileNotFoundError(f"dataset trajectory missing: {ds.trajectory_path(i)}")
    return ds
