"""Tool scene: kinematic chain, link meshes, camera, and canonical base pose.

The canonical base places the manipulator pivot up-left of the optical axis
with the instrument pointing at a work center ~14 cm in front of the camera,
so sampled configurations keep the articulated head inside the view.

:func:`render_pose` runs forward kinematics once per pose and returns both
the silhouette and the projected keypoints; :func:`render_masks` returns the
silhouette alone. Both are batched and dual-mode: with autodiff inputs the
soft silhouette and the keypoints are differentiable. :func:`geometry_digest`
identifies the geometry a generated dataset was rendered from.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import kinematics as kin
from . import mesh as meshmod
from . import render
from . import se3

WORK_CENTER = np.array([0.0, 0.0, 0.14])
RCM_POSITION = np.array([0.06, 0.05, 0.04])


def look_rotation(z_dir: np.ndarray) -> np.ndarray:
    """Rotation whose +Z column points along ``z_dir``, with +X orthogonal to
    the camera's +Y."""
    z = np.asarray(z_dir, dtype=float)
    z = z / np.linalg.norm(z)
    x = np.cross(np.array([0.0, 1.0, 0.0]), z)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    return np.column_stack([x, y, z])


def reference_base() -> se3.RigidTransform:
    return se3.RigidTransform(look_rotation(WORK_CENTER - RCM_POSITION), RCM_POSITION)


@dataclass(frozen=True)
class ToolScene:
    chain: kin.KinematicChain
    meshes: dict[str, meshmod.TriMesh]
    base: se3.RigidTransform
    camera: render.PinholeCamera

    # flattened geometry, derived once from chain and meshes
    verts_local: np.ndarray = field(init=False)    # (V, 3)
    faces: np.ndarray = field(init=False)          # (T, 3)
    vert_slices: tuple = field(init=False)         # [(joint_index, lo, hi)] vertex ranges

    def __post_init__(self):
        verts, faces, slices = [], [], []
        offset = 0
        for ji, joint in enumerate(self.chain.joints):
            if joint.mesh is None:
                continue
            m = self.meshes[joint.mesh]
            verts.append(m.vertices)
            faces.append(m.faces + offset)
            slices.append((ji, offset, offset + len(m.vertices)))
            offset += len(m.vertices)
        object.__setattr__(self, "verts_local", np.concatenate(verts))
        object.__setattr__(self, "faces", np.concatenate(faces))
        object.__setattr__(self, "vert_slices", tuple(slices))

    @property
    def sigma_r(self) -> float:
        return render.default_sigma_r(self.camera.width)


def reference_scene(image_size: int = 128, camera: render.PinholeCamera | None = None) -> ToolScene:
    return ToolScene(
        chain=kin.reference_chain(),
        meshes=meshmod.tool_part_meshes(),
        base=reference_base(),
        camera=camera or render.default_camera(image_size),
    )


def geometry_digest(scene: ToolScene) -> str:
    """SHA-256 (hex) of everything but the camera that a render depends on:
    each joint's kind, axis, offset and limits, the keypoints, the flattened
    meshes and the base pose."""
    h = hashlib.sha256()

    # Floats are hashed at float32, so a one-ulp libm difference between
    # machines leaves the digest alone, while float32 still resolves about
    # 0.5 nm at tool scale and any real geometry change moves it.
    def floats(*values):
        h.update(np.concatenate([np.ravel(v) for v in values]).astype("<f4").tobytes())

    for joint in scene.chain.joints:
        h.update(joint.kind.encode() + b"\0")
        floats(joint.axis, joint.offset.rotation, joint.offset.translation,
               [joint.lower, joint.upper])
    for anchor in scene.chain.keypoints:
        h.update(np.int64(anchor.joint_index).tobytes())
        floats(anchor.point)
    floats(scene.verts_local, scene.base.rotation, scene.base.translation)
    h.update(scene.faces.astype("<i8").tobytes())
    h.update(np.array(scene.vert_slices, dtype="<i8").tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# batched differentiable geometry

def _silhouette(scene: ToolScene, links, mode: str):
    """Pose the link meshes, project them and rasterize: (B, H, W)."""
    parts = []
    for ji, lo, hi in scene.vert_slices:
        r, t = links[ji]
        world = ad.transpose(ad.matmul(r, scene.verts_local[lo:hi].T), (0, 2, 1))
        parts.append(ad.add(world, ad.reshape(t, (-1, 1, 3))))
    world = ad.concatenate(parts, axis=1)
    cam = scene.camera
    xy, _ = render.project(cam, world)
    valid = render.face_validity(ad._val(world)[..., 2], scene.faces, cam, mode)
    if mode == "hard":
        return render.hard_occupancy(ad._val(xy), scene.faces, valid, cam.width, cam.height)
    return render.soft_occupancy(xy, scene.faces, valid, cam.width, cam.height,
                                 scene.sigma_r)


def render_masks(scene: ToolScene, base_rotation, base_translation, q, mode: str):
    """Batched silhouettes (B, H, W): binary union for "hard", differentiable
    soft coverage otherwise."""
    links = kin.forward_kinematics(scene.chain, base_rotation, base_translation, q)
    return _silhouette(scene, links, mode)


def render_pose(scene: ToolScene, base_rotation, base_translation, q, mode: str):
    """Silhouettes (B, H, W) as :func:`render_masks` gives them, plus the
    projected keypoints (B, K, 2), from one forward-kinematics pass."""
    links = kin.forward_kinematics(scene.chain, base_rotation, base_translation, q)
    kps, _ = render.project(scene.camera, kin.keypoints_3d(scene.chain, links))
    return _silhouette(scene, links, mode), kps
