"""Tool scene: kinematic chain, link meshes, camera, and canonical base pose.

The canonical base places the manipulator pivot up-left of the optical axis
with the instrument pointing at a work center ~14 cm in front of the camera,
so sampled configurations keep the articulated head inside the view.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import kinematics as kin
from . import mesh as meshmod
from . import render
from . import se3

WORK_CENTER = np.array([0.0, 0.0, 0.14])
RCM_POSITION = np.array([0.06, 0.05, 0.04])

CHAIN_FILE = "psm_simplified.yaml"


def look_rotation(z_dir: np.ndarray, up=(0.0, 1.0, 0.0)) -> np.ndarray:
    """Rotation whose +Z column points along ``z_dir``."""
    z = np.asarray(z_dir, dtype=float)
    z = z / np.linalg.norm(z)
    x = np.cross(np.asarray(up, dtype=float), z)
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

    # flattened geometry, derived once
    verts_local: np.ndarray = None    # (V, 3)
    faces: np.ndarray = None          # (T, 3)
    vert_slices: tuple = None         # [(joint_index, lo, hi)] vertex ranges

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


# ---------------------------------------------------------------------------
# batched differentiable geometry

def posed_vertices(scene: ToolScene, base_rotation, base_translation, q):
    """World (camera-frame) mesh vertices, shape (B, V, 3); differentiable."""
    links = kin.forward_kinematics(scene.chain, base_rotation, base_translation, q)
    B = ad._val(q).shape[0]
    parts = []
    for ji, lo, hi in scene.vert_slices:
        r, t = links[ji]
        vl = scene.verts_local[lo:hi]
        world = ad.transpose(ad.matmul(r, vl.T), (0, 2, 1))
        parts.append(ad.add(world, ad.reshape(t, (B, 1, 3))))
    return ad.concatenate(parts, axis=1)


def screen_geometry(scene: ToolScene, base_rotation, base_translation, q):
    """Projected vertices (B, V, 2) (differentiable), plain depths (B, V)."""
    world = posed_vertices(scene, base_rotation, base_translation, q)
    xy, _ = render.project(scene.camera, world)
    return xy, ad._val(world)[..., 2]


def render_masks(scene: ToolScene, base_rotation, base_translation, q,
                 mode: str, sigma_r: float | None = None):
    """Batched silhouettes (B, H, W): binary union for "hard", differentiable
    soft coverage otherwise."""
    xy, depths = screen_geometry(scene, base_rotation, base_translation, q)
    cam = scene.camera
    valid = render.face_validity(depths, scene.faces, cam, mode)
    if mode == "hard":
        return render.hard_occupancy(ad._val(xy), scene.faces, valid, cam.width, cam.height)
    return render.soft_occupancy(xy, scene.faces, valid, cam.width, cam.height,
                                 sigma_r if sigma_r is not None else scene.sigma_r)


def keypoints_screen(scene: ToolScene, base_rotation, base_translation, q):
    """Projected keypoints (B, K, 2) (differentiable) plus behind flags."""
    pts = kin.keypoints_3d(scene.chain, base_rotation, base_translation, q)
    return render.project(scene.camera, pts)


# ---------------------------------------------------------------------------
# asset directory

def write_assets(out_dir, scene: ToolScene | None = None) -> Path:
    """Write the chain description plus mesh files; returns the chain path."""
    scene = scene or reference_scene()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, m in scene.meshes.items():
        meshmod.write_mesh(out / f"{name}.mesh", m)
    chain_path = out / CHAIN_FILE
    kin.write_chain(chain_path, scene.chain)
    return chain_path


def load_scene(chain_path, camera: render.PinholeCamera,
               base: se3.RigidTransform | None = None) -> ToolScene:
    chain_path = Path(chain_path)
    chain = kin.read_chain(chain_path)
    meshes = {}
    for joint in chain.joints:
        if joint.mesh is not None and joint.mesh not in meshes:
            meshes[joint.mesh] = meshmod.read_mesh(chain_path.parent / f"{joint.mesh}.mesh")
    return ToolScene(chain=chain, meshes=meshes, base=base or reference_base(), camera=camera)
