"""Tool scene: kinematic chain, link meshes, camera, and canonical base pose.

The canonical base places the manipulator pivot up-left of the optical axis
with the instrument pointing at a work center ~14 cm in front of the camera,
so sampled configurations keep the articulated head inside the view.

:func:`posed_points`, the one posing path, runs forward kinematics once per
pose. :func:`render_points` rasterizes a whole projected point array, whose
faces index the vertex rows alone, and :func:`render_pose` poses, projects
and rasterizes in plain numpy. :func:`project_theta` maps 10-D
configurations to projected points as one autodiff node, whose VJP is the
geometric Jacobian of posing and projection. :func:`geometry_digest`
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
    point_links: np.ndarray = field(init=False)    # (V + K,) link of each posed point
    face_parts: np.ndarray = field(init=False)     # (T,) mesh of each face, by vert_slices index
    face_edges: np.ndarray = field(init=False)     # (T, 3) render.face_edges of faces

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
        object.__setattr__(self, "face_parts",
                           np.repeat(np.arange(len(faces)), [len(f) for f in faces]))
        object.__setattr__(self, "face_edges", render.face_edges(self.faces))
        links = [np.full(hi - lo, ji) for ji, lo, hi in slices]
        object.__setattr__(self, "point_links", np.concatenate(
            links + [[k.joint_index for k in self.chain.keypoints]]))

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
# batched geometry

def posed_points(scene: ToolScene, base_rotation, base_translation, q):
    """Link poses and camera-frame points (B, V + K, 3) from one forward
    kinematics pass: the mesh vertices in ``vert_slices`` order, then the
    keypoints."""
    links = kin.forward_kinematics(scene.chain, base_rotation, base_translation, q)
    parts = []
    for ji, lo, hi in scene.vert_slices:
        r, t = links[ji]
        parts.append(np.transpose(r @ scene.verts_local[lo:hi].T, (0, 2, 1))
                     + t.reshape(-1, 1, 3))
    parts.append(kin.keypoints_3d(scene.chain, links))
    return links, np.concatenate(parts, axis=1)


def render_points(scene: ToolScene, xy, depth: np.ndarray, mode: str):
    """Silhouettes (B, H, W) of projected points (B, V + K, 2) with depths
    (B, V + K): binary union for "hard", soft coverage for "soft". The faces
    index the vertex rows alone. ``xy`` may be the node
    :func:`project_theta` records; the soft raster is then a node too, whose
    VJP is zero on the keypoint rows."""
    cam = scene.camera
    valid = render.face_validity(depth, scene.faces, cam, mode)
    if mode == "hard":
        return render.hard_occupancy(xy, scene.faces, valid, cam.width, cam.height)
    return render.soft_occupancy(xy, scene.faces, scene.face_edges, scene.face_parts,
                                 valid, cam.width, cam.height, scene.sigma_r)


def render_pose(scene: ToolScene, base_rotation, base_translation, q, mode: str):
    """Silhouettes (B, H, W) and projected keypoints (B, K, 2) at plain base
    poses and joint values, from one forward-kinematics pass."""
    _, world = posed_points(scene, base_rotation, base_translation, q)
    xy = render.project(scene.camera, world)
    return render_points(scene, xy, world[..., 2], mode), xy[:, len(scene.verts_local):]


def render_masks(scene: ToolScene, base_rotation, base_translation, q, mode: str):
    """The silhouettes of :func:`render_pose` alone."""
    return render_pose(scene, base_rotation, base_translation, q, mode)[0]


def project_theta(scene: ToolScene, theta, q_first3: np.ndarray):
    """Projected points (B, V + K, 2), as :func:`posed_points` orders them,
    and their depths (B, V + K) at configurations ``theta`` (B, 10): base
    Euler angles (z, y, x), base translation, and the joints that follow the
    reading ``q_first3`` (B, 3). With ``theta`` on a tape the points are one
    node, whose VJP is g · J with J from :func:`_theta_jacobian`."""
    th = ad._val(theta)
    rot = se3.euler_to_matrix(th[:, :3])
    q = np.concatenate([np.asarray(q_first3, dtype=np.float64), th[:, 6:]], axis=1)
    links, world = posed_points(scene, rot, th[:, 3:6], q)
    xy = render.project(scene.camera, world)
    if isinstance(theta, ad.DiffValue):
        jac = _theta_jacobian(scene, th, rot, links, world)
        xy = ad.from_op(xy, [theta], lambda g: (np.einsum("bnk,bnkj->bj", g, jac),))
    return xy, world[..., 2]


def _theta_jacobian(scene: ToolScene, theta: np.ndarray, rot: np.ndarray, links,
                    world: np.ndarray) -> np.ndarray:
    """d(projected point)/dθ, (B, N, 2, 10), at the N posed points ``world``.

    Space Jacobian (Lynch & Park, Modern Robotics, 2017, §5.1): an Euler
    angle or a revolute joint turns the points it moves about an axis a
    through an origin o, dp = a × (p − o); a prismatic joint gives dp = a.
    The angles turn all points about e_z, Rz e_y and Rz Ry e_x = R e_x
    through the base origin; joint i turns those on links ≥ i. Projection
    with z = max(Z, near) gives du = fx / z (dX − X / z dZ), dv likewise,
    with dZ = 0 where Z < near.
    """
    chain, cam = scene.chain, scene.camera
    b, n = world.shape[:2]
    yaw, joints = theta[:, 0], range(chain.num_joints - (theta.shape[1] - 6), chain.num_joints)
    # one column per turning coordinate: the three angles, then the joints
    axes = np.stack([np.broadcast_to([0.0, 0.0, 1.0], (b, 3)),
                     np.stack([-np.sin(yaw), np.cos(yaw), np.zeros(b)], axis=1), rot[:, :, 0]]
                    + [links[i][0] @ chain.joints[i].axis for i in joints], axis=1)  # (B, C, 3)
    origins = np.stack([theta[:, 3:6]] * 3 + [links[i][1] for i in joints], axis=1)
    # the angles move the points of every link, 0 on; joint i those of links >= i
    moves = scene.point_links[:, None] >= np.array([0, 0, 0, *joints])  # (N, C)
    slides = np.array([False] * 3 + [chain.joints[i].kind == kin.PRISMATIC for i in joints])
    # a × r per component, in np.cross's order; (B, N, C, 3)
    a, r = axes[:, None], world[:, :, None] - origins[:, None]
    turn = np.stack([a[..., 1] * r[..., 2] - a[..., 2] * r[..., 1],
                     a[..., 2] * r[..., 0] - a[..., 0] * r[..., 2],
                     a[..., 0] * r[..., 1] - a[..., 1] * r[..., 0]], axis=-1)
    dp = np.where(slides[:, None], axes[:, None], turn) * moves[..., None]
    # columns in θ order: Euler angles, translation, joints; (B, N, 10, 3)
    dp = np.concatenate([dp[:, :, :3], np.broadcast_to(np.eye(3), (b, n, 3, 3)),
                         dp[:, :, 3:]], axis=2)
    x, y, depth = np.moveaxis(world, -1, 0)
    z = np.maximum(depth, cam.near)[..., None]
    dz = dp[..., 2] * (depth >= cam.near)[..., None]
    return np.stack([cam.fx * (dp[..., 0] - x[..., None] / z * dz),
                     cam.fy * (dp[..., 1] - y[..., None] / z * dz)], axis=2) / z[..., None]
