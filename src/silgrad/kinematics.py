"""Articulated chain description and forward kinematics.

The chain is a serial list of joints; each joint has a fixed offset applied
before its motion, so link ``i`` sits at
``base ∘ offset_0 ∘ motion_0 ∘ ... ∘ offset_i ∘ motion_i``.

:func:`forward_kinematics` is plain numpy and batched over joint values of
shape (..., J) and a base rotation/translation of shape (..., 3, 3)/(..., 3).
Everything that needs link poses (mesh vertices, keypoints, the end
effector) takes them from one :func:`forward_kinematics` call, so a rendered
pose costs one FK pass. A :class:`KinematicChain` builds its constant
arrays once, read-only: the joint limits, and each joint axis's skew matrix
and its square. :func:`forward_kinematics` turns every joint about its axis
in one :func:`se3.axis_rotations` call before it walks the chain. Gradients
through the chain come from the geometric Jacobian of ``scene.project_theta``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import se3

REVOLUTE = "revolute"
PRISMATIC = "prismatic"


@dataclass(frozen=True)
class Joint:
    name: str
    kind: str
    axis: np.ndarray
    offset: se3.RigidTransform
    lower: float
    upper: float
    mesh: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "axis", np.asarray(self.axis, dtype=float).reshape(3))


@dataclass(frozen=True)
class KeypointAnchor:
    joint_index: int
    point: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float).reshape(3))


@dataclass(frozen=True)
class KinematicChain:
    name: str
    joints: tuple[Joint, ...]
    keypoints: tuple[KeypointAnchor, ...] = field(default_factory=tuple)

    # read-only arrays, derived once from the joints
    lower_limits: np.ndarray = field(init=False, repr=False, compare=False)  # (J,)
    upper_limits: np.ndarray = field(init=False, repr=False, compare=False)  # (J,)
    axis_skews: np.ndarray = field(init=False, repr=False, compare=False)    # (J, 3, 3)
    axis_skews_sq: np.ndarray = field(init=False, repr=False, compare=False)  # (J, 3, 3)

    def __post_init__(self):
        object.__setattr__(self, "joints", tuple(self.joints))
        object.__setattr__(self, "keypoints", tuple(self.keypoints))
        k = se3.skew([j.axis for j in self.joints])
        derived = {"lower_limits": np.array([j.lower for j in self.joints], dtype=float),
                   "upper_limits": np.array([j.upper for j in self.joints], dtype=float),
                   "axis_skews": k, "axis_skews_sq": k @ k}
        for name, a in derived.items():
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def num_joints(self) -> int:
        return len(self.joints)


def forward_kinematics(chain: KinematicChain, base_rotation, base_translation, q):
    """Per-link poses for batched joint values.

    Returns a list of (rotation, translation) pairs, one per joint, shapes
    (..., 3, 3) and (..., 3); the last pair is the end-effector frame.
    """
    q = np.asarray(q, dtype=float)
    if q.shape[-1] != chain.num_joints:
        raise ValueError(
            f"joint vector has {q.shape[-1]} values, chain has {chain.num_joints} joints")
    batch = q.shape[:-1]
    rot = np.asarray(base_rotation, dtype=float)
    if rot.shape[-2:] != (3, 3):
        raise ValueError(f"base rotation must be (...,3,3), got {rot.shape}")

    # a base shared by the batch is broadcast, so every link has the batch shape
    r_acc = np.broadcast_to(rot, batch + (3, 3))
    t_acc = np.broadcast_to(np.asarray(base_translation, dtype=float), batch + (3,))
    # every joint's rotation about its axis, (..., J, 3, 3); a prismatic
    # joint's goes unused
    turns = se3.axis_rotations(chain.axis_skews, chain.axis_skews_sq, q)
    links = []
    for i, joint in enumerate(chain.joints):
        # r_pre/t_pre: pose of the joint frame before motion
        r_pre = r_acc @ joint.offset.rotation
        t_pre = (r_acc @ joint.offset.translation[:, None])[..., 0] + t_acc
        if joint.kind == REVOLUTE:
            r_acc = r_pre @ turns[..., i, :, :]
            t_acc = t_pre
        else:
            r_acc = r_pre
            t_acc = (r_pre @ (q[..., i, None] * joint.axis)[..., None])[..., 0] + t_pre
        links.append((r_acc, t_acc))
    return links


def keypoints_3d(chain: KinematicChain, links) -> np.ndarray:
    """Anchor points mapped through their owning link's pose, shape (..., K, 3).

    ``links`` is what :func:`forward_kinematics` returned for ``chain``.
    """
    return np.stack([(links[a.joint_index][0] @ a.point[:, None])[..., 0]
                     + links[a.joint_index][1] for a in chain.keypoints], axis=-2)


# ---------------------------------------------------------------------------
# reference chain: simplified 7-joint surgical manipulator

def reference_chain() -> KinematicChain:
    """Simplified patient-side manipulator, origin at the remote center of motion.

    Joint order and kinds follow the standard layout: two rocking joints and
    the insertion stage at the pivot, then roll / wrist pitch / wrist yaw /
    jaw along the instrument.
    """
    ident = se3.RigidTransform.identity()
    t = lambda z: se3.RigidTransform(np.eye(3), [0.0, 0.0, z])
    half_pi = np.pi / 2
    joints = (
        Joint("Outer Yaw", REVOLUTE, [0, 1, 0], ident, -half_pi, half_pi),
        Joint("Outer Pitch", REVOLUTE, [1, 0, 0], ident, -half_pi, half_pi),
        Joint("Insertion", PRISMATIC, [0, 0, 1], ident, 0.0, 0.24),
        Joint("Outer Roll", REVOLUTE, [0, 0, 1], ident, -np.pi, np.pi, mesh="shaft"),
        Joint("Wrist Pitch", REVOLUTE, [1, 0, 0], t(0.006), -half_pi, half_pi, mesh="wrist"),
        Joint("Wrist Yaw", REVOLUTE, [0, 1, 0], t(0.010), -half_pi, half_pi, mesh="jaw_static"),
        Joint("End Effector", REVOLUTE, [0, 1, 0], t(0.004), 0.0, 1.2, mesh="jaw_moving"),
    )
    keypoints = (
        KeypointAnchor(4, [0.0, 0.0, -0.020]),   # shaft point 20 mm above the wrist
        KeypointAnchor(3, [0.0, 0.0, 0.0]),      # roll frame origin
        KeypointAnchor(4, [0.0, 0.0, 0.0]),      # wrist pitch frame origin
        KeypointAnchor(5, [0.0, 0.0, 0.0]),      # wrist yaw frame origin
        KeypointAnchor(5, [0.0, 0.0, 0.014]),    # fixed jaw tip
        KeypointAnchor(6, [0.0, 0.0, 0.010]),    # moving jaw tip
    )
    return KinematicChain("psm_simplified", joints, keypoints)
