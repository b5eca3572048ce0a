"""Articulated chain description and differentiable forward kinematics.

The chain is a serial list of joints; each joint has a fixed offset applied
before its motion, so link ``i`` sits at
``base ∘ offset_0 ∘ motion_0 ∘ ... ∘ offset_i ∘ motion_i``.

:func:`forward_kinematics` is dual-mode and batched: joint values of shape
(..., J) and base rotation/translation of shape (..., 3, 3)/(..., 3) may be
plain arrays or DiffValues, and gradients flow to both. Everything that
needs link poses (mesh vertices, keypoints, the end effector) takes them from
one :func:`forward_kinematics` call, so a rendered pose costs one FK pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
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

    def __post_init__(self):
        object.__setattr__(self, "joints", tuple(self.joints))
        object.__setattr__(self, "keypoints", tuple(self.keypoints))

    def validate(self) -> None:
        for j in self.joints:
            if j.kind not in (REVOLUTE, PRISMATIC):
                raise ValueError(f"joint {j.name}: unknown kind {j.kind!r}")
            numbers = np.concatenate([j.offset.rotation.ravel(), j.offset.translation,
                                      j.axis, [j.lower, j.upper]])
            if not np.isfinite(numbers).all():
                raise ValueError(f"joint {j.name}: non-finite offset, axis or limit")
            if abs(np.linalg.norm(j.axis) - 1.0) > 1e-9:
                raise ValueError(f"joint {j.name}: axis is not unit-norm")
            if not j.lower < j.upper:
                raise ValueError(f"joint {j.name}: empty limit interval")
        for k in self.keypoints:
            if not 0 <= k.joint_index < len(self.joints):
                raise ValueError(f"keypoint references joint {k.joint_index} out of range")
            if not np.isfinite(k.point).all():
                raise ValueError(f"keypoint on joint {k.joint_index}: non-finite point")

    @property
    def num_joints(self) -> int:
        return len(self.joints)

    @property
    def lower_limits(self) -> np.ndarray:
        return np.array([j.lower for j in self.joints])

    @property
    def upper_limits(self) -> np.ndarray:
        return np.array([j.upper for j in self.joints])


def forward_kinematics(chain: KinematicChain, base_rotation, base_translation, q):
    """Per-link poses for batched joint values.

    Returns a list of (rotation, translation) pairs, one per joint, shapes
    (..., 3, 3) and (..., 3); the last pair is the end-effector frame.
    """
    qv = ad._val(q)
    if qv.shape[-1] != chain.num_joints:
        raise ValueError(
            f"joint vector has {qv.shape[-1]} values, chain has {chain.num_joints} joints")
    batch = qv.shape[:-1]
    rot = ad._val(base_rotation)
    if rot.shape[-2:] != (3, 3):
        raise ValueError(f"base rotation must be (...,3,3), got {rot.shape}")

    r_acc, t_acc = base_rotation, base_translation
    links = []
    for i, joint in enumerate(chain.joints):
        qi = ad.take(q, (..., i))
        ro, to = joint.offset.rotation, joint.offset.translation
        # r_pre/t_pre: pose of the joint frame before motion
        r_pre = ad.matmul(r_acc, ro)
        t_pre = ad.add(_rotate_vec(r_acc, to), t_acc)
        if joint.kind == REVOLUTE:
            rm = se3.rotation_about_axis(joint.axis, qi)
            r_acc = ad.matmul(r_pre, rm)
            t_acc = t_pre
        else:
            disp = ad.mul(ad.reshape(qi, batch + (1,)), joint.axis)
            r_acc = r_pre
            t_acc = ad.add(_rotate_vec(r_pre, disp), t_pre)
        links.append((_ensure_batch(r_acc, batch, (3, 3)),
                      _ensure_batch(t_acc, batch, (3,))))
    return links


def _ensure_batch(x, batch, trailing):
    """Broadcast to full batch shape so callers can index links uniformly."""
    want = batch + trailing
    if tuple(ad._val(x).shape) == want:
        return x
    return ad.broadcast_to(x, want)


def _rotate_vec(r, v):
    """(..., 3, 3) @ (..., 3) -> (..., 3); either side may be constant."""
    vv = ad._val(v)
    shp = tuple(vv.shape) + (1,)
    out = ad.matmul(r, ad.reshape(v, shp))
    return ad.reshape(out, tuple(ad._val(out).shape[:-1]))


def keypoints_3d(chain: KinematicChain, links):
    """Anchor points mapped through their owning link's pose, shape (..., K, 3).

    ``links`` is what :func:`forward_kinematics` returned for ``chain``.
    """
    pts = []
    for anchor in chain.keypoints:
        r, t = links[anchor.joint_index]
        pts.append(ad.add(_rotate_vec(r, anchor.point), t))
    return ad.stack(pts, axis=-2)


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
    chain = KinematicChain("psm_simplified", joints, keypoints)
    chain.validate()
    return chain
