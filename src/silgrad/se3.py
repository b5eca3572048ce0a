"""Rigid transforms and Euler-pose parametrization.

Convention, used everywhere in this package: Euler angles are intrinsic
Z-Y-X, stored as a 3-vector ``(z, y, x)`` in radians, so the rotation matrix
is ``Rz(e0) @ Ry(e1) @ Rx(e2)``. The canonical pitch (Y angle) lies in
[-pi/2, pi/2]. A pose is the 6-vector ``[z, y, x angles, translation in m]``,
the first six entries of the correction pipeline's 10-D configuration.

The module is plain numpy. It holds the one Rodrigues formula,
:func:`axis_rotations`, which turns a stack of unit axes by one batched angle
each in one expression. It takes the axes' skew matrices (:func:`skew`) and
their squares, which a caller builds once: the kinematic chain for its
joints, this module for the three Euler axes. :func:`euler_to_matrix` is
batched over any leading shape. Gradients with respect to the Euler angles
come from the geometric Jacobian of ``scene.project_theta``, not from this
module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EYE3 = np.eye(3)


def skew(v) -> np.ndarray:
    """Skew matrices [v]x of vectors ``v`` (..., 3), shape (..., 3, 3)."""
    x, y, z = np.moveaxis(np.asarray(v, dtype=float), -1, 0)
    o = np.zeros_like(x)
    return np.stack([np.stack([o, -z, y], axis=-1), np.stack([z, o, -x], axis=-1),
                     np.stack([-y, x, o], axis=-1)], axis=-2)


def axis_rotations(k: np.ndarray, kk: np.ndarray, theta) -> np.ndarray:
    """Rodrigues rotations I + sin(theta) K + (1 - cos(theta)) K^2 about M
    unit axes, from their skew matrices ``k`` (M, 3, 3) and ``kk`` = k @ k.

    ``theta`` has shape (..., M), one angle per axis; result (..., M, 3, 3).
    """
    th = np.asarray(theta, dtype=float)[..., None, None]
    return _EYE3 + np.sin(th) * k + (1.0 - np.cos(th)) * kk


# the Euler factors' axes in angle order, e_z, e_y, e_x, built once
_EULER_K = skew(np.eye(3)[::-1])
_EULER_KK = _EULER_K @ _EULER_K
_EULER_K.setflags(write=False)
_EULER_KK.setflags(write=False)


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) pose: 3x3 orthonormal rotation plus translation in meters."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float).reshape(3, 3))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float).reshape(3))

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def validate(self) -> None:
        r = self.rotation
        if not np.allclose(r.T @ r, np.eye(3), atol=1e-8):
            raise ValueError("rotation is not orthonormal")
        if not np.isclose(np.linalg.det(r), 1.0, atol=1e-8):
            raise ValueError("rotation determinant is not +1")


def euler_to_matrix(euler):
    """Batched Z-Y-X intrinsic Euler angles to rotation.

    ``euler`` has shape (..., 3); result (..., 3, 3).
    """
    r = axis_rotations(_EULER_K, _EULER_KK, euler)
    return r[..., 0, :, :] @ r[..., 1, :, :] @ r[..., 2, :, :]


def matrix_to_euler(r: np.ndarray) -> tuple[np.ndarray, bool]:
    """Extract canonical Z-Y-X angles; returns (angles, gimbal_lock_flag).

    At |pitch| = pi/2 the Z angle is set to 0 and the X angle absorbs the
    remaining rotation.
    """
    r = np.asarray(r, dtype=float)
    sb = -r[2, 0]
    sb = np.clip(sb, -1.0, 1.0)
    b = np.arcsin(sb)
    if abs(sb) >= 1.0 - 1e-12:
        a = 0.0
        if sb > 0:
            c = float(np.arctan2(r[0, 1], r[0, 2]))
        else:
            c = float(np.arctan2(-r[0, 1], -r[0, 2]))
        return np.array([a, b, c]), True
    a = float(np.arctan2(r[1, 0], r[0, 0]))
    c = float(np.arctan2(r[2, 1], r[2, 2]))
    return np.array([a, float(b), c]), False


def euler_to_transform(pose: np.ndarray) -> RigidTransform:
    """Transform from a 6-vector pose ``[z, y, x angles, translation]``."""
    pose = np.asarray(pose, dtype=float)
    return RigidTransform(euler_to_matrix(pose[:3]), pose[3:])


def transform_to_euler(t: RigidTransform) -> tuple[np.ndarray, bool]:
    """6-vector pose ``[z, y, x angles, translation]`` and the gimbal flag."""
    angles, locked = matrix_to_euler(t.rotation)
    return np.concatenate([angles, t.translation]), locked


def wrap_angle(a):
    """Wrap to (-pi, pi]."""
    return -((-np.asarray(a) + np.pi) % (2.0 * np.pi) - np.pi)
