"""Rigid transforms and Euler-pose parametrization.

Convention, used everywhere in this package: Euler angles are intrinsic
Z-Y-X, stored as a 3-vector ``(z, y, x)`` in radians, so the rotation matrix
is ``Rz(e0) @ Ry(e1) @ Rx(e2)``. The canonical pitch (Y angle) lies in
[-pi/2, pi/2]. A pose is the 6-vector ``[z, y, x angles, translation in m]``,
the first six entries of the correction pipeline's 10-D configuration.

The module is plain numpy. The rotation builders :func:`rotation_about_axis`
and :func:`euler_to_matrix` are batched over any leading shape. Gradients
with respect to the Euler angles come from the geometric Jacobian of
``scene.project_theta``, not from this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EYE3 = np.eye(3)


def skew(v: np.ndarray) -> np.ndarray:
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rotation_about_axis(axis: np.ndarray, theta):
    """Rodrigues rotation for a fixed unit axis and batched angle.

    ``theta`` has shape (...,); result has shape (..., 3, 3).
    """
    k = skew(np.asarray(axis, dtype=float))
    th = np.asarray(theta, dtype=float)[..., None, None]
    return _EYE3 + np.sin(th) * k + (1.0 - np.cos(th)) * (k @ k)


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

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform points of shape (..., 3)."""
        p = np.asarray(points, dtype=float)
        return p @ self.rotation.T + self.translation

    def allclose(self, other: "RigidTransform", atol: float = 1e-9) -> bool:
        return (np.allclose(self.rotation, other.rotation, atol=atol)
                and np.allclose(self.translation, other.translation, atol=atol))


def euler_to_matrix(euler):
    """Batched Z-Y-X intrinsic Euler angles to rotation.

    ``euler`` has shape (..., 3); result (..., 3, 3).
    """
    e = np.asarray(euler, dtype=float)
    rz = rotation_about_axis([0.0, 0.0, 1.0], e[..., 0])
    ry = rotation_about_axis([0.0, 1.0, 0.0], e[..., 1])
    rx = rotation_about_axis([1.0, 0.0, 0.0], e[..., 2])
    return rz @ ry @ rx


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
