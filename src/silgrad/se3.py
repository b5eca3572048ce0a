"""Rigid transforms and Euler-pose parametrization.

Convention, used everywhere in this package: Euler angles are intrinsic
Z-Y-X, stored as a 3-vector ``(z, y, x)`` in radians, so the rotation matrix
is ``Rz(e0) @ Ry(e1) @ Rx(e2)``. The canonical pitch (Y angle) lies in
[-pi/2, pi/2].

Besides the plain numpy API, :func:`rotation_about_axis_diff` and
:func:`euler_to_matrix_diff` accept autodiff values with arbitrary leading
batch shape, which is how the correction pipeline differentiates through
base-pose parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

_ORTHO_TOL = 1e-9


def skew(v: np.ndarray) -> np.ndarray:
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation about a unit axis (plain numpy)."""
    k = skew(np.asarray(axis, dtype=float))
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


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


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """a then b applied in a's frame: rotation Ra@Rb, translation Ra@tb + ta."""
    return RigidTransform(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def invert(t: RigidTransform) -> RigidTransform:
    rt = t.rotation.T
    return RigidTransform(rt, -rt @ t.translation)


@dataclass(frozen=True)
class EulerPose:
    """6-D pose: intrinsic Z-Y-X Euler angles (rad) and translation (m)."""

    euler: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "euler", np.asarray(self.euler, dtype=float).reshape(3))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float).reshape(3))

    def as_vector(self) -> np.ndarray:
        """10-D parametrization prefix order: 3 Euler then 3 translation."""
        return np.concatenate([self.euler, self.translation])

    @staticmethod
    def from_vector(v: np.ndarray) -> "EulerPose":
        v = np.asarray(v, dtype=float).reshape(6)
        return EulerPose(v[:3], v[3:])


def euler_to_matrix(euler: np.ndarray) -> np.ndarray:
    a, b, c = np.asarray(euler, dtype=float)
    rz = rotation_about_axis([0.0, 0.0, 1.0], a)
    ry = rotation_about_axis([0.0, 1.0, 0.0], b)
    rx = rotation_about_axis([1.0, 0.0, 0.0], c)
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


def euler_to_transform(pose: EulerPose) -> RigidTransform:
    return RigidTransform(euler_to_matrix(pose.euler), pose.translation)


def transform_to_euler(t: RigidTransform) -> tuple[EulerPose, bool]:
    angles, locked = matrix_to_euler(t.rotation)
    return EulerPose(angles, t.translation), locked


def wrap_angle(a):
    """Wrap to (-pi, pi]."""
    return -((-np.asarray(a) + np.pi) % (2.0 * np.pi) - np.pi)


# ---------------------------------------------------------------------------
# dual-mode (autodiff-aware) rotation builders

_EYE3 = np.eye(3)
_AXES = {
    "x": np.array([1.0, 0.0, 0.0]),
    "y": np.array([0.0, 1.0, 0.0]),
    "z": np.array([0.0, 0.0, 1.0]),
}


def rotation_about_axis_diff(axis: np.ndarray, theta):
    """Rodrigues rotation for a fixed axis and batched angle.

    ``theta`` has shape (...,); result has shape (..., 3, 3). Works on plain
    arrays or DiffValues.
    """
    k = skew(np.asarray(axis, dtype=float))
    kk = k @ k
    shp = tuple(np.shape(ad._val(theta))) + (1, 1)
    th = ad.reshape(theta, shp)
    return ad.add(ad.add(_EYE3, ad.mul(ad.sin(th), k)),
                  ad.mul(ad.sub(1.0, ad.cos(th)), kk))


def euler_to_matrix_diff(euler):
    """Batched differentiable Z-Y-X intrinsic Euler to rotation.

    ``euler`` has shape (..., 3); result (..., 3, 3).
    """
    rz = rotation_about_axis_diff(_AXES["z"], ad.take(euler, (..., 0)))
    ry = rotation_about_axis_diff(_AXES["y"], ad.take(euler, (..., 1)))
    rx = rotation_about_axis_diff(_AXES["x"], ad.take(euler, (..., 2)))
    return ad.matmul(ad.matmul(rz, ry), rx)
