import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from silgrad import scene, se3

from conftest import (allclose, compose, finite_diff_check, invert, rotation_about_axis,
                      weighted_sum)

RNG = np.random.default_rng(7)


def random_transform(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return se3.RigidTransform(Rotation.from_quat(q).as_matrix(), rng.normal(size=3) * 0.1)


def test_compose_identity():
    t = random_transform(RNG)
    assert allclose(compose(se3.RigidTransform.identity(), t), t)
    assert allclose(compose(t, se3.RigidTransform.identity()), t)


def test_compose_with_inverse_is_identity():
    for _ in range(50):
        t = random_transform(RNG)
        compose(t, invert(t)).validate()
        assert allclose(compose(t, invert(t)), se3.RigidTransform.identity(), atol=1e-9)


def test_compose_two_quarter_turns():
    rot90 = rotation_about_axis([0, 0, 1], np.pi / 2)
    a = se3.RigidTransform(rot90, [1.0, 0.0, 0.0])
    b = se3.RigidTransform(rot90, [0.0, 0.0, 0.0])
    out = compose(a, b)
    np.testing.assert_allclose(out.rotation, rotation_about_axis([0, 0, 1], np.pi), atol=1e-12)
    np.testing.assert_allclose(out.translation, [1.0, 0.0, 0.0], atol=1e-12)


def test_euler_identity_and_single_axis():
    assert allclose(se3.euler_to_transform(np.zeros(6)), se3.RigidTransform.identity())
    t = se3.euler_to_transform([np.pi / 2, 0, 0, 0, 0, 0])
    np.testing.assert_allclose(t.rotation, rotation_about_axis([0, 0, 1], np.pi / 2),
                               atol=1e-12)


def test_euler_matches_scipy_zyx_intrinsic():
    for _ in range(200):
        e = RNG.uniform(-np.pi, np.pi, 3)
        e[1] = RNG.uniform(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3)
        mine = se3.euler_to_matrix(e)
        ref = Rotation.from_euler("ZYX", e).as_matrix()
        np.testing.assert_allclose(mine, ref, atol=1e-12)


def test_euler_round_trip_1000_random_poses():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        e = np.array([rng.uniform(-np.pi, np.pi),
                      rng.uniform(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3),
                      rng.uniform(-np.pi, np.pi)])
        back, locked = se3.matrix_to_euler(se3.euler_to_matrix(e))
        assert not locked
        worst = max(worst, np.abs(back - e).max())
    assert worst < 1e-9


def test_gimbal_lock_flag_and_convention():
    e = np.array([0.4, np.pi / 2, 0.3])
    r = se3.euler_to_matrix(e)
    back, locked = se3.matrix_to_euler(r)
    assert locked
    assert back[0] == 0.0
    np.testing.assert_allclose(se3.euler_to_matrix(back), r, atol=1e-9)


def test_transform_euler_round_trip():
    for _ in range(100):
        t = random_transform(RNG)
        pose, locked = se3.transform_to_euler(t)
        if locked:
            continue
        assert abs(pose[1]) <= np.pi / 2
        assert allclose(se3.euler_to_transform(pose), t, atol=1e-9)


def test_wrap_angle():
    np.testing.assert_allclose(se3.wrap_angle(np.pi + 0.1), -np.pi + 0.1, atol=1e-12)
    np.testing.assert_allclose(se3.wrap_angle(-3 * np.pi), np.pi, atol=1e-12)
    np.testing.assert_allclose(se3.wrap_angle(0.5), 0.5)


def test_rotation_about_axis_batched_matches_scipy_rotvec():
    # three axes, one angle each per batch entry, in one stacked build
    axes = RNG.normal(size=(3, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    k = se3.skew(axes)
    th = RNG.uniform(-np.pi, np.pi, size=(4, 5, 3))
    batch = se3.axis_rotations(k, k @ k, th)
    assert batch.shape == (4, 5, 3, 3, 3)
    ref = Rotation.from_rotvec(th.reshape(-1, 3, 1) * axes).as_matrix()
    np.testing.assert_allclose(batch.reshape(-1, 3, 3), ref.reshape(-1, 3, 3), atol=1e-12)
    # each axis of the stack gives the bits of a build over that axis alone
    for m in range(3):
        np.testing.assert_array_equal(rotation_about_axis(axes[m], th[..., m]),
                                      batch[..., m, :, :])
        np.testing.assert_array_equal(rotation_about_axis(axes[m], th[1, 2, m]), batch[1, 2, m])


def test_euler_to_matrix_batched_matches_single():
    e = RNG.uniform(-np.pi, np.pi, size=(3, 4, 3))
    batch = se3.euler_to_matrix(e)
    assert batch.shape == (3, 4, 3, 3)
    for idx in np.ndindex(3, 4):
        np.testing.assert_array_equal(batch[idx], se3.euler_to_matrix(e[idx]))


def test_euler_to_matrix_gradients():
    # euler_to_matrix is plain numpy; the Euler-angle gradient of the posed,
    # projected points is a column of the geometry node's Jacobian
    sc = scene.reference_scene(64)
    pose, _ = se3.transform_to_euler(sc.base)
    e0 = pose[:3] + RNG.uniform(-0.2, 0.2, size=(2, 3))
    rest = np.tile(np.concatenate([pose[3:], [0.4, 0.1, -0.2, 0.5]]), (2, 1))
    q_first = np.array([[0.05, -0.05, 0.13]] * 2)
    w = RNG.normal(size=(2, len(sc.point_links), 2))

    def f(theta):
        xy, _ = scene.project_theta(sc, theta, q_first)
        return weighted_sum(xy, w)

    # theta is one leaf; its Euler angles are the first three columns
    rep = finite_diff_check(f, np.concatenate([e0, rest], axis=1), epsilon=1e-6,
                            tolerance=1e-6)
    assert rep.passed, rep
    assert np.count_nonzero(rep.analytic[:, :3]) == 6


def test_euler_vector_order_is_euler_then_translation():
    pose = np.array([0.1, 0.2, 0.3, 1.0, 2.0, 3.0])
    t = se3.euler_to_transform(pose)
    np.testing.assert_array_equal(t.rotation, se3.euler_to_matrix(pose[:3]))
    np.testing.assert_array_equal(t.translation, [1.0, 2.0, 3.0])
    back, locked = se3.transform_to_euler(t)
    assert not locked
    np.testing.assert_allclose(back, pose, atol=1e-12)


def test_validate_rejects_bad_rotation():
    t = se3.RigidTransform(np.eye(3) * 1.1, np.zeros(3))
    with pytest.raises(ValueError):
        t.validate()
