import numpy as np
import pytest

from silgrad import kinematics as kin
from silgrad import scene as scenemod
from silgrad import se3

from conftest import compose, finite_diff_check, weighted_sum

RNG = np.random.default_rng(31)


@pytest.fixture(scope="module")
def chain():
    return kin.reference_chain()


def random_config(chain, rng, n=1):
    lo, hi = chain.lower_limits, chain.upper_limits
    return rng.uniform(lo, hi, size=(n, chain.num_joints))


def fk_single(chain, base, q):
    links = kin.forward_kinematics(chain, base.rotation[None], base.translation[None],
                                   np.asarray(q)[None])
    return [(r[0], t[0]) for r, t in links]


def keypoints_single(chain, base, q):
    links = kin.forward_kinematics(chain, base.rotation[None], base.translation[None],
                                   np.asarray(q)[None])
    return kin.keypoints_3d(chain, links)[0]


def test_reference_chain_layout(chain):
    assert chain.num_joints == 7
    kinds = [j.kind for j in chain.joints]
    assert kinds == ["revolute", "revolute", "prismatic",
                     "revolute", "revolute", "revolute", "revolute"]
    names = [j.name for j in chain.joints]
    assert names == ["Outer Yaw", "Outer Pitch", "Insertion", "Outer Roll",
                     "Wrist Pitch", "Wrist Yaw", "End Effector"]
    for j in chain.joints:
        assert j.kind in (kin.REVOLUTE, kin.PRISMATIC)
        assert np.isfinite(np.concatenate([j.offset.rotation.ravel(), j.offset.translation,
                                           j.axis, [j.lower, j.upper]])).all()
        assert abs(np.linalg.norm(j.axis) - 1.0) <= 1e-9
        assert j.lower < j.upper
    assert len(chain.keypoints) == 6
    for k in chain.keypoints:
        assert 0 <= k.joint_index < chain.num_joints
        assert np.isfinite(k.point).all()


def test_zero_config_gives_cumulative_offsets(chain):
    base = se3.RigidTransform.identity()
    links = fk_single(chain, base, np.zeros(7))
    acc = se3.RigidTransform.identity()
    for joint, (r, t) in zip(chain.joints, links):
        acc = compose(acc, joint.offset)
        np.testing.assert_allclose(r, acc.rotation, atol=1e-12)
        np.testing.assert_allclose(t, acc.translation, atol=1e-12)


def test_insertion_translates_along_axis(chain):
    base = se3.RigidTransform.identity()
    q0 = np.zeros(7)
    q1 = np.zeros(7)
    q1[2] = 0.05
    t0 = fk_single(chain, base, q0)[-1][1]
    t1 = fk_single(chain, base, q1)[-1][1]
    np.testing.assert_allclose(t1 - t0, [0.0, 0.0, 0.05], atol=1e-12)


def test_fk_equivariance_under_base_motion(chain):
    rng = np.random.default_rng(5)
    delta = se3.RigidTransform(se3.rotation_about_axis([0.3, 0.5, 0.81], 0.7),
                               [0.02, -0.01, 0.03])
    base = se3.RigidTransform(se3.rotation_about_axis([0, 1, 0], 0.4), [0.1, 0.0, 0.05])
    moved = compose(delta, base)
    q = random_config(chain, rng)[0]
    links_a = fk_single(chain, moved, q)
    links_b = fk_single(chain, base, q)
    for (ra, ta), (rb, tb) in zip(links_a, links_b):
        np.testing.assert_allclose(ra, delta.rotation @ rb, atol=1e-9)
        np.testing.assert_allclose(ta, delta.rotation @ tb + delta.translation, atol=1e-9)


def test_fk_batched_matches_loop(chain):
    base = kin.se3.RigidTransform(se3.rotation_about_axis([0, 1, 0], 0.3), [0.05, 0.02, 0.04])
    qs = random_config(chain, RNG, n=8)
    batched = kin.forward_kinematics(chain, base.rotation[None], base.translation[None], qs)
    for i in range(8):
        single = fk_single(chain, base, qs[i])
        for li in range(chain.num_joints):
            np.testing.assert_allclose(batched[li][0][i], single[li][0], atol=1e-12)
            np.testing.assert_allclose(batched[li][1][i], single[li][1], atol=1e-12)


def test_fk_wrong_length_raises(chain):
    with pytest.raises(ValueError, match="joints"):
        kin.forward_kinematics(chain, np.eye(3)[None], np.zeros(3)[None], np.zeros((1, 6)))


def test_keypoint_at_link_origin_equals_link_translation(chain):
    base = se3.RigidTransform.identity()
    q = random_config(chain, RNG)[0]
    links = fk_single(chain, base, q)
    pts = keypoints_single(chain, base, q)
    # anchors 1..3 are frame origins of joints 3..5
    np.testing.assert_allclose(pts[1], links[3][1], atol=1e-12)
    np.testing.assert_allclose(pts[2], links[4][1], atol=1e-12)
    np.testing.assert_allclose(pts[3], links[5][1], atol=1e-12)


def test_keypoints_rigid_equivariance(chain):
    q = random_config(chain, RNG)[0]
    base = se3.RigidTransform.identity()
    delta = se3.RigidTransform(se3.rotation_about_axis([0, 0, 1], 1.1), [0.01, 0.02, 0.03])
    pts = keypoints_single(chain, base, q)
    moved = keypoints_single(chain, delta, q)
    np.testing.assert_allclose(moved, pts @ delta.rotation.T + delta.translation, atol=1e-9)


# Forward kinematics is plain numpy; its gradients reach the configuration
# through the geometry node, whose points are posed by this module's FK.

@pytest.fixture(scope="module")
def tool_scene():
    return scenemod.reference_scene(64)


def _base_pose(tool_scene):
    pose, _ = se3.transform_to_euler(tool_scene.base)
    return (pose + [0.2, -0.1, 0.1, 0.0, 0.0, 0.0])[None]


Q_FIRST = np.array([[0.05, -0.05, 0.12]])


def test_fk_gradient_wrt_joints_matches_finite_differences(tool_scene):
    # theta is one leaf: the base pose, then the joints
    theta0 = np.concatenate([_base_pose(tool_scene), [[0.5, 0.2, -0.4, 0.6]]], axis=1)
    w = RNG.normal(size=(1, len(tool_scene.point_links), 2))

    def f(theta):
        xy, _ = scenemod.project_theta(tool_scene, theta, Q_FIRST)
        return weighted_sum(xy, w)

    rep = finite_diff_check(f, theta0, epsilon=1e-6, tolerance=1e-6)
    assert rep.passed, rep
    assert np.count_nonzero(rep.analytic[0, 6:]) == 4


def test_fk_gradient_wrt_base_euler_pose(tool_scene):
    # the keypoints, the last k points, weighted; the vertices weigh nothing
    theta0 = np.concatenate([_base_pose(tool_scene), [[0.3, 0.2, -0.1, 0.4]]], axis=1)
    k = len(tool_scene.chain.keypoints)
    w = np.zeros((1, len(tool_scene.point_links), 2))
    w[:, -k:] = RNG.normal(size=(1, k, 2))

    def f(theta):
        xy, _ = scenemod.project_theta(tool_scene, theta, Q_FIRST)
        return weighted_sum(xy, w)

    rep = finite_diff_check(f, theta0, epsilon=1e-6, tolerance=1e-6)
    assert rep.passed, rep
    assert np.count_nonzero(rep.analytic[0, :6]) == 6


def test_every_eef_coordinate_differentiable(tool_scene):
    # the moving jaw tip, the last keypoint, in both image coordinates
    theta0 = np.concatenate([_base_pose(tool_scene), [[-0.5, 0.3, 0.2, 0.7]]], axis=1)
    for coord in range(2):
        w = np.zeros((1, len(tool_scene.point_links), 2))
        w[0, -1, coord] = 1.0

        def f(theta, w=w):
            xy, _ = scenemod.project_theta(tool_scene, theta, Q_FIRST)
            return weighted_sum(xy, w)

        rep = finite_diff_check(f, theta0, epsilon=1e-6, tolerance=1e-6)
        assert rep.passed, (coord, rep)
