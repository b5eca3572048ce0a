import numpy as np
import pytest
from scipy import signal

from silgrad import kinematics as kin
from silgrad import metrics, se3

from conftest import compose

CHAIN = kin.reference_chain()
RNG = np.random.default_rng(17)


def make_series(n=90, tag="truth", seed=0, fs=30.0):
    rng = np.random.default_rng(seed)
    times = np.arange(n) / fs
    eul = rng.uniform(-0.5, 0.5, size=(1, 3)) + np.cumsum(
        rng.normal(0, 0.01, size=(n, 3)), axis=0)
    rot = np.array([se3.euler_to_matrix(e) for e in eul])
    trans = rng.uniform(-0.05, 0.05, size=(1, 3)) + np.cumsum(
        rng.normal(0, 0.0005, size=(n, 3)), axis=0)
    joints = rng.uniform(-0.5, 0.5, size=(1, 4)) + np.cumsum(
        rng.normal(0, 0.002, size=(n, 4)), axis=0)
    return metrics.PoseSeries(times, rot, trans, joints, tag)


# ----------------------------------------------------------------- hand-eye

def hand_eye(base, q_noisy, q_visible):
    """One frame's end-effector pose as series_from_params gives it: joints
    1-3 from ``q_noisy``, 4-7 from ``q_visible``."""
    pose, _ = se3.transform_to_euler(base)
    theta = np.concatenate([pose, q_visible])[None]
    s = metrics.series_from_params(CHAIN, theta, q_noisy[None], np.zeros(1), "x")
    return se3.RigidTransform(s.rotations[0], s.translations[0])


def compose_chain(base, q):
    """The end-effector pose as a product of rigid transforms, one offset and
    one motion per joint: a reference that does not run forward_kinematics."""
    acc = base
    for joint, qi in zip(CHAIN.joints, q):
        if joint.kind == kin.REVOLUTE:
            motion = se3.RigidTransform(se3.rotation_about_axis(joint.axis, qi), np.zeros(3))
        else:
            motion = se3.RigidTransform(np.eye(3), joint.axis * qi)
        acc = compose(compose(acc, joint.offset), motion)
    return acc


def test_hand_eye_zero_noise_is_exact():
    base = se3.RigidTransform(se3.rotation_about_axis([0, 1, 0], 0.4), [0.06, 0.05, 0.04])
    q = np.array([0.1, -0.2, 0.15, 0.5, 0.2, -0.3, 0.6])
    direct = compose_chain(base, q)
    he = hand_eye(base, q, q[3:7])
    np.testing.assert_allclose(he.rotation, direct.rotation, atol=1e-9)
    np.testing.assert_allclose(he.translation, direct.translation, atol=1e-9)


def test_hand_eye_identity_base_zero_joints():
    he = hand_eye(se3.RigidTransform.identity(), np.zeros(7), np.zeros(4))
    acc = se3.RigidTransform.identity()
    for j in CHAIN.joints:
        acc = compose(acc, j.offset)
    assert he.allclose(acc, atol=1e-12)


def test_hand_eye_isolates_single_noisy_joint():
    base = se3.RigidTransform(se3.rotation_about_axis([1, 0, 0], -0.3), [0.05, 0.03, 0.02])
    q_true = np.array([0.2, -0.1, 0.12, 0.3, 0.1, -0.2, 0.5])
    q_noisy = q_true.copy()
    q_noisy[0] += 0.01  # only joint 1 perturbed
    he = hand_eye(base, q_noisy, q_true[3:7])
    expect = compose_chain(base, q_noisy)
    np.testing.assert_allclose(he.translation, expect.translation, atol=1e-12)


# ------------------------------------------------------------------- filter

def test_biquad_matches_scipy_butterworth():
    b, a = metrics.butterworth_biquad(1.5, 30.0)
    b_ref, a_ref = signal.butter(2, 1.5, fs=30.0)
    np.testing.assert_allclose(b, b_ref, atol=1e-12)
    np.testing.assert_allclose(a, a_ref, atol=1e-12)


def test_filter_constant_series_unchanged_from_first_sample():
    s = make_series(n=60)
    const = metrics.PoseSeries(s.times, np.repeat(s.rotations[:1], 60, axis=0),
                               np.repeat(s.translations[:1], 60, axis=0),
                               np.repeat(s.joints[:1], 60, axis=0), "truth")
    out = metrics.lowpass(const, 1.5)
    np.testing.assert_allclose(out.translations, const.translations, atol=1e-12)
    np.testing.assert_allclose(out.rotations, const.rotations, atol=1e-9)
    np.testing.assert_allclose(out.joints, const.joints, atol=1e-12)


def test_lowpass_passes_one_frame_through():
    # one frame has no frame rate; the warm-started filter returns it as is
    s = make_series(n=1)
    out = metrics.lowpass(s, 1.5)
    for name in ("times", "rotations", "translations", "joints"):
        np.testing.assert_array_equal(getattr(out, name), getattr(s, name))
        assert getattr(out, name) is not getattr(s, name)


def test_filter_step_response_overshoot_below_5pct():
    b, a = metrics.butterworth_biquad(1.5, 30.0)
    x = np.zeros(300)
    x[10:] = 1.0
    y = metrics.filter_forward(x, b, a)
    assert y.max() < 1.05  # Butterworth zeta=0.707: ~4.3% overshoot
    assert y.max() > 1.01
    np.testing.assert_allclose(y[-1], 1.0, atol=1e-6)


def test_filter_white_noise_variance_attenuation():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(30000)
    b, a = metrics.butterworth_biquad(1.0, 30.0)
    y = metrics.filter_forward(x, b, a)
    assert y.var() < 0.15 * x.var()


def test_filter_linearity_on_translations():
    s1, s2 = make_series(seed=1), make_series(seed=2)
    a, b = 0.7, -1.3
    combo = metrics.PoseSeries(s1.times, s1.rotations,
                               a * s1.translations + b * s2.translations,
                               s1.joints, "truth")
    out = metrics.lowpass(combo, 1.5)
    expect = a * metrics.lowpass(s1, 1.5).translations \
        + b * metrics.lowpass(s2, 1.5).translations
    np.testing.assert_allclose(out.translations, expect, atol=1e-9)


def test_filter_rejects_cutoff_at_nyquist():
    with pytest.raises(ValueError, match="Nyquist"):
        metrics.lowpass(make_series(), 15.0)
    for cutoff in (0.0, np.nan):
        with pytest.raises(ValueError, match="cutoff_hz"):
            metrics.lowpass(make_series(), cutoff)


def test_spectral_attenuation_oracle_full_series():
    s = make_series(n=3000, seed=5)
    noisy = metrics.PoseSeries(s.times, s.rotations,
                               s.translations + np.random.default_rng(0).normal(
                                   0, 0.002, s.translations.shape),
                               s.joints, "noisy")
    out = metrics.lowpass(noisy, 1.0)
    resid_in = noisy.translations - s.translations
    resid_out = out.translations - metrics.lowpass(s, 1.0).translations
    assert resid_out.var() < 0.15 * resid_in.var()


# ------------------------------------------------------------------ metrics

def test_rmse_exact_match_and_reductions():
    truth = make_series(seed=11)
    noisy = metrics.PoseSeries(truth.times, truth.rotations,
                               truth.translations + 0.001, truth.joints + 0.01, "noisy")
    rep = metrics.evaluate_series([truth], [truth], [noisy], cutoff_hz=None)
    for axis in metrics.TABLE_AXES["translation"]:
        assert rep.mean("translation", "rmse", axis) == 0.0
        np.testing.assert_allclose(rep.mean("translation", "reduction", axis), 100.0)
    rep2 = metrics.evaluate_series([noisy], [truth], [noisy], cutoff_hz=None)
    for axis in metrics.TABLE_AXES["joints"]:
        np.testing.assert_allclose(rep2.mean("joints", "reduction", axis), 0.0, atol=1e-9)


def test_evaluate_series_rejects_unpaired_lists():
    t = make_series(seed=11)
    with pytest.raises(ValueError):
        metrics.evaluate_series([t], [t, t], [t, t], cutoff_hz=None)


def test_rmse_nrmse_worked_example():
    # truth [1,2,3] vs pred [1,2,4] on one translation axis (in mm)
    times = np.arange(3) / 30.0
    rot = np.repeat(np.eye(3)[None], 3, axis=0)
    joints = np.zeros((3, 4))
    truth = metrics.PoseSeries(times, rot, np.array([[1, 0, 0], [2, 0, 0], [3, 0, 0]]) / 1e3,
                               joints, "truth")
    pred = metrics.PoseSeries(times, rot, np.array([[1, 0, 0], [2, 0, 0], [4, 0, 0]]) / 1e3,
                              joints, "corrected")
    m = metrics.trajectory_metrics(pred, truth, truth)
    np.testing.assert_allclose(m["translation"]["rmse"][0], np.sqrt(1 / 3), atol=1e-12)
    np.testing.assert_allclose(m["translation"]["nrmse"][0], np.sqrt(1 / 3) / 2 * 100,
                               atol=1e-9)


def test_metric_formulas_match_bruteforce_loops():
    rng = np.random.default_rng(8)
    for _ in range(10):
        truth = make_series(seed=rng.integers(1e6))
        pred = metrics.PoseSeries(truth.times, truth.rotations,
                                  truth.translations + rng.normal(0, 1e-3, (90, 3)),
                                  truth.joints + rng.normal(0, 1e-2, (90, 4)), "x")
        m = metrics.trajectory_metrics(pred, truth, pred)
        # brute-force translation RMSE per axis and overall
        for ax in range(3):
            acc = 0.0
            for i in range(90):
                acc += ((pred.translations[i, ax] - truth.translations[i, ax]) * 1000) ** 2
            np.testing.assert_allclose(m["translation"]["rmse"][ax],
                                       np.sqrt(acc / 90), atol=1e-12)
        acc = 0.0
        for i in range(90):
            d = (pred.translations[i] - truth.translations[i]) * 1000
            acc += d[0] ** 2 + d[1] ** 2 + d[2] ** 2
        np.testing.assert_allclose(m["translation"]["rmse"][3], np.sqrt(acc / 90),
                                   atol=1e-12)
        # joints pooled RMSE
        acc = 0.0
        for i in range(90):
            for j in range(4):
                acc += np.rad2deg(pred.joints[i, j] - truth.joints[i, j]) ** 2
        np.testing.assert_allclose(m["joints"]["rmse"][4], np.sqrt(acc / 360), atol=1e-12)


def test_rotation_errors_use_shortest_arc():
    times = np.arange(2) / 30.0
    rot_t = np.array([se3.euler_to_matrix([0.0, 0.0, 3.1]) for _ in range(2)])
    rot_p = np.array([se3.euler_to_matrix([0.0, 0.0, -3.1]) for _ in range(2)])
    truth = metrics.PoseSeries(times, rot_t, np.zeros((2, 3)), np.zeros((2, 4)), "truth")
    pred = metrics.PoseSeries(times, rot_p, np.zeros((2, 3)), np.zeros((2, 4)), "p")
    m = metrics.trajectory_metrics(pred, truth, pred)
    # wrapped difference is 2pi - 6.2 ~ 0.083 rad, not 6.2 rad
    np.testing.assert_allclose(m["rotation"]["rmse"][0],
                               np.rad2deg(2 * np.pi - 6.2), atol=1e-9)


def test_zero_range_nrmse_is_nan():
    times = np.arange(5) / 30.0
    rot = np.repeat(np.eye(3)[None], 5, axis=0)
    truth = metrics.PoseSeries(times, rot, np.zeros((5, 3)), np.zeros((5, 4)), "truth")
    m = metrics.trajectory_metrics(truth, truth, truth)
    assert np.isnan(m["translation"]["nrmse"][0])


# ------------------------------------------------------------------- series

def test_pose_csv_round_trip(tmp_path):
    s1 = make_series(seed=4, n=40)
    s1.iters = np.arange(40)
    s2 = make_series(seed=6, n=30)
    s2.iters = np.ones(30, int)
    path = tmp_path / "pose.csv"
    metrics.write_pose_csv(path, [s1, s2])
    back = metrics.read_pose_csv(path)
    assert len(back) == 2 and len(back[0]) == 40 and len(back[1]) == 30
    np.testing.assert_allclose(back[0].translations, s1.translations, atol=1e-12)
    np.testing.assert_allclose(back[0].rotations, s1.rotations, atol=1e-9)
    np.testing.assert_allclose(back[1].joints, s2.joints, atol=1e-12)
    np.testing.assert_array_equal(back[0].iters, s1.iters)
    assert (path.read_text().splitlines()[0]) == metrics.CSV_HEADER


def test_pose_csv_rejects_other_headers(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        metrics.read_pose_csv(p)


def test_series_from_params_matches_hand_eye():
    base = se3.RigidTransform(se3.rotation_about_axis([0, 1, 0], 0.3), [0.05, 0.04, 0.03])
    pose, _ = se3.transform_to_euler(base)
    q_noisy = RNG.uniform(-0.3, 0.3, size=(5, 7))
    theta = np.concatenate([np.tile(pose, (5, 1)),
                            q_noisy[:, 3:7] + 0.01], axis=1)
    s = metrics.series_from_params(CHAIN, theta, q_noisy, np.arange(5) / 30.0, "corrected")
    he = compose_chain(base, np.concatenate([q_noisy[2, :3], theta[2, 6:10]]))
    np.testing.assert_allclose(s.translations[2], he.translation, atol=1e-9)
    np.testing.assert_allclose(s.rotations[2], he.rotation, atol=1e-9)

