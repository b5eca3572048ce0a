import numpy as np
import pytest

from silgrad import baseline as bl
from silgrad import corrector, se3


def truth_params(store, i):
    pose, _ = se3.transform_to_euler(store.base_true)
    return np.concatenate([pose, store.q_true_full[i, corrector.VISIBLE_SLICE]])


def test_config_validation():
    with pytest.raises(ValueError):
        bl.BaselineConfig(max_iterations=0)
    for bad in (-1.0, np.nan, np.inf, True, "30"):
        with pytest.raises(ValueError, match="loss_threshold"):
            bl.BaselineConfig(loss_threshold=bad)
    for bad in (np.nan, -0.05, np.inf, False, None):
        with pytest.raises(ValueError, match="beta"):
            bl.BaselineConfig(beta=bad)
    for bad in (np.full(10, np.nan), np.zeros(10), -np.ones(10), np.ones(9), np.ones((2, 10)),
                ['a'] * 10):
        with pytest.raises(ValueError, match="step_scale"):
            bl.BaselineConfig(step_scale=bad)
    for bad in (2.5, 6.0, True):
        with pytest.raises(ValueError, match="max_iterations"):
            bl.BaselineConfig(max_iterations=bad)


def test_init_at_truth_terminates_first_iteration(tiny_store):
    store = tiny_store
    i = 5
    theta, iters, loss, failed = bl.optimize_frame(
        store.scene, truth_params(store, i), store.masks_ref[i],
        store.keypoints[i], store.q_true_full[i, :3], bl.BaselineConfig())
    assert iters == 1
    assert not failed
    assert loss <= bl.default_threshold(store.scene.camera)


def test_iteration_cap_honored(tiny_store):
    store = tiny_store
    cfg = bl.BaselineConfig(max_iterations=7, loss_threshold=1e-9)
    theta, iters, loss, failed = bl.optimize_frame(
        store.scene, store.theta_noisy[0], store.masks_ref[0],
        store.keypoints[0], store.q_noisy_full[0, :3], cfg)
    assert iters == 7


def test_best_so_far_never_worse_than_init(tiny_store):
    store = tiny_store
    cfg = bl.BaselineConfig(max_iterations=30)
    for i in (0, 9, 17):
        init = store.theta_noisy[i]
        alpha, thr = cfg.resolve(store.scene.camera)
        init_loss, _ = bl._loss_and_grad(store.scene, init, store.q_noisy_full[i, :3],
                                         store.masks_ref[i].astype(float),
                                         store.keypoints[i], alpha, cfg.beta)
        theta, iters, loss, failed = bl.optimize_frame(
            store.scene, init, store.masks_ref[i], store.keypoints[i],
            store.q_noisy_full[i, :3], cfg)
        assert loss <= init_loss + 1e-12


def test_rejects_nonfinite_init(tiny_store):
    store = tiny_store
    bad = store.theta_noisy[0].copy()
    bad[2] = np.nan
    with pytest.raises(ValueError):
        bl.optimize_frame(store.scene, bad, store.masks_ref[0], store.keypoints[0],
                          store.q_noisy_full[0, :3], bl.BaselineConfig())


def test_nonfinite_loss_counts_as_failure(tiny_store):
    # a NaN pixel far from the tool makes the loss NaN while the gradient,
    # which only reads pixels near the outline, stays finite
    store = tiny_store
    m_ref = store.masks_ref[0].astype(float)
    m_ref[0, 0] = np.nan
    cfg = bl.BaselineConfig(max_iterations=20)
    theta, iters, loss, failed = bl.optimize_frame(
        store.scene, store.theta_noisy[0], m_ref, store.keypoints[0],
        store.q_noisy_full[0, :3], cfg)
    assert failed
    assert iters == 1
    np.testing.assert_array_equal(theta, store.theta_noisy[0])


@pytest.mark.parametrize("name", ["theta", "joints", "mask", "keypoints"])
def test_track_trajectory_names_nonfinite_frame(tiny_store, name):
    store = tiny_store
    inputs = {"theta": store.theta_noisy[:3].copy(), "joints": store.q_noisy_full[:3].copy(),
              "mask": store.masks_ref[:3].astype(float), "keypoints": store.keypoints[:3].copy()}
    inputs[name][1].flat[5] = np.nan
    with pytest.raises(ValueError, match=f"frame 1: non-finite {name}"):
        bl.track_trajectory(store.scene, inputs["theta"], inputs["joints"], inputs["mask"],
                            inputs["keypoints"], bl.BaselineConfig())


def test_local_convergence_translation_only(tiny_store):
    # noiseless frame perturbed 5 mm in translation: recover to < 1 mm
    store = tiny_store
    i = 3
    true = truth_params(store, i)
    init = true.copy()
    init[3:6] += np.array([0.003, -0.003, 0.002])
    cfg = bl.BaselineConfig(max_iterations=400, loss_threshold=0.0)
    theta, iters, loss, failed = bl.optimize_frame(
        store.scene, init, store.masks_ref[i], store.keypoints[i],
        store.q_true_full[i, :3], cfg)
    err = np.linalg.norm(theta[3:6] - true[3:6])
    assert err < 1e-3, f"residual translation error {err*1000:.2f} mm"


def test_track_trajectory_zero_noise_single_iterations(scene64, tmp_path):
    from silgrad import synth
    ds = synth.generate_dataset(tmp_path / "z", "val", 1, 1.0, seed=4, scene=scene64,
                                noise=synth.NoiseSpec(np.zeros(3), np.zeros(3), np.zeros(7)))
    store = corrector.build_frame_store(ds)
    thetas, iters, losses, flags = bl.track_trajectory(
        store.scene, store.theta_noisy, store.q_noisy_full, store.masks_ref,
        store.keypoints, bl.BaselineConfig())
    assert np.all(iters == 1)
    assert not flags.any()


def test_track_trajectory_warm_start_front_loaded(tiny_store):
    store = tiny_store
    sel = store.traj_of == 0
    thetas, iters, losses, flags = bl.track_trajectory(
        store.scene, store.theta_noisy[sel], store.q_noisy_full[sel],
        store.masks_ref[sel], store.keypoints[sel], bl.BaselineConfig())
    assert iters[0] > iters[1:].mean()
    assert iters[1:].mean() < bl.BaselineConfig().max_iterations / 4
    thr = bl.default_threshold(store.scene.camera)
    assert (losses <= thr).mean() >= 0.9


def test_warm_start_reduces_total_iterations(tiny_store):
    store = tiny_store
    sel = np.flatnonzero(store.traj_of == 0)[:20]
    cfg = bl.BaselineConfig()
    _, warm_iters, _, _ = bl.track_trajectory(
        store.scene, store.theta_noisy[sel], store.q_noisy_full[sel],
        store.masks_ref[sel], store.keypoints[sel], cfg)
    cold_total = 0
    for i in sel:
        _, it, _, _ = bl.optimize_frame(store.scene, store.theta_noisy[i],
                                        store.masks_ref[i], store.keypoints[i],
                                        store.q_noisy_full[i, :3], cfg)
        cold_total += it
    assert warm_iters.sum() < cold_total
