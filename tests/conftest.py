import numpy as np
import pytest

from silgrad import autodiff as ad
from silgrad import corrector, scene, synth


@pytest.fixture(scope="session")
def scene64():
    return scene.reference_scene(64)


@pytest.fixture(scope="session")
def tiny_train(tmp_path_factory, scene64):
    root = tmp_path_factory.mktemp("data") / "train"
    return synth.generate_dataset(root, "train", trajectories=2, duration_s=2.0,
                                  seed=101, scene=scene64)


@pytest.fixture(scope="session")
def tiny_val(tmp_path_factory, scene64):
    root = tmp_path_factory.mktemp("data") / "val"
    return synth.generate_dataset(root, "val", trajectories=1, duration_s=2.0,
                                  seed=202, scene=scene64)


@pytest.fixture(scope="session")
def tiny_store(tiny_train):
    return corrector.build_frame_store(tiny_train)


def frame_loss_of_raw(store, i, alpha, beta, gamma, k, squash="centered"):
    """Scalar weighted loss for frame ``i`` as a function of the 10 raw
    (pre-squash) outputs; dual-mode for finite-difference checking."""
    def f(raw):
        raw_b = ad.reshape(raw, (1, 10))
        theta_hat = corrector.apply_correction(raw_b, store.theta_noisy[i:i + 1],
                                               k, store.scene.chain, squash)
        s_hat, kp_hat = corrector.render_corrected(store.scene, theta_hat,
                                                   store.q_noisy_full[i:i + 1, :3])
        lr_part = corrector.loss_render(s_hat, store.masks_ref[i:i + 1].astype(float))
        lk_part = corrector.loss_keypoints(kp_hat, store.keypoints[i:i + 1])
        lj_part = corrector.loss_joint(
            ad.take(theta_hat, (..., slice(6, 10))),
            store.q_true_full[i:i + 1, corrector.VISIBLE_SLICE])
        total = corrector.loss_total(alpha, beta, gamma, lr_part, lk_part, lj_part)
        return ad.reduce_sum(total)
    return f
