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


def weighted_sum(x, w):
    """sum(x * w) as one node, dual-mode: the scalar objective of a gradient
    check. The VJP to ``x`` is g * w."""
    xv = ad._val(x)
    grad = np.broadcast_to(w, xv.shape)
    parents = [x] if isinstance(x, ad.DiffValue) else []
    return ad.from_op(np.sum(xv * w), parents, lambda g: (g * grad,))


def frame_loss_of_raw(store, i, alpha, beta, gamma, k, squash="centered"):
    """Scalar weighted loss for frame ``i`` as a function of the (1, 10) raw
    (pre-squash) outputs; dual-mode for finite-difference checking."""
    sel = slice(i, i + 1)

    def f(raw):
        theta_hat = corrector.apply_correction(raw, store.theta_noisy[sel], k,
                                               store.scene.chain, squash)
        total, _ = corrector.pose_loss(
            store.scene, theta_hat, store.q_noisy_full[sel, :3], store.masks_ref[sel],
            store.keypoints[sel], store.q_true_full[sel, corrector.VISIBLE_SLICE],
            alpha, beta, gamma)
        return total
    return f
