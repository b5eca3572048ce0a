import numpy as np
import pytest

from silgrad import autodiff as ad
from silgrad import corrector, scene, se3, synth


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


# ---------------------------------------------------------------------------
# the tests' references: gradients by central differences, and rigid
# transforms composed one at a time (the reference forward kinematics)

class FiniteDiffReport:
    """Comparison of tape gradients against central finite differences."""

    def __init__(self, analytic, numeric, rel_error, tolerance):
        self.analytic = analytic
        self.numeric = numeric
        self.rel_error = rel_error
        self.max_rel_error = float(np.max(rel_error)) if rel_error.size else 0.0
        self.tolerance = tolerance
        self.passed = bool(self.max_rel_error < tolerance)

    def __repr__(self):
        status = "pass" if self.passed else "FAIL"
        return f"FiniteDiffReport(max_rel_error={self.max_rel_error:.3e}, {status})"


def finite_diff_check(f, x0, epsilon=1e-5, tolerance=1e-6) -> FiniteDiffReport:
    """Check the tape gradient of ``f`` at ``x0`` against central differences.

    ``f`` must be dual-mode: called with a DiffValue it returns a scalar
    DiffValue; called with a plain array it returns a plain scalar.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    x0 = np.asarray(x0, dtype=np.float64)
    tape = ad.Tape()
    x = ad.leaf(tape, x0)
    out = f(x)
    grads = ad.backward(out)
    analytic = np.asarray(grads.get(x.nid, np.zeros_like(x0)), dtype=np.float64).ravel()

    flat = x0.ravel()
    numeric = np.zeros_like(flat)
    with np.errstate(all="ignore"):
        for i in range(flat.size):
            probe = flat.copy()
            probe[i] = flat[i] + epsilon
            hi = np.asarray(ad._val(f(probe.reshape(x0.shape)))).item()
            probe[i] = flat[i] - epsilon
            lo = np.asarray(ad._val(f(probe.reshape(x0.shape)))).item()
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise FloatingPointError(f"f non-finite at probe for coordinate {i}")
            numeric[i] = (hi - lo) / (2.0 * epsilon)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    return FiniteDiffReport(analytic.reshape(x0.shape), numeric.reshape(x0.shape),
                            rel.reshape(x0.shape), tolerance)


def compose(a: se3.RigidTransform, b: se3.RigidTransform) -> se3.RigidTransform:
    """a then b applied in a's frame: rotation Ra@Rb, translation Ra@tb + ta."""
    return se3.RigidTransform(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def invert(t: se3.RigidTransform) -> se3.RigidTransform:
    rt = t.rotation.T
    return se3.RigidTransform(rt, -rt @ t.translation)


def apply(t: se3.RigidTransform, points) -> np.ndarray:
    """Points (..., 3) transformed by ``t``."""
    return np.asarray(points, dtype=float) @ t.rotation.T + t.translation


def allclose(a: se3.RigidTransform, b: se3.RigidTransform, atol: float = 1e-9) -> bool:
    return (np.allclose(a.rotation, b.rotation, atol=atol)
            and np.allclose(a.translation, b.translation, atol=atol))


def rotation_about_axis(axis, theta) -> np.ndarray:
    """Rotations about one unit axis by batched angles (...,), (..., 3, 3):
    se3.axis_rotations over a stack of that one axis."""
    k = se3.skew(axis)[None]
    return se3.axis_rotations(k, k @ k, np.asarray(theta, dtype=float)[..., None])[..., 0, :, :]


def two_branch_sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function in two masked branches, the reference that
    autodiff.stable_sigmoid matches bit for bit."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
