"""Per-frame iterative pose correction by gradient descent.

Each frame optimizes the 10-D parametrization (base Euler pose + visible
joints) against the corrector's objective, ``corrector.pose_loss``, with a
zero joint weight: no joint truth is available to this method. Raw gradients
mix units, so updates take fixed per-coordinate steps along the gradient sign
(angles ~step*1e-2 rad, translations ~step*1e-3 m), with a decaying factor
when the loss worsens. Each iteration records four nodes: the (1, 10) leaf
and the three of ``pose_loss``, the pose geometry, the soft raster and the
loss.

Within a trajectory, each frame is warm-started from the previous frame's
base estimate while the joint half restarts from the frame's own noisy
reading (joint noise is white; the base error is persistent).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import corrector, vit
from .scene import ToolScene

_STEP_SIZE = 0.5
_STEP_SCALE = np.array([1e-2] * 3 + [1e-3] * 3 + [1e-2] * 4)
_DECAY = 0.8
_MIN_FACTOR = 0.05


def default_threshold(camera) -> float:
    """Convergence threshold, scaled from the 150-at-640x480 reference.

    Scaling follows the silhouette perimeter (proportional to image side),
    not the area: the soft-vs-binary edge-band residual of the render term
    grows with boundary length, and an area scaling would drop the threshold
    below that irreducible floor at small resolutions. At 64 px the default
    (34.3) is ~6.6x the mean perfect-pose loss (5.2 over the 120 frames of
    two 2 s reference-scene trajectories), so it stops more than aligned
    frames: with the default :class:`BaselineConfig`, 50 of the 60 frames
    of four 15-frame trajectories (data seed 101) stop at iteration 1, at
    64 px and at 128 px. The benchmark therefore runs ``loss_threshold=0``
    with a fixed iteration budget.
    """
    return 2.0 * 150.0 * (camera.width + camera.height) / (640.0 + 480.0)


@dataclass
class BaselineConfig:
    max_iterations: int = 100
    loss_threshold: float | None = None   # None: scaled default for the camera
    step_scale: np.ndarray = field(default_factory=lambda: _STEP_SCALE.copy())
    beta: float = corrector.BETA

    def __post_init__(self):
        if not vit.is_count(self.max_iterations):
            raise ValueError(f"max_iterations must be an integer of at least 1, "
                             f"got {self.max_iterations!r}")
        thr = self.loss_threshold
        if thr is not None and not (vit.is_real(thr) and 0 <= thr < np.inf):
            raise ValueError(f"loss_threshold must be a finite nonnegative number, got {thr!r}")
        try:
            scale = np.asarray(self.step_scale, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"step_scale must be 10 finite positive values: {exc}") from None
        if scale.shape != (10,) or not np.all((scale > 0) & (scale < np.inf)):
            raise ValueError("step_scale must be 10 finite positive values")
        if not (vit.is_real(self.beta) and 0 <= self.beta < np.inf):
            raise ValueError(f"beta must be a finite nonnegative number, got {self.beta!r}")

    def resolve(self, camera) -> tuple[float, float]:
        """(alpha, threshold): the corrector's silhouette weight and the
        loss threshold, defaulted for the camera when unset."""
        thr = self.loss_threshold if self.loss_threshold is not None \
            else default_threshold(camera)
        return corrector.default_loss_weights(camera)[0], thr


def _loss_and_grad(scene: ToolScene, theta: np.ndarray, q_first3: np.ndarray,
                   m_ref: np.ndarray, kp_ref: np.ndarray, alpha: float, beta: float):
    """The frame's loss and its gradient w.r.t. ``theta``: the corrector's
    objective with gamma = 0, whose joint term compares the estimate with
    itself and so adds nothing."""
    tape = ad.Tape()
    th = ad.leaf(tape, theta[None])
    total, _ = corrector.pose_loss(scene, th, q_first3[None], m_ref[None], kp_ref[None],
                                   theta[None, 6:10], alpha, beta, 0.0)
    return float(ad._val(total)), ad.backward(total)[th.nid][0]


def optimize_frame(scene: ToolScene, init: np.ndarray, m_ref: np.ndarray,
                   kp_ref: np.ndarray, q_first3: np.ndarray,
                   config: BaselineConfig) -> tuple[np.ndarray, int, float, bool]:
    """Returns (best parameters, iterations used, best loss, failed flag).

    A loss or gradient that is not finite ends the frame as failed: the loss
    is a function of the parameters alone, so evaluating again would not help.
    """
    if not np.all(np.isfinite(init)):
        raise ValueError("initial parameters must be finite")
    alpha, threshold = config.resolve(scene.camera)
    chain = scene.chain
    lo = chain.lower_limits[corrector.VISIBLE_SLICE]
    hi = chain.upper_limits[corrector.VISIBLE_SLICE]

    theta = np.asarray(init, dtype=float).copy()
    m_ref = np.asarray(m_ref, dtype=float)
    best_theta, best_loss = theta.copy(), np.inf
    factor = 1.0
    prev_loss = np.inf
    iterations = 0

    for it in range(1, config.max_iterations + 1):
        iterations = it
        loss, grad = _loss_and_grad(scene, theta, q_first3, m_ref, kp_ref,
                                    alpha, config.beta)
        if loss < best_loss:
            best_loss, best_theta = loss, theta.copy()
        if loss <= threshold:
            return best_theta, iterations, best_loss, False
        if not (np.isfinite(loss) and np.all(np.isfinite(grad))):
            return best_theta, iterations, best_loss, True
        if loss > prev_loss:
            factor = max(factor * _DECAY, _MIN_FACTOR)
        prev_loss = loss
        theta = theta - _STEP_SIZE * factor * config.step_scale * np.sign(grad)
        theta[6:10] = np.clip(theta[6:10], lo, hi)
    return best_theta, iterations, best_loss, False


def track_trajectory(scene: ToolScene, theta_noisy: np.ndarray,
                     q_noisy_full: np.ndarray, masks_ref: np.ndarray,
                     keypoints_ref: np.ndarray,
                     config: BaselineConfig | None = None):
    """Sequential per-frame optimization with warm starting.

    theta_noisy: (N, 10) noisy parametrization per frame; masks_ref: (N,H,W);
    keypoints_ref: (N,6,2). Returns (theta series (N,10), iteration counts,
    final losses, failure flags). Raises ValueError naming the first frame
    with a non-finite input.
    """
    config = config or BaselineConfig()
    n = len(theta_noisy)
    inputs = {"theta": theta_noisy, "joints": q_noisy_full, "mask": masks_ref,
              "keypoints": keypoints_ref}
    bad = np.stack([~np.isfinite(a).reshape(n, -1).all(axis=1) for a in inputs.values()])
    frames = np.flatnonzero(bad.any(axis=0))
    if len(frames):
        names = [k for k, b in zip(inputs, bad[:, frames[0]]) if b]
        raise ValueError(f"frame {frames[0]}: non-finite {' and '.join(names)}")
    out = np.empty((n, 10))
    iters = np.empty(n, dtype=int)
    losses = np.empty(n)
    flags = np.zeros(n, dtype=bool)
    for t in range(n):
        init = theta_noisy[t].astype(float)
        if t:
            init[:6] = out[t - 1, :6]  # the base error persists; joint noise is white
        out[t], iters[t], losses[t], flags[t] = optimize_frame(
            scene, init, masks_ref[t].astype(float), keypoints_ref[t],
            q_noisy_full[t, :3], config)
    return out, iters, losses, flags
