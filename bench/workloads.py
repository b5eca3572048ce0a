"""The benchmark's workloads: train, correct and track.

A workload has a set-up (generate its split, load it, initialise), a round
(the timed operation, always run whole) and checks on a round's outputs.
The frames each workload runs on come from fixed data seeds, so every run
times the same frames: per-frame cost follows how many pixels the tool
covers, and one trajectory's frames cost about 1.5x another's, so frames
drawn from ``--seed`` would make the runs differ by their data, not by the
code. ``--seed`` drives everything else that is random: the ViT weights, the
batch order, and the draws the checks make.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass

import numpy as np

import checks
from silgrad import autodiff as ad
from silgrad import baseline, corrector, metrics, scene, se3, synth, vit

# data seeds of the fixed splits (see README.md)
TRAIN_DATA_SEED = 101
VAL_DATA_SEED = 202
CORRECT_DATA_SEED = 303
TRACK_DATA_SEED = 404

SIZES = {
    "full": {
        "train": {"trajectories": 1, "frames": 60, "val_trajectories": 1, "val_frames": 30,
                  "epochs": 1},
        "correct": {"trajectories": 2, "frames": 60},
        "track": {"trajectories": 3, "frames": 2, "iterations": 6, "checked_frames": 2},
    },
    "smoke": {
        "train": {"trajectories": 1, "frames": 10, "val_trajectories": 1, "val_frames": 10,
                  "epochs": 1},
        "correct": {"trajectories": 1, "frames": 4},
        "track": {"trajectories": 1, "frames": 3, "iterations": 8, "checked_frames": 1},
    },
}


def digest(arrays) -> str:
    """SHA-256 of the arrays' float64 bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


@dataclass
class Round:
    frames: int           # frames attempted
    failed: int           # frames that gave no usable output
    digest: str           # of the seeded outputs
    output: dict          # what the checks read
    latencies: np.ndarray  # seconds of each operation, in order


def pose_errors(store, theta: np.ndarray) -> list[dict]:
    """Per trajectory, end-effector RMSE of ``theta`` and of the noisy input
    against the truth: {"translation": (mm, noisy mm), "rotation": (deg,
    noisy deg), "joints": (deg, noisy deg)}."""
    chain = store.scene.chain
    rows = []
    for i in range(int(store.traj_of.max()) + 1):
        sel = store.traj_of == i
        times, q_noisy = store.times[sel], store.q_noisy_full[sel]
        truth = metrics.truth_series(chain, store.base_true, store.q_true_full[sel], times)
        noisy = metrics.series_from_params(chain, store.theta_noisy[sel], q_noisy, times,
                                           "noisy")
        pred = metrics.series_from_params(chain, theta[sel], q_noisy, times, "method")
        m = metrics.trajectory_metrics(pred, truth, noisy)
        rows.append({key: (float(m[key]["rmse"][-1]), float(m[key]["rmse_noisy"][-1]))
                     for key in ("translation", "rotation", "joints")})
    return rows


def _generate(out, split, trajectories, frames, seed, scene_):
    shutil.rmtree(out, ignore_errors=True)
    # duration only names the split; frames_per_trajectory fixes its length
    return synth.generate_dataset(out, split, trajectories, frames / synth.FRAME_RATE,
                                  seed, scene=scene_, frames_per_trajectory=frames)


class _Workload:
    """Set-up, warm-up, round, errors and checks of one workload; ``size``
    is its entry of SIZES."""

    def __init__(self, size: dict, seed: int, data_dir):
        self.size, self.seed, self.data_dir = size, seed, data_dir

    def errors(self, out: dict) -> list[dict]:
        """Per-trajectory pose errors of a round's output."""
        return pose_errors(self.store, out["theta"])


class Train(_Workload):
    """``corrector.train`` for a fixed number of epochs on a 64 px split."""

    name = "train"

    def setup(self) -> None:
        s = self.size
        sc = scene.reference_scene(64)
        self.train_ds = _generate(self.data_dir / "train", "train", s["trajectories"],
                                  s["frames"], TRAIN_DATA_SEED, sc)
        self.val_ds = _generate(self.data_dir / "val", "val", s["val_trajectories"],
                                s["val_frames"], VAL_DATA_SEED, sc)
        self.cfg = corrector.TrainConfig(epochs=s["epochs"], seed=self.seed)

    def warmup(self) -> None:
        self.store = corrector.build_frame_store(self.train_ds)
        self.val_store = corrector.build_frame_store(self.val_ds)
        k = corrector.default_scale(self.store.scene.chain)
        w = vit.init_weights(self.cfg.vit_config, synth.rng_stream(self.seed, 0))
        tape = ad.Tape()
        total, _ = corrector.batch_loss(
            self.cfg.vit_config, {n: ad.leaf(tape, v) for n, v in w.items()},
            self.store, np.arange(min(self.cfg.batch_size, len(self.store))), k,
            corrector.default_loss_weights(self.store.scene.camera)[0], self.cfg.beta,
            self.cfg.gamma, self.cfg.squash)
        ad.backward(total)

    def round(self) -> Round:
        frames = len(self.store) * self.cfg.epochs
        t0 = time.perf_counter()
        try:
            model, log = corrector.train(self.train_ds, self.val_ds, self.cfg, log_fn=None)
        except FloatingPointError:
            return Round(frames, frames, "", {}, np.array([time.perf_counter() - t0]))
        return Round(frames, 0, digest(model.weights[n] for n in sorted(model.weights)),
                     {"model": model, "log": log}, np.array([time.perf_counter() - t0]))

    def errors(self, out: dict) -> list[dict]:
        """Pose errors of the trained corrector on the whole validation split."""
        return pose_errors(self.val_store, corrector.infer(out["model"], self.val_store))

    def check(self, out: dict, rng: np.random.Generator) -> dict:
        model, cfg, store = out["model"], self.cfg, self.store
        idx = rng.choice(len(store), size=min(cfg.batch_size, len(store)), replace=False)

        def batch_loss(w):
            return corrector.batch_loss(cfg.vit_config, w, store, idx, model.k, model.alpha,
                                        model.beta, model.gamma, model.squash)[0]

        # the loss as a function of one flat weight vector
        names = sorted(model.weights)
        shapes = [model.weights[n].shape for n in names]
        cuts = np.cumsum([int(np.prod(shape)) for shape in shapes])[:-1]

        def loss(x):
            parts = np.split(x, cuts)
            return float(batch_loss({n: p.reshape(sh) for n, p, sh in zip(names, parts, shapes)}))

        tape = ad.Tape()
        leaves = {n: ad.leaf(tape, model.weights[n]) for n in names}
        grads = ad.backward(batch_loss(leaves))
        gradient = np.concatenate([grads[leaves[n].nid].ravel() for n in names])
        direction = rng.standard_normal(gradient.size)
        direction /= np.linalg.norm(direction)
        analytic = float(gradient @ direction)
        x0 = np.concatenate([model.weights[n].ravel() for n in names])
        numeric = checks.check_gradient(loss, x0, [direction], [analytic], 1e-4,
                                        "batch loss along a random direction")

        weights = {n: rng.standard_normal((3, 4)) for n in ("a", "b")}
        state = corrector.AdamState(m={n: np.zeros_like(w) for n, w in weights.items()},
                                    v={n: np.zeros_like(w) for n, w in weights.items()})
        ref_w, ref_m, ref_v = dict(weights), dict(state.m), dict(state.v)
        for t in range(1, 4):
            grads_t = {n: rng.standard_normal(w.shape) for n, w in weights.items()}
            corrector.adam_step(weights, grads_t, state, cfg.lr, cfg.weight_decay)
            ref_w, ref_m, ref_v = checks.reference_adam(ref_w, grads_t, ref_m, ref_v, t,
                                                        cfg.lr, cfg.weight_decay)
            checks.check_close_dicts(weights, ref_w, 1e-12, f"adam_step {t}")
        return {"directional_derivative": [analytic, float(numeric[0])],
                "val_total": [rec["val"]["total"] for rec in out["log"]]}


class Correct(_Workload):
    """The real-time loop at 64 px: one caller, one frame at a time."""

    name = "correct"

    def setup(self) -> None:
        s = self.size
        ds = _generate(self.data_dir / "correct", "correct", s["trajectories"],
                       s["frames"], CORRECT_DATA_SEED, scene.reference_scene(64))
        self.store = st = corrector.build_frame_store(ds)
        self.scene = st.scene
        self.rot_noisy = np.array([se3.euler_to_matrix(t[:3]) for t in st.theta_noisy])
        self.config = vit.VitConfig()
        # seeded, untrained weights: time does not depend on their values; the
        # head is drawn too, so that corrections are not all zero
        rng = synth.rng_stream(self.seed, 0)
        self.weights = vit.init_weights(self.config, rng)
        self.weights["head3.w"] = rng.normal(0.0, 0.02, self.weights["head3.w"].shape)
        self.k = corrector.default_scale(self.scene.chain)

    def warmup(self) -> None:
        self.round()

    def _frame(self, i: int):
        st, sc = self.store, self.scene
        sl = slice(i, i + 1)
        predicted = scene.render_masks(sc, self.rot_noisy[sl], st.theta_noisy[sl, 3:6],
                                       st.q_noisy_full[sl], "hard")
        stacked = corrector.stack_mask_channels(st.masks_ref[sl], predicted)
        raw = vit.forward(self.config, self.weights, stacked, st.theta_noisy[sl] / self.k)
        theta = corrector.apply_correction(raw, st.theta_noisy[sl], self.k, sc.chain)
        pose = metrics.series_from_params(sc.chain, theta, st.q_noisy_full[sl],
                                          st.times[sl], "corrected")
        return predicted[0], theta[0], pose

    def round(self) -> Round:
        n = len(self.store)
        masks, thetas = [], np.empty((n, 10))
        rotations, translations = np.empty((n, 3, 3)), np.empty((n, 3))
        latencies = np.empty(n)
        for i in range(n):
            t0 = time.perf_counter()
            mask, thetas[i], pose = self._frame(i)
            latencies[i] = time.perf_counter() - t0
            masks.append(mask)
            rotations[i], translations[i] = pose.rotations[0], pose.translations[0]
        failed = int((~np.isfinite(thetas).all(axis=1)).sum())
        return Round(n, failed, digest([thetas]),
                     {"masks": masks, "theta": thetas, "rotations": rotations,
                      "translations": translations}, latencies)

    def check(self, out: dict, rng: np.random.Generator) -> dict:
        st, sc = self.store, self.scene
        for i, mask in enumerate(out["masks"]):
            base = checks.theta_base(st.theta_noisy[i])
            xy, depth = checks.screen_vertices(sc, base, st.q_noisy_full[i])
            checks.check_hard_mask(mask, xy, depth, sc.faces, sc.camera)
        vis = corrector.VISIBLE_SLICE
        checks.check_correction(out["theta"], st.theta_noisy, self.k,
                                sc.chain.lower_limits[vis], sc.chain.upper_limits[vis])
        checks.check_end_effector(sc.chain, out["theta"], st.q_noisy_full,
                                  out["rotations"], out["translations"])
        return {"frames_checked": len(out["masks"])}


class Track(_Workload):
    """``baseline.track_trajectory`` at 128 px, warm-started, with a fixed
    iteration budget per frame."""

    name = "track"

    def setup(self) -> None:
        s = self.size
        ds = _generate(self.data_dir / "track", "track", s["trajectories"], s["frames"],
                       TRACK_DATA_SEED, scene.reference_scene(128))
        self.store = corrector.build_frame_store(ds)
        # threshold 0: every frame spends the whole budget
        self.config = baseline.BaselineConfig(max_iterations=s["iterations"],
                                              loss_threshold=0.0)

    def _trajectories(self):
        return [np.flatnonzero(self.store.traj_of == i)
                for i in range(int(self.store.traj_of.max()) + 1)]

    def warmup(self) -> None:
        st = self.store
        baseline.optimize_frame(st.scene, st.theta_noisy[0], st.masks_ref[0],
                                st.keypoints[0], st.q_noisy_full[0, :3],
                                baseline.BaselineConfig(max_iterations=2, loss_threshold=0.0))

    def round(self) -> Round:
        st = self.store
        theta = np.empty_like(st.theta_noisy)
        failed, latencies = 0, []
        for sel in self._trajectories():
            t0 = time.perf_counter()
            out, _, _, flags = baseline.track_trajectory(
                st.scene, st.theta_noisy[sel], st.q_noisy_full[sel], st.masks_ref[sel],
                st.keypoints[sel], self.config)
            latencies.append(time.perf_counter() - t0)
            theta[sel] = out
            failed += int((flags | ~np.isfinite(out).all(axis=1)).sum())
        return Round(len(theta), failed, digest([theta]), {"theta": theta},
                     np.array(latencies))

    def check(self, out: dict, rng: np.random.Generator) -> dict:
        st, sc = self.store, self.store.scene
        theta = out["theta"]
        rows = self.errors(out)
        checks.check_below_noisy([r["translation"][0] for r in rows],
                                 [r["translation"][1] for r in rows], "translation")

        alpha, _ = self.config.resolve(sc.camera)
        scale = self.config.step_scale  # compare in step units: mixed m and rad
        grad_errors = []
        for i in rng.choice(len(theta), size=self.size["checked_frames"], replace=False):
            args = (st.q_noisy_full[i, :3], st.masks_ref[i].astype(float),
                    st.keypoints[i], alpha, self.config.beta)
            _, grad = baseline._loss_and_grad(sc, theta[i], *args)
            numeric = checks.check_gradient(
                lambda x: baseline._loss_and_grad(sc, x, *args)[0], theta[i],
                np.diag(scale), grad * scale, 1e-4, f"frame {i} loss")
            grad_errors.append(float(np.abs(grad * scale - numeric).max()
                                     / np.abs(grad * scale).max()))

        rot = np.broadcast_to(st.base_true.rotation, (len(st), 3, 3))
        trans = np.broadcast_to(st.base_true.translation, (len(st), 3))
        soft = scene.render_masks(sc, rot, trans, st.q_true_full, "soft")
        ratio = checks.check_area_ratio(soft, st.masks_ref)
        return {"rmse": rows, "area_ratio": ratio, "gradient_errors": grad_errors}


WORKLOADS = {w.name: w for w in (Train, Correct, Track)}
