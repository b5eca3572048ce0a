"""Tests of the benchmark's checks and a smoke run of every workload.

    PYTHONPATH=src python -m pytest bench -q

Each check must pass the program's real output and reject a corrupted copy.
"""

import json

import numpy as np
import pytest

import checks
import run
import tracing
from silgrad import autodiff as ad
from silgrad import baseline, corrector, metrics, scene, synth

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    ds = synth.generate_dataset(tmp_path_factory.mktemp("split"), "t", 1, 0.1, 7,
                                scene=scene.reference_scene(64), frames_per_trajectory=3)
    return corrector.build_frame_store(ds)


def _rejects(check, *args):
    with pytest.raises(checks.CheckFailed):
        check(*args)


def test_hard_mask_check(store):
    sc = store.scene
    base = checks.theta_base(store.theta_noisy[0])
    xy, depth = checks.screen_vertices(sc, base, store.q_noisy_full[0])
    mask = store.masks_noisy[0]
    checks.check_hard_mask(mask, xy, depth, sc.faces, sc.camera)

    # one pixel flipped inside the tool and one outside, each away from any
    # edge: its 3x3 neighbourhood agrees and it is not near an edge
    _, near = checks.reference_hard_mask(xy, depth, sc.faces, sc.camera)
    pad = np.pad(mask, 1, mode="edge")
    same = np.ones_like(mask, dtype=bool)
    for dy in range(3):
        for dx in range(3):
            same &= pad[dy:dy + mask.shape[0], dx:dx + mask.shape[1]] == mask
    for value in (0, 1):
        r, c = np.argwhere(same & ~near & (mask == value))[0]
        bad = mask.copy()
        bad[r, c] = 1 - value
        _rejects(checks.check_hard_mask, bad, xy, depth, sc.faces, sc.camera)


def test_correction_check(store):
    chain = store.scene.chain
    k = corrector.default_scale(chain)
    raw = np.random.default_rng(0).normal(0.0, 3.0, store.theta_noisy.shape)
    theta = corrector.apply_correction(raw, store.theta_noisy, k, chain)
    vis = corrector.VISIBLE_SLICE
    lo, hi = chain.lower_limits[vis], chain.upper_limits[vis]
    checks.check_correction(theta, store.theta_noisy, k, lo, hi)

    bad = theta.copy()
    bad[1, 4] = store.theta_noisy[1, 4] + 1.01 * k[4]
    _rejects(checks.check_correction, bad, store.theta_noisy, k, lo, hi)


def test_end_effector_check(store):
    chain = store.scene.chain
    pose = metrics.series_from_params(chain, store.theta_noisy, store.q_noisy_full,
                                      store.times, "noisy")
    checks.check_end_effector(chain, store.theta_noisy, store.q_noisy_full,
                              pose.rotations, pose.translations)

    moved = pose.translations.copy()
    moved[2, 0] += 1e-3
    _rejects(checks.check_end_effector, chain, store.theta_noisy, store.q_noisy_full,
             pose.rotations, moved)


def test_gradient_check(store):
    sc = store.scene
    cfg = baseline.BaselineConfig()
    alpha, _ = cfg.resolve(sc.camera)
    args = (store.q_noisy_full[0, :3], store.masks_ref[0].astype(float),
            store.keypoints[0], alpha, cfg.beta)

    def loss(x):
        return baseline._loss_and_grad(sc, x, *args)[0]

    theta = store.theta_noisy[0]
    steps = np.diag(cfg.step_scale)
    analytic = baseline._loss_and_grad(sc, theta, *args)[1] * cfg.step_scale
    checks.check_gradient(loss, theta, steps, analytic, 1e-4, "loss")
    d = np.random.default_rng(1).standard_normal(10)
    checks.check_gradient(loss, theta, [steps @ d], [analytic @ d], 1e-4, "loss")

    bad = analytic.copy()
    bad[3] += 1e-3 * np.abs(analytic).max()
    _rejects(checks.check_gradient, loss, theta, steps, bad, 1e-4, "loss")


def test_adam_check():
    rng = np.random.default_rng(2)
    w = {"a": rng.standard_normal((2, 3)), "b": rng.standard_normal(4)}
    g = {n: rng.standard_normal(v.shape) for n, v in w.items()}
    zeros = {n: np.zeros_like(v) for n, v in w.items()}
    got = dict(w)
    corrector.adam_step(got, g, corrector.AdamState(m=dict(zeros), v=dict(zeros)),
                        1e-3, 1e-4)
    want, _, _ = checks.reference_adam(w, g, zeros, zeros, 1, 1e-3, 1e-4)
    checks.check_close_dicts(got, want, 1e-12, "adam")

    bad = dict(got, b=got["b"].copy())
    bad["b"][2] += 1e-9
    _rejects(checks.check_close_dicts, bad, want, 1e-12, "adam")


def test_area_and_accuracy_checks(store):
    sc = store.scene
    rot = np.broadcast_to(store.base_true.rotation, (len(store), 3, 3))
    trans = np.broadcast_to(store.base_true.translation, (len(store), 3))
    soft = scene.render_masks(sc, rot, trans, store.q_true_full, "soft")
    checks.check_area_ratio(soft, store.masks_ref)
    _rejects(checks.check_area_ratio, soft * 1.1, store.masks_ref)

    checks.check_below_noisy([2.0, 5.7], [22.8, 25.9], "translation")
    _rejects(checks.check_below_noisy, [2.0, 26.0], [22.8, 25.9], "translation")


@pytest.mark.parametrize("workload", ["train", "correct", "track"])
def test_smoke_run(workload, tmp_path):
    """Every workload runs at smoke size, checks its outputs, reports every
    end-to-end metric, and repeats its digest for the same seed."""
    result = run.run(workload, 3, 0.0, False, "smoke", tmp_path)
    assert result["correct"], result["details"]["reason"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    names = {m["name"] for m in BENCHMARK["end_to_end"]}
    for name, value in result["metrics"].items():
        assert name in names and value["value"] > 0
    again = run.run(workload, 3, 0.0, False, "smoke", tmp_path)
    assert again["details"]["digest"] == result["details"]["digest"]


def test_traced_smoke_run_reports_every_layer(tmp_path):
    originals = [getattr(m, a) for m, a in tracing.LAYERS] + [ad.from_op]
    result = run.run("track", 3, 0.0, True, "smoke", tmp_path)
    assert result["correct"], result["details"]["reason"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert result["metrics"]["render.soft_vjp_ms"]["value"] > 0
    assert result["metrics"]["baseline.iterations_per_frame"]["value"] == 8
    assert (tmp_path / "track-seed3-spans.jsonl").is_file()
    # the wrappers are gone once the run ends
    assert [getattr(m, a) for m, a in tracing.LAYERS] + [ad.from_op] == originals
