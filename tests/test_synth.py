import numpy as np
import pytest

from silgrad import mesh, scene, se3, synth

SCENE = scene.reference_scene(64)
ZERO_NOISE = synth.NoiseSpec(np.zeros(3), np.zeros(3), np.zeros(7))


def test_interpolate_endpoints_and_ramp():
    q0, q1 = np.zeros(7), np.zeros(7)
    q1[0] = 1.0
    seg = synth.interpolate_segment(q0, q1, steps=50)
    assert seg.shape == (50, 7)
    np.testing.assert_allclose(seg[:, 0], np.arange(50) / 49.0, atol=1e-15)
    np.testing.assert_array_equal(seg[0], q0)
    np.testing.assert_array_equal(seg[-1], q1)


def test_interpolate_constant_when_equal():
    q = np.full(7, 0.3)
    seg = synth.interpolate_segment(q, q, steps=50)
    assert np.all(seg == 0.3)


def test_interpolate_rejects_single_step():
    with pytest.raises(ValueError):
        synth.interpolate_segment(np.zeros(7), np.ones(7), steps=1)


def test_sample_target_within_limits_and_margin_box():
    rng = synth.rng_stream(11, 0)
    cam = SCENE.camera
    for _ in range(5):
        q = synth.sample_target_pose(SCENE, rng)
        assert np.all(q >= SCENE.chain.lower_limits) and np.all(q <= SCENE.chain.upper_limits)
        xy, z = synth._view_points(SCENE, q)
        assert np.all(xy[:, 0] > 0.1 * cam.width) and np.all(xy[:, 0] < 0.9 * cam.width)
        assert np.all(xy[:, 1] > 0.1 * cam.height) and np.all(xy[:, 1] < 0.9 * cam.height)
        assert np.all((z > cam.near) & (z < cam.far))


def test_sample_target_errors_when_camera_looks_away():
    bad_base = se3.RigidTransform(scene.look_rotation([0.0, 0.0, -1.0]), [0.0, 0.0, -0.2])
    bad = scene.ToolScene(SCENE.chain, SCENE.meshes, bad_base, SCENE.camera)
    with pytest.raises(RuntimeError, match="misconfigured"):
        synth.sample_target_pose(bad, synth.rng_stream(1, 0), max_rejections=500)


def _one_at_a_time(scene_, rng, max_rejections=synth.MAX_REJECTIONS):
    """The rejection sampler as one candidate and one FK pass at a time: the
    reference the block sampler must match, draw for draw."""
    lo, hi = scene_.chain.lower_limits, scene_.chain.upper_limits
    for _ in range(max_rejections):
        q = rng.uniform(lo, hi)
        if synth._in_box(scene_, *synth._view_points(scene_, q), synth._VIEW_MARGIN):
            return q
    raise RuntimeError("no in-view configuration")


def _sample_or_none(sample, scene_, rng, **kw):
    try:
        return sample(scene_, rng, **kw)
    except RuntimeError:
        return None


@pytest.mark.parametrize("size", [64, 128])
def test_block_sampler_is_the_one_at_a_time_loop(size):
    sc = scene.reference_scene(size)
    for index in range(12):
        block, ref = synth.rng_stream(31, index), synth.rng_stream(31, index)
        for _ in range(3):
            assert synth.sample_target_pose(sc, block).tobytes() == \
                _one_at_a_time(sc, ref).tobytes()
        # the stream is left where the loop leaves it
        assert block.random(5).tobytes() == ref.random(5).tobytes()


@pytest.mark.parametrize("cap", [1, 20, synth._SAMPLE_BLOCK + 36])
def test_block_sampler_keeps_the_loops_cap(cap):
    # a stream whose first `cap` candidates hold a hit and one whose do not;
    # on a miss both draw exactly `cap` candidates before raising
    outcomes = {}
    for index in range(2000):
        q = _sample_or_none(_one_at_a_time, SCENE, synth.rng_stream(32, index),
                            max_rejections=cap)
        outcomes.setdefault(q is None, index)
        if len(outcomes) == 2:
            break
    assert len(outcomes) == 2
    for index in outcomes.values():
        block, ref = synth.rng_stream(32, index), synth.rng_stream(32, index)
        got = _sample_or_none(synth.sample_target_pose, SCENE, block, max_rejections=cap)
        want = _sample_or_none(_one_at_a_time, SCENE, ref, max_rejections=cap)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.tobytes() == want.tobytes()
        assert block.random(5).tobytes() == ref.random(5).tobytes()


@pytest.mark.parametrize("size", [64, 128])
def test_view_points_rows_are_the_single_configuration_results(size):
    sc = scene.reference_scene(size)
    q = synth.rng_stream(33, 0).uniform(sc.chain.lower_limits, sc.chain.upper_limits, (40, 7))
    xy, z = synth._view_points(sc, q)
    inside = synth._in_box(sc, xy, z, synth._VIEW_MARGIN)
    assert xy.shape == (40, 7, 2) and z.shape == (40, 7) and inside.shape == (40,)
    for row in range(len(q)):
        xy_one, z_one = synth._view_points(sc, q[row])
        assert xy_one.tobytes() == xy[row].tobytes() and z_one.tobytes() == z[row].tobytes()
        assert synth._in_box(sc, xy_one, z_one, synth._VIEW_MARGIN) == inside[row]


def test_trajectory_frame_count_and_structure():
    rec = synth.generate_trajectory(60, SCENE, synth.default_noise_spec(), 5)
    assert rec.num_frames == 60
    assert rec.masks.shape == (60, 64, 64)
    assert rec.keypoints.shape == (60, 6, 2)
    assert rec.keypoints.dtype == np.float32
    np.testing.assert_allclose(np.diff(rec.times), 1.0 / 30.0, atol=1e-12)


def test_duration_30s_gives_900_frames(tmp_path):
    # with no frame count, a split holds round(duration x rate) frames
    for duration, frames in ((30.0, 900), (0.25, 8)):
        ds = synth.generate_dataset(tmp_path / str(duration), "t", 1, duration, seed=2,
                                    scene=SCENE)
        assert ds.manifest["frames_per_trajectory"] == frames
        assert synth.read_trajectory(ds.trajectory_path(0)).num_frames == frames


def test_zero_noise_reproduces_truth_exactly():
    rec = synth.generate_trajectory(30, SCENE, ZERO_NOISE, 3)
    np.testing.assert_array_equal(rec.q_noisy, rec.q_true)
    assert rec.base_noisy.allclose(rec.base_true, atol=0.0)


def test_trajectory_determinism_same_seed():
    a = synth.generate_trajectory(45, SCENE, synth.default_noise_spec(), 42, index=7)
    b = synth.generate_trajectory(45, SCENE, synth.default_noise_spec(), 42, index=7)
    assert np.array_equal(a.q_true, b.q_true)
    assert np.array_equal(a.q_noisy, b.q_noisy)
    assert np.array_equal(a.masks, b.masks)
    assert np.array_equal(a.keypoints, b.keypoints)
    assert a.base_noisy.allclose(b.base_noisy, atol=0.0)
    c = synth.generate_trajectory(45, SCENE, synth.default_noise_spec(), 42, index=8)
    assert not np.array_equal(a.q_true, c.q_true)


def test_eef_in_image_every_frame():
    rec = synth.generate_trajectory(90, SCENE, synth.default_noise_spec(), 9)
    assert synth._segment_in_view(SCENE, rec.q_true)


def test_segment_stitching_continuous():
    rec = synth.generate_trajectory(120, SCENE, ZERO_NOISE, 13)
    steps = np.abs(np.diff(rec.q_true, axis=0)).max(axis=1)
    # interior joins deduplicate the shared endpoint: no jump exceeds the
    # largest single interpolation step by construction
    seg_span = (SCENE.chain.upper_limits - SCENE.chain.lower_limits).max()
    assert steps.max() < seg_span / (synth.SEGMENT_STEPS - 1) + 1e-12


def test_masks_match_regenerated_hard_render():
    rec = synth.generate_trajectory(30, SCENE, synth.default_noise_spec(), 21)
    masks, kps = synth.render_truth(SCENE, rec.base_true, rec.q_true)
    np.testing.assert_array_equal(masks, rec.masks)
    np.testing.assert_array_equal(kps, rec.keypoints)


def test_render_truth_names_nonfinite_frame():
    q = np.tile([0.05, -0.05, 0.13, 0.4, 0.1, -0.2, 0.5], (3, 1))
    q[1, 3] = np.nan
    with pytest.raises(ValueError, match="frame 1"):
        synth.render_truth(SCENE, SCENE.base, q)


def test_round_trip_bit_exact(tmp_path):
    rec = synth.generate_trajectory(30, SCENE, synth.default_noise_spec(), 77, index=3)
    synth.write_trajectory(tmp_path / "t.npy", rec)
    back = synth.read_trajectory(tmp_path / "t.npy")
    np.testing.assert_array_equal(back.times, rec.times)
    np.testing.assert_array_equal(back.q_true, rec.q_true)
    np.testing.assert_array_equal(back.q_noisy, rec.q_noisy)
    np.testing.assert_array_equal(back.masks, rec.masks)
    np.testing.assert_array_equal(back.keypoints, rec.keypoints)
    assert back.base_true.allclose(rec.base_true, atol=0.0)
    assert back.base_noisy.allclose(rec.base_noisy, atol=0.0)


def test_dataset_round_trip_and_validation(tmp_path):
    ds = synth.generate_dataset(tmp_path / "d", "val", trajectories=1, duration_s=1.0,
                                seed=2, scene=SCENE)
    assert ds.num_trajectories == 1
    rec = ds.load_trajectory(0)
    assert rec.num_frames == 30
    assert ds.scene.camera.width == 64
    # a generated split is the manifest and one file per trajectory
    assert sorted(p.name for p in (tmp_path / "d").iterdir()) == ["manifest", "traj_0000.npy"]
    assert "frame_rate" not in ds.manifest and "duration_s" not in ds.manifest
    # corrupting the file length is detected with the path in the message
    victim = tmp_path / "d" / "traj_0000.npy"
    victim.write_bytes(victim.read_bytes()[:-7])
    with pytest.raises(ValueError, match="traj_0000.npy"):
        ds.load_trajectory(0)
    victim.unlink()
    with pytest.raises(FileNotFoundError, match="traj_0000.npy"):
        synth.read_dataset(tmp_path / "d")
    with pytest.raises(FileNotFoundError):
        synth.read_dataset(tmp_path / "nope")


@pytest.mark.parametrize("field", ["transform_translation_halfwidth",
                                   "transform_euler_halfwidth", "joint_sigma"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_noise_spec_rejects_nonfinite(field, value):
    widths = synth.default_noise_spec().to_dict()
    widths[field][1] = value
    with pytest.raises(ValueError, match=field):
        synth.NoiseSpec(**widths)


@pytest.mark.parametrize("field, shape", [
    ("transform_translation_halfwidth", (2,)), ("transform_euler_halfwidth", (3, 1)),
    ("joint_sigma", (3,)), ("joint_sigma", (1,)), ("joint_sigma", ()),
])
def test_noise_spec_rejects_wrong_shape(field, shape):
    # a (3,) joint sigma would fail only inside generate_dataset, after it
    # has removed the old manifest; a (1,) one would broadcast to all joints
    widths = synth.default_noise_spec().to_dict()
    widths[field] = np.full(shape, 0.01)
    with pytest.raises(ValueError, match=f"{field} must have shape"):
        synth.NoiseSpec(**widths)


@pytest.mark.parametrize("name, value", [
    ("trajectories", 2.5), ("trajectories", 0), ("trajectories", "2"), ("trajectories", True),
    ("frames_per_trajectory", 2.5), ("frames_per_trajectory", 0),
    ("frames_per_trajectory", True),
    ("duration_s", np.nan), ("duration_s", np.inf), ("duration_s", True), ("duration_s", "2"),
    ("duration_s", None), ("duration_s", -1.0), ("duration_s", 0.01),
    ("seed", True), ("seed", 1.5), ("seed", "3"),
])
def test_dataset_rejects_bad_size_before_writing(tmp_path, name, value):
    args = {"trajectories": 1, "duration_s": 0.1, "seed": 2, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be"):
        synth.generate_dataset(tmp_path / "d", "t", scene=SCENE, **args)
    assert not (tmp_path / "d").exists()


def test_failed_generation_leaves_no_manifest(tmp_path, monkeypatch):
    synth.generate_dataset(tmp_path / "d", "val", 2, 0.1, seed=2, scene=SCENE)
    make = synth.generate_trajectory

    def fail_second(frames, scene, noise, seed, index=0):
        if index == 1:
            raise RuntimeError("generation failed")
        return make(frames, scene, noise, seed, index)

    monkeypatch.setattr(synth, "generate_trajectory", fail_second)
    with pytest.raises(RuntimeError):
        synth.generate_dataset(tmp_path / "d", "val", 3, 0.1, seed=3, scene=SCENE)
    assert not (tmp_path / "d" / "manifest").exists()


def test_smaller_split_replaces_the_larger_ones_files(tmp_path):
    synth.generate_dataset(tmp_path / "d", "val", 3, 0.1, seed=2, scene=SCENE)
    ds = synth.generate_dataset(tmp_path / "d", "val", 1, 0.1, seed=3, scene=SCENE)
    assert sorted(p.name for p in (tmp_path / "d").iterdir()) == ["manifest", "traj_0000.npy"]
    assert ds.num_trajectories == 1


def test_dataset_same_seed_bit_identical(tmp_path):
    synth.generate_dataset(tmp_path / "a", "val", 3, 0.5, seed=6, scene=SCENE)
    synth.generate_dataset(tmp_path / "b", "val", 3, 0.5, seed=6, scene=SCENE)
    for name in ["manifest"] + [f"traj_{i:04d}.npy" for i in range(3)]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_dataset_scene_is_the_generating_scene(tmp_path):
    synth.generate_dataset(tmp_path / "d", "t", 1, 0.1, seed=2, scene=SCENE)
    ds = synth.read_dataset(tmp_path / "d")
    np.testing.assert_array_equal(ds.scene.verts_local, SCENE.verts_local)
    np.testing.assert_array_equal(ds.scene.faces, SCENE.faces)
    assert ds.scene.vert_slices == SCENE.vert_slices
    assert ds.scene.base.allclose(SCENE.base, atol=0.0)
    assert ds.scene.camera == SCENE.camera
    assert ds.manifest["geometry"] == scene.geometry_digest(SCENE)


def _thick_shaft():
    meshes = {**SCENE.meshes, "shaft": mesh.cylinder(0.0045, -0.080, 0.004, segments=20)}
    return scene.ToolScene(SCENE.chain, meshes, SCENE.base, SCENE.camera)


def _moved_base():
    base = se3.RigidTransform(SCENE.base.rotation, SCENE.base.translation + [1e-6, 0.0, 0.0])
    return scene.ToolScene(SCENE.chain, SCENE.meshes, base, SCENE.camera)


@pytest.mark.parametrize("make", [_moved_base, _thick_shaft])
def test_dataset_rejects_other_geometry_before_writing(tmp_path, make):
    with pytest.raises(ValueError, match="geometry"):
        synth.generate_dataset(tmp_path / "d", "t", 1, 0.1, seed=2, scene=make())
    assert not (tmp_path / "d").exists()


def test_geometry_digest_ignores_camera_and_last_bits():
    digest = scene.geometry_digest(SCENE)
    assert scene.geometry_digest(scene.reference_scene(128)) == digest
    nudged = se3.RigidTransform(SCENE.base.rotation,
                                np.nextafter(SCENE.base.translation, np.inf))
    assert scene.geometry_digest(
        scene.ToolScene(SCENE.chain, SCENE.meshes, nudged, SCENE.camera)) == digest


def test_joint_noise_unbiased_and_sigma_calibrated():
    # statistics straight from the generator path (trajectory noise step)
    noise = synth.default_noise_spec()
    draws = []
    for idx in range(4):
        rng = synth.rng_stream(1234, idx)
        rng.uniform(-noise.transform_euler_halfwidth, noise.transform_euler_halfwidth)
        rng.uniform(-noise.transform_translation_halfwidth,
                    noise.transform_translation_halfwidth)
        draws.append(rng.standard_normal((30000, 7)) * noise.joint_sigma)
    jn = np.concatenate(draws)  # 120k samples
    n = len(jn)
    mean = jn.mean(axis=0)
    std = jn.std(axis=0)
    assert np.all(np.abs(mean) < 3.0 * noise.joint_sigma / np.sqrt(n))
    assert np.all(np.abs(std - noise.joint_sigma) < 0.02 * noise.joint_sigma)


def test_base_noise_uniform_marginals_ks():
    noise = synth.default_noise_spec()
    hw = np.concatenate([noise.transform_euler_halfwidth,
                         noise.transform_translation_halfwidth])
    samples = np.empty((10000, 6))
    for i in range(10000):
        rng = synth.rng_stream(99, i)
        e = rng.uniform(-noise.transform_euler_halfwidth, noise.transform_euler_halfwidth)
        t = rng.uniform(-noise.transform_translation_halfwidth,
                        noise.transform_translation_halfwidth)
        samples[i] = np.concatenate([e, t])
    for c in range(6):
        u = (samples[:, c] + hw[c]) / (2 * hw[c])  # map to [0, 1]
        u.sort()
        n = len(u)
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        ks = max(np.abs(ecdf_hi - u).max(), np.abs(u - ecdf_lo).max())
        assert ks < 0.02, (c, ks)
