import numpy as np
import pytest

from silgrad import autodiff as ad
from silgrad import mesh, render, scene, se3
from silgrad.mesh import TriMesh

RNG = np.random.default_rng(99)


def cam(fx=100.0, size=64, near=0.01, far=10.0):
    return render.PinholeCamera(fx, fx, size / 2.0, size / 2.0, size, size, near, far)


# --------------------------------------------------------------- projection

def test_project_optical_axis():
    xy, behind = render.project(cam(fx=100.0, size=64), np.array([0.0, 0.0, 1.0]))
    assert xy.tolist() == [32.0, 32.0]
    assert not behind


def test_project_offset_point():
    xy, _ = render.project(cam(fx=100.0, size=64), np.array([0.1, 0.0, 1.0]))
    assert xy.tolist() == [42.0, 32.0]


def test_project_gradient_is_fx_over_z():
    c = cam(fx=100.0, size=64)

    def f(p):
        xy, _ = render.project(c, p)
        return ad.take(xy, (0, 0))

    rep = ad.finite_diff_check(f, np.array([[0.1, 0.0, 1.0]]), epsilon=1e-7)
    assert rep.passed
    np.testing.assert_allclose(rep.analytic[0, 0], 100.0, rtol=1e-9)


def test_project_behind_camera_flagged_and_clamped():
    c = cam()
    xy, behind = render.project(c, np.array([[0.0, 0.0, -0.5], [0.0, 0.0, 1.0]]))
    assert behind.tolist() == [True, False]
    assert np.all(np.isfinite(xy))


def test_camera_validation():
    with pytest.raises(ValueError):
        render.PinholeCamera(-1, 1, 0, 0, 64, 64)
    with pytest.raises(ValueError):
        render.PinholeCamera(100, 100, 32, 32, 8, 8)
    with pytest.raises(ValueError):
        render.PinholeCamera(100, 100, 32, 32, 64, 64, near=2.0, far=1.0)


# ------------------------------------------------------------- hard raster

def quad_mesh(side=1.0, z=1.0, x_shift=0.0):
    h = side / 2.0
    verts = np.array([[-h + x_shift, -h, z], [h + x_shift, -h, z],
                      [h + x_shift, h, z], [-h + x_shift, h, z]])
    return TriMesh(verts, np.array([[0, 1, 2], [0, 2, 3]]))


def rasterize(meshes_poses, camera, mode="hard", sigma_r=None):
    """One image of posed meshes: project, face validity, occupancy."""
    pts, faces = np.zeros((1, 0, 3)), np.zeros((0, 3), dtype=np.int64)
    for m, pose in meshes_poses:
        faces = np.concatenate([faces, m.faces + pts.shape[1]])
        pts = np.concatenate([pts, pose.apply(m.vertices)[None]], axis=1)
    xy, _ = render.project(camera, pts)
    valid = render.face_validity(pts[..., 2], faces, camera, mode)
    if mode == "hard":
        img = render.hard_occupancy(xy, faces, valid, camera.width, camera.height)
    else:
        img = render.soft_occupancy(xy, faces, valid, camera.width, camera.height, sigma_r)
    return render.SilhouetteImage(img[0], mode)


def test_hard_empty_scene_is_zero():
    img = rasterize([], cam())
    assert img.kind == "hard"
    assert img.pixels.sum() == 0.0


def test_hard_full_frustum_triangle_is_one():
    tri = TriMesh(np.array([[-100, -100, 1.0], [300, -100, 1.0], [-100, 300, 1.0]]),
                  np.array([[0, 1, 2]]))
    img = rasterize([(tri, se3.RigidTransform.identity())], cam())
    assert img.pixels.min() == 1.0


def test_hard_unit_square_area_exact():
    c = cam(fx=100.0, size=128)
    img = rasterize([(quad_mesh(), se3.RigidTransform.identity())], c)
    assert img.pixels.sum() == 10000.0
    img.validate()


def test_hard_edge_rule_half_integer_boundary():
    # left edge lands exactly on pixel centers; half-open coverage keeps 100x100
    c = cam(fx=100.0, size=128)
    img = rasterize([(quad_mesh(x_shift=0.005), se3.RigidTransform.identity())], c)
    assert img.pixels.sum() == 10000.0


def test_hard_shared_diagonal_no_seam():
    # rotate the quad so the internal diagonal crosses many pixel centers
    rot = se3.RigidTransform(se3.rotation_about_axis([0, 0, 1], 0.3), [0, 0, 0])
    img = rasterize([(quad_mesh(), rot)], cam(fx=100.0, size=128))
    from scipy import ndimage
    filled = ndimage.binary_fill_holes(img.pixels > 0.5)
    np.testing.assert_array_equal(filled, img.pixels > 0.5)


def test_hard_principal_point_shift_translates_mask():
    sc = scene.reference_scene(64)
    q = np.array([0.05, -0.05, 0.13, 0.4, 0.1, -0.2, 0.5])
    mask0 = scene.render_masks(sc, sc.base.rotation[None], sc.base.translation[None],
                               q[None], "hard")[0]
    c = sc.camera
    c2 = render.PinholeCamera(c.fx, c.fy, c.cx + 3, c.cy + 2, c.width, c.height,
                              c.near, c.far)
    sc2 = scene.ToolScene(sc.chain, sc.meshes, sc.base, c2)
    mask1 = scene.render_masks(sc2, sc.base.rotation[None], sc.base.translation[None],
                               q[None], "hard")[0]
    np.testing.assert_array_equal(mask1[2:, 3:], mask0[:-2, :-3])


def test_hard_behind_near_plane_triangles_dropped():
    img = rasterize([(quad_mesh(z=-1.0), se3.RigidTransform.identity())], cam())
    assert img.pixels.sum() == 0.0


def _random_triangles(rng, n, width, height):
    """Seeded triangles with the cases a scanline walk can get wrong: general
    position partly off-screen, slivers, horizontal edges, vertices on pixel
    centers and on integer corners, and zero-area triangles."""
    lo, hi = [-8.0, -8.0], [width + 8.0, height + 8.0]
    general = rng.uniform(lo, hi, (n, 3, 2))
    a, b = np.round(rng.uniform(lo, hi, (2, n, 2)))
    normal = (b - a)[:, ::-1] * [1.0, -1.0] / np.linalg.norm(b - a, axis=1, keepdims=True)
    sliver = np.stack([a, b, (a + b) / 2 + 1e-3 * normal], axis=1)
    horizontal = general.copy()
    horizontal[:, 1, 1] = horizontal[:, 0, 1]
    collinear = np.stack([a, b, (a + b) / 2], axis=1)  # exact: area2 == 0
    level = collinear.copy()
    level[:, :, 1] = np.floor(a[:, 1:]) + 0.5  # on a row of pixel centers
    repeated = general.copy()
    repeated[:, 2] = repeated[:, 0]
    return np.concatenate([general, sliver, horizontal, np.floor(general) + 0.5,
                           np.round(general), collinear, level, repeated])


def _brute_hard(tris, width, height):
    """Every pixel center against every triangle: CCW edge functions with the
    top-left rule, in the rasterizer's arithmetic."""
    x = np.arange(width)[None, :] + 0.5
    y = np.arange(height)[:, None] + 0.5
    out = np.zeros((height, width), dtype=bool)
    for tri in tris:
        e1, e2 = tri[1] - tri[0], tri[2] - tri[0]
        area2 = e1[0] * e2[1] - e1[1] * e2[0]
        if area2 == 0:
            continue
        if area2 < 0:
            tri = tri[[0, 2, 1]]
        inside = np.ones((height, width), dtype=bool)
        for k in range(3):
            a, b = tri[k], tri[(k + 1) % 3]
            dx, dy = b[0] - a[0], b[1] - a[1]
            e = dx * (y - a[1]) - dy * (x - a[0])
            inside &= (e > 0) | ((e == 0) & ((dy > 0) or (dy == 0 and dx < 0)))
        out |= inside
    return out


def test_hard_matches_all_pixels_edge_test():
    rng = np.random.default_rng(2024)
    width, height = 48, 40
    tris = _random_triangles(rng, 30, width, height)
    faces = np.arange(3 * len(tris)).reshape(-1, 3)
    valid = np.stack([np.ones(len(tris), bool), rng.uniform(size=len(tris)) < 0.3])
    occ = render.hard_occupancy(np.stack([tris.reshape(-1, 2)] * 2), faces, valid,
                                width, height)
    for i in range(2):
        np.testing.assert_array_equal(occ[i], _brute_hard(tris[valid[i]], width, height))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hard_nonfinite_vertex_gives_nan_image(bad):
    verts = np.array([[[10.0, 10.0], [50.0, 10.0], [30.0, 50.0]]])
    verts[0, 2, 1] = bad
    occ = render.hard_occupancy(verts, np.array([[0, 1, 2]]), np.ones((1, 1), bool), 64, 64)
    assert np.isnan(occ).all()


def test_hard_nonfinite_vertex_poisons_only_its_image():
    verts = np.tile([[10.0, 10.0], [50.0, 10.0], [30.0, 50.0]], (2, 1, 1))
    verts[1, 0, 0] = np.nan
    faces, valid = np.array([[0, 1, 2]]), np.ones((2, 1), bool)
    occ = render.hard_occupancy(verts, faces, valid, 64, 64)
    np.testing.assert_array_equal(occ[0], render.hard_occupancy(verts[:1], faces,
                                                                valid[:1], 64, 64)[0])
    assert occ[0].sum() > 0
    assert np.isnan(occ[1]).all()


@pytest.mark.parametrize("halo", [0.0, 3.0 * np.sqrt(render.default_sigma_r(128)) + 0.5])
def test_diagonal_sliver_pairs_follow_its_length(halo):
    # a 1 px wide sliver from corner to corner of a 128 px image: its
    # bounding box holds every pixel, its spans about 4h + 3 per row
    tri = np.array([[[0.0, 0.7], [0.7, 0.0], [128.0, 128.0]]])
    pairs = sum(len(t) for t, _, _ in render._pair_blocks(tri, 128, 128, halo))
    assert 128 <= pairs <= 128 * 2 * (2 * halo + 3)


# ------------------------------------------------------------- soft raster

def test_soft_pixel_on_edge_is_half():
    verts = np.array([[[31.5, 10.0], [31.5, 50.0], [60.0, 30.0]]])
    faces = np.array([[0, 1, 2]])
    occ = render.soft_occupancy(verts, faces, np.ones((1, 1), bool), 64, 64, sigma_r=0.41)
    assert occ[0, 29, 31] == 0.5


def test_soft_saturation_inside_and_outside():
    verts = np.array([[[10.0, 10.0], [50.0, 10.0], [30.0, 50.0]]])
    faces = np.array([[0, 1, 2]])
    occ = render.soft_occupancy(verts, faces, np.ones((1, 1), bool), 64, 64, sigma_r=0.41)
    assert occ[0, 25, 29] > 1.0 - 1e-9      # deep inside
    assert occ[0, 1, 1] < 1e-9              # far outside (beyond halo: exactly 0)


def test_soft_zero_area_triangle_covers_nothing():
    # three collinear vertices on a row of pixel centers, x 10 -> 30: no
    # pixel center is inside, so none may read 0.5 or more
    verts = np.array([[[10.0, 20.5], [30.0, 20.5], [20.0, 20.5]]])
    occ = render.soft_occupancy(verts, np.array([[0, 1, 2]]), np.ones((1, 1), bool),
                                64, 64, sigma_r=0.41)
    assert occ.max() < 0.5


def test_soft_rejects_bad_temperature():
    with pytest.raises(ValueError):
        render.soft_occupancy(np.zeros((1, 3, 2)), np.array([[0, 1, 2]]),
                              np.ones((1, 1), bool), 64, 64, sigma_r=0.0)


def test_soft_growth_monotone():
    verts = np.array([[[20.0, 20.0], [44.0, 22.0], [30.0, 44.0]]])
    faces = np.array([[0, 1, 2]])
    occ0 = render.soft_occupancy(verts, faces, np.ones((1, 1), bool), 64, 64, sigma_r=0.41)
    centroid = verts.mean(axis=1, keepdims=True)
    grown = centroid + (verts - centroid) * 1.15
    occ1 = render.soft_occupancy(grown, faces, np.ones((1, 1), bool), 64, 64, sigma_r=0.41)
    assert np.all(occ1 - occ0 >= -1e-12)


def test_soft_closed_box_face_on_matches_front_quad():
    # seen face-on, only the front face's outline is contour: the back faces,
    # the side faces and the diagonals inside each face must add no halo
    c = cam(fx=100.0, size=64)
    ident = se3.RigidTransform.identity()
    closed = rasterize([(mesh.box(0.4, 0.4, 1.0, 1.3), ident)], c, "soft", sigma_r=0.41)
    front = rasterize([(quad_mesh(side=0.4), ident)], c, "soft", sigma_r=0.41)
    np.testing.assert_allclose(closed.pixels.sum(), front.pixels.sum(), rtol=0.01)


def test_soft_area_matches_hard_area_at_truth(tiny_store):
    # a soft silhouette wider than the true outline moves the silhouette
    # loss minimum away from the true pose
    store = tiny_store
    ratios = []
    for lo in range(0, len(store), 30):
        q = store.q_true_full[lo:lo + 30]
        n = len(q)
        soft = scene.render_masks(store.scene,
                                  np.repeat(store.base_true.rotation[None], n, axis=0),
                                  np.repeat(store.base_true.translation[None], n, axis=0),
                                  q, "soft")
        ratios.append(soft.sum(axis=(1, 2)) / store.masks_ref[lo:lo + n].sum(axis=(1, 2)))
    mean = np.concatenate(ratios).mean()
    assert abs(mean - 1.0) < 0.05, mean


def test_soft_nonfinite_vertex_poisons_only_its_image():
    verts = np.tile([[10.0, 10.0], [50.0, 10.0], [30.0, 50.0]], (2, 1, 1))
    verts[1, 0, 0] = np.nan
    tape = ad.Tape()
    v = ad.leaf(tape, verts)
    nodes = len(tape)
    occ = render.soft_occupancy(v, np.array([[0, 1, 2]]), np.ones((2, 1), bool),
                                64, 64, sigma_r=0.41)
    assert len(tape) == nodes + 1  # one fused node
    assert np.isfinite(ad._val(occ)[0]).all()
    assert np.isnan(ad._val(occ)[1]).all()
    grad = ad.backward(ad.reduce_sum(occ))[v.nid]
    assert np.isfinite(grad[0]).all()
    assert np.isnan(grad[1]).all()


def visible_config(rng):
    base = np.array([0.05, -0.05, 0.13, 0.4, 0.1, -0.2, 0.5])
    jitter = rng.uniform(-1, 1, 7) * np.array([0.06, 0.06, 0.02, 0.5, 0.25, 0.25, 0.25])
    return base + jitter


def test_soft_converges_to_hard_mask():
    sc = scene.reference_scene(64)
    rng = np.random.default_rng(404)
    ious = []
    for _ in range(6):
        q = visible_config(rng)[None]
        hard = scene.render_masks(sc, sc.base.rotation[None], sc.base.translation[None],
                                  q, "hard")[0]
        soft = scene.render_masks(sc, sc.base.rotation[None], sc.base.translation[None],
                                  q, "soft", sigma_r=1e-6)[0]
        soft_bin = soft > 0.5
        hard_bin = hard > 0.5
        union = np.logical_or(soft_bin, hard_bin).sum()
        inter = np.logical_and(soft_bin, hard_bin).sum()
        assert union > 50  # tool visibly in frame
        ious.append(inter / union)
    assert min(ious) > 0.95, ious


def test_soft_gradients_match_finite_differences_ten_params():
    # perturbations act in the normalized (dimensionless) parameter space of
    # the correction vector; a raw 1e-4 step in meters would exceed the soft
    # band's metric length scale and be dominated by FD truncation
    sc = scene.reference_scene(64)
    q_vis = np.array([0.4, 0.1, -0.2, 0.5])
    q_first = np.array([0.05, -0.05, 0.13])
    pose0, _ = se3.transform_to_euler(sc.base)
    params0 = np.concatenate([pose0.euler, pose0.translation, q_vis])
    scale = np.array([0.175] * 3 + [0.02] * 3 + [0.25] * 4)

    def f(pn):
        p = ad.add(ad.mul(pn, scale), params0)[None]
        r = se3.euler_to_matrix_diff(ad.take(p, (..., slice(0, 3))))
        t = ad.take(p, (..., slice(3, 6)))
        q = ad.concatenate([np.tile(q_first, (1, 1)), ad.take(p, (..., slice(6, 10)))],
                           axis=-1)
        mask = scene.render_masks(sc, r, t, q, "soft")
        return ad.reduce_sum(mask)

    rep = ad.finite_diff_check(f, np.zeros(10), epsilon=1e-4, tolerance=1e-3)
    assert rep.passed, rep


def test_soft_gradient_zero_without_triangles():
    tape = ad.Tape()
    v = ad.leaf(tape, np.zeros((1, 3, 2)))
    occ = render.soft_occupancy(v, np.array([[0, 1, 2]]), np.zeros((1, 1), bool),
                                64, 64, sigma_r=0.41)
    assert ad._val(occ).sum() == 0.0

def _all_pairs(tris, width, height, halo):
    """Every pixel against every triangle, in (triangle, row, column) order."""
    idx = np.arange(len(tris) * height * width)
    yield idx // (height * width), idx % width, idx // width % height


def _assert_soft_matches_all_pairs(monkeypatch, verts, faces, valid, width, height,
                                   sigma_r):
    """Forward and VJP equal an all-pairs evaluation wherever |z| < h^2/sigma_r.
    Returns both occupancies and sigmoid(-h^2/sigma_r)."""
    def run():
        v = ad.leaf(ad.Tape(), verts)
        occ = render.soft_occupancy(v, faces, valid, width, height, sigma_r)
        return v, occ

    v, occ = run()
    with monkeypatch.context() as m:
        m.setattr(render, "_pair_blocks", _all_pairs)
        v_ref, occ_ref = run()
    h = 3.0 * np.sqrt(sigma_r) + 0.5
    s_lo, s_hi = ad.stable_sigmoid(np.array([-1.0, 1.0]) * h * h / sigma_r)
    o, o_ref = ad._val(occ), ad._val(occ_ref)
    near = (o_ref > s_lo) & (o_ref < s_hi)
    assert near.sum() > 100
    np.testing.assert_array_equal(o[near], o_ref[near])
    g = np.random.default_rng(5).normal(size=near.shape) * near
    grad = ad.backward(ad.reduce_sum(ad.mul(occ, g)))[v.nid]
    grad_ref = ad.backward(ad.reduce_sum(ad.mul(occ_ref, g)))[v_ref.nid]
    np.testing.assert_array_equal(grad, grad_ref)
    return o, o_ref, s_lo


def test_soft_tool_scene_matches_all_pairs(monkeypatch):
    sc = scene.reference_scene(64)
    rng = np.random.default_rng(11)
    q = np.stack([visible_config(rng) for _ in range(2)])
    rot = np.repeat(sc.base.rotation[None], 2, axis=0)
    xy, depths = scene.screen_geometry(sc, rot, np.repeat(sc.base.translation[None], 2, axis=0), q)
    valid = render.face_validity(depths, sc.faces, sc.camera, "soft")
    o, o_ref, s_lo = _assert_soft_matches_all_pairs(monkeypatch, ad._val(xy), sc.faces,
                                                    valid, 64, 64, sc.sigma_r)
    # farther pixels stay saturated: both within sigmoid(-h^2/sigma_r) of 0 or 1
    assert np.abs(o - o_ref).max() <= 1.01 * s_lo


@pytest.mark.parametrize("sigma_r", [0.41, 2.0])
def test_soft_random_triangles_match_all_pairs(monkeypatch, sigma_r):
    width, height = 48, 40
    tris = _random_triangles(np.random.default_rng(7), 6, width, height)
    faces = np.arange(3 * len(tris)).reshape(-1, 3)
    _assert_soft_matches_all_pairs(monkeypatch, tris.reshape(1, -1, 2), faces,
                                   np.ones((1, len(tris)), bool), width, height, sigma_r)


# ------------------------------------------------------------- mask files

def test_pgm_round_trip_hard(tmp_path):
    img = render.SilhouetteImage((RNG.uniform(size=(32, 32)) > 0.6).astype(float), "hard")
    p = tmp_path / "m.pgm"
    render.write_pgm(p, img)
    back = render.read_pgm(p)
    assert back.kind == "hard"
    np.testing.assert_array_equal(back.pixels, img.pixels)


def test_pgm_soft_quantized_to_255(tmp_path):
    img = render.SilhouetteImage(RNG.uniform(size=(16, 16)), "soft")
    p = tmp_path / "m.pgm"
    render.write_pgm(p, img)
    back = render.read_pgm(p, kind="soft")
    assert np.abs(back.pixels - img.pixels).max() <= 0.5 / 255.0 + 1e-12


def test_mask_kind_invariants():
    with pytest.raises(ValueError):
        render.SilhouetteImage(np.zeros((4, 4)), "fuzzy")
    bad = render.SilhouetteImage(np.full((4, 4), 0.5), "hard")
    with pytest.raises(ValueError):
        bad.validate()
