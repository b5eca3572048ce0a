import tracemalloc

import numpy as np
import pytest

from silgrad import autodiff as ad
from silgrad import mesh, render, scene, se3
from silgrad.mesh import TriMesh

from conftest import apply, finite_diff_check, rotation_about_axis, weighted_sum


def cam(fx=100.0, size=64, near=0.01, far=10.0):
    return render.PinholeCamera(fx, fx, size / 2.0, size / 2.0, size, size, near, far)


def soft_occupancy(verts, faces, parts, valid, width, height, sigma_r):
    """render.soft_occupancy with the edge table of ``faces``."""
    return render.soft_occupancy(verts, faces, render.face_edges(faces), parts, valid,
                                 width, height, sigma_r)


# --------------------------------------------------------------- projection

def test_project_optical_axis():
    xy = render.project(cam(fx=100.0, size=64), np.array([0.0, 0.0, 1.0]))
    assert xy.tolist() == [32.0, 32.0]


def test_project_offset_point():
    xy = render.project(cam(fx=100.0, size=64), np.array([0.1, 0.0, 1.0]))
    assert xy.tolist() == [42.0, 32.0]


def test_project_gradient_is_fx_over_z():
    # the base's x translation moves every point by the same dX, so
    # du/dtheta[3] is fx / Z at each point in front of the near plane
    sc = scene.reference_scene(64)
    pose, _ = se3.transform_to_euler(sc.base)
    theta0 = np.concatenate([pose, [0.4, 0.1, -0.2, 0.5]])[None]
    q_first = np.array([[0.05, -0.05, 0.13]])
    _, depth = scene.project_theta(sc, theta0, q_first)
    w = np.zeros((1, depth.shape[1], 2))
    w[0, 0, 0] = 1.0

    def f(theta):
        xy, _ = scene.project_theta(sc, theta, q_first)
        return weighted_sum(xy, w)

    rep = finite_diff_check(f, theta0, epsilon=1e-6)
    assert rep.passed, rep
    np.testing.assert_allclose(rep.analytic[0, 3], sc.camera.fx / depth[0, 0], rtol=1e-9)


def test_project_behind_camera_flagged_and_clamped():
    c = cam()
    xy = render.project(c, np.array([[0.0, 0.0, -0.5], [0.0, 0.0, 1.0]]))
    assert np.all(np.isfinite(xy))


def test_camera_validation():
    with pytest.raises(ValueError):
        render.PinholeCamera(-1, 1, 0, 0, 64, 64)
    with pytest.raises(ValueError):
        render.PinholeCamera(100, 100, 32, 32, 8, 8)
    with pytest.raises(ValueError):
        render.PinholeCamera(100, 100, 32, 32, 64, 64, near=2.0, far=1.0)
    good = dict(fx=100.0, fy=100.0, cx=32.0, cy=32.0, width=64, height=64)
    for bad in (dict(fx=np.nan), dict(cx=np.nan), dict(cy=np.inf), dict(width=64.5),
                dict(height=64.0)):
        with pytest.raises(ValueError):
            render.PinholeCamera(**(good | bad))


# ------------------------------------------------------------- hard raster

def quad_mesh(side=1.0, z=1.0, x_shift=0.0):
    h = side / 2.0
    verts = np.array([[-h + x_shift, -h, z], [h + x_shift, -h, z],
                      [h + x_shift, h, z], [-h + x_shift, h, z]])
    return TriMesh(verts, np.array([[0, 1, 2], [0, 2, 3]]))


def rasterize(meshes_poses, camera, mode="hard", sigma_r=None):
    """One image of posed meshes, one part each: project, face validity,
    occupancy."""
    pts, faces = np.zeros((1, 0, 3)), np.zeros((0, 3), dtype=np.int64)
    parts = np.zeros(0, dtype=np.int64)
    for i, (m, pose) in enumerate(meshes_poses):
        faces = np.concatenate([faces, m.faces + pts.shape[1]])
        parts = np.concatenate([parts, np.full(len(m.faces), i)])
        pts = np.concatenate([pts, apply(pose, m.vertices)[None]], axis=1)
    xy = render.project(camera, pts)
    valid = render.face_validity(pts[..., 2], faces, camera, mode)
    if mode == "hard":
        img = render.hard_occupancy(xy, faces, valid, camera.width, camera.height)
    else:
        img = soft_occupancy(xy, faces, parts, valid, camera.width, camera.height, sigma_r)
    return img[0]


def test_hard_empty_scene_is_zero():
    img = rasterize([], cam())
    assert img.sum() == 0.0


def test_hard_full_frustum_triangle_is_one():
    tri = TriMesh(np.array([[-100, -100, 1.0], [300, -100, 1.0], [-100, 300, 1.0]]),
                  np.array([[0, 1, 2]]))
    img = rasterize([(tri, se3.RigidTransform.identity())], cam())
    assert img.min() == 1.0


def test_hard_unit_square_area_exact():
    c = cam(fx=100.0, size=128)
    img = rasterize([(quad_mesh(), se3.RigidTransform.identity())], c)
    assert img.sum() == 10000.0
    assert np.all((img == 0.0) | (img == 1.0))


def test_hard_edge_rule_half_integer_boundary():
    # left edge lands exactly on pixel centers; half-open coverage keeps 100x100
    c = cam(fx=100.0, size=128)
    img = rasterize([(quad_mesh(x_shift=0.005), se3.RigidTransform.identity())], c)
    assert img.sum() == 10000.0


def test_hard_shared_diagonal_no_seam():
    # rotate the quad so the internal diagonal crosses many pixel centers
    rot = se3.RigidTransform(rotation_about_axis([0, 0, 1], 0.3), [0, 0, 0])
    img = rasterize([(quad_mesh(), rot)], cam(fx=100.0, size=128))
    from scipy import ndimage
    filled = ndimage.binary_fill_holes(img > 0.5)
    np.testing.assert_array_equal(filled, img > 0.5)


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


def test_tool_scene_geometry_is_derived_not_passed():
    sc = scene.reference_scene(64)
    assert sc.faces.shape == (108, 3)
    with pytest.raises(TypeError):
        scene.ToolScene(sc.chain, sc.meshes, sc.base, sc.camera, faces=np.zeros((1, 3), int))


def test_hard_behind_near_plane_triangles_dropped():
    img = rasterize([(quad_mesh(z=-1.0), se3.RigidTransform.identity())], cam())
    assert img.sum() == 0.0


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


def _edge_case_triangles(case, rng, width, height):
    general = rng.uniform(-4.0, [width + 4.0, height + 4.0], (24, 3, 2))
    if case == "half-integer":
        return np.floor(general) + 0.5
    if case == "centre-row-edges":
        # edge 0-1 horizontal on a row of pixel centres, with the third
        # vertex above or below it, and vertices on or between centres
        out = general.copy()
        out[:, 1, 1] = out[:, 0, 1] = np.floor(out[:, 0, 1]) + 0.5
        out[::2, :2, 0] = np.floor(out[::2, :2, 0]) + 0.5
        return out
    if case == "ulp-off-centre":
        # every coordinate on a line of pixel centres or one ulp either side
        on = np.floor(general) + 0.5
        return np.nextafter(on, on + rng.choice([-1.0, 0.0, 1.0], on.shape))
    if case == "rounded-crossing":
        # vertex 1 on a pixel centre, reached from vertex 0 at a slope
        # dx / dy whose line crosses vertex 1's row a little left of it in
        # float, dy * fl(dx / dy) < dx; vertex 2 below vertex 1
        out = np.floor(rng.uniform(0.0, [width, height], (24, 3, 2))) + 0.5
        dx, dy = np.mgrid[-300:300, 1:300].reshape(2, -1)
        left = np.flatnonzero(dy * (dx / dy) < dx)
        out[:, 0] = out[:, 1] - np.stack([dx, dy], axis=1)[rng.choice(left, 24)]
        out[:, 2] = out[:, 1] + rng.integers([-20, 1], [20, 20], (24, 2))
        return out
    if case == "near-level":
        # edge 0-1 all but level, |dy| = 1e-12 |dx|, from a pixel centre or
        # from a row of them
        out = general.copy()
        out[:, 0, 1] = np.floor(out[:, 0, 1]) + 0.5
        out[::2, 0, 0] = np.floor(out[::2, 0, 0]) + 0.5
        slope = rng.choice([-1e-12, 1e-12], 24)
        out[:, 1, 1] = out[:, 0, 1] + slope * (out[:, 1, 0] - out[:, 0, 0])
        return out
    # far off-screen: one vertex, or every vertex, at +-1e6 px
    out = general.copy()
    far = rng.choice([-1e6, 1e6], (24, 2))
    out[:8, 0] = far[:8]
    out[8:16, 2, 0] = far[8:16, 0]
    out[16:] = far[16:, None] * [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]
    return out


EDGE_CASES = ["half-integer", "centre-row-edges", "ulp-off-centre", "rounded-crossing",
              "near-level", "far-off-screen"]


@pytest.mark.parametrize("case", EDGE_CASES)
def test_hard_edge_cases_match_all_pixels_edge_test(case):
    width, height = 40, 32
    tris = _edge_case_triangles(case, np.random.default_rng(31), width, height)
    n = len(tris)
    faces = np.arange(3 * n).reshape(-1, 3)
    # one image per triangle, so that no triangle hides under another
    occ = render.hard_occupancy(np.stack([tris.reshape(-1, 2)] * n), faces,
                                np.eye(n, dtype=bool), width, height)
    for i in range(n):
        np.testing.assert_array_equal(occ[i], _brute_hard(tris[i:i + 1], width, height))
    covered = occ.sum(axis=(1, 2))
    assert ((covered > 0) & (covered < width * height)).sum() >= n // 2
    # all of them in one image, beside an image with a NaN vertex
    verts = np.stack([tris.reshape(-1, 2)] * 2)
    verts[1, 4, 1] = np.nan
    occ = render.hard_occupancy(verts, faces, np.ones((2, n), bool), width, height)
    np.testing.assert_array_equal(occ[0], _brute_hard(tris, width, height))
    assert np.isnan(occ[1]).all()


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


SLIVER = render._orient_ccw(np.array([[[0.0, 0.7], [0.7, 0.0], [128.0, 128.0]]]))[0]


@pytest.mark.parametrize("halo", [0.0, 3.0 * np.sqrt(render.default_sigma_r(128)) + 0.5])
def test_diagonal_sliver_pairs_follow_its_length(halo):
    # a 1 px wide sliver from corner to corner of a 128 px image, and at
    # halo h > 0 its long edge as a segment: the bounding box holds every
    # pixel, the spans about 4h + 3 per row
    if halo:
        spans = render._segment_spans(SLIVER[:, 1:], 128, 128, halo)
    else:
        spans = render._spans(SLIVER, 128, 128)
    assert 128 <= spans[3].sum() <= 128 * 2 * (2 * halo + 3)


@pytest.mark.parametrize("size", [64, 128, 256])
def test_segment_pairs_run_in_segment_order_once_each(size):
    # the soft raster takes a cell's lowest pair at the minimum as its lowest
    # edge there: that holds when the pairs come in nondecreasing segment
    # order and no segment visits a pixel twice
    rng = np.random.default_rng(size)
    a = rng.uniform(-0.2 * size, 1.2 * size, (80, 2))
    b = a + rng.normal(0.0, 0.2 * size, (80, 2))
    b[:15, 1] = a[:15, 1]                                # level
    b[15:30, 0] = a[15:30, 0]                            # vertical
    b[30:40] = a[30:40]                                  # zero length
    a[40:60] = np.round(a[40:60]) + 0.5                  # on pixel centers
    b[40:60] = np.round(b[40:60]) + 0.5
    h = 3.0 * np.sqrt(render.default_sigma_r(size)) + 0.5
    e, px, py = render._pairs(*render._segment_spans(np.stack([a, b], axis=1), size, size, h))
    assert len(np.unique(e)) > 40
    assert (np.diff(e) >= 0).all()
    cell = (e * np.int64(size) + py) * size + px
    assert len(np.unique(cell)) == len(cell)


def test_coverage_pass_visits_covered_pixels_and_rounding_guard_only():
    # at h = 0 a row's span is its cut through the triangle widened by
    # ~1e-12 px, so a visited pixel it does not cover is a span end
    _, row, _, cnt = render._spans(SLIVER, 128, 128)
    covered = _brute_hard(SLIVER, 128, 128)
    assert covered.sum() >= 128
    assert cnt.sum() <= covered.sum() + 2 * len(row)


# ------------------------------------------------------------- soft raster

ONE_PART = np.zeros(1, dtype=np.int64)  # the part of a lone triangle


def test_soft_pixel_on_edge_is_half():
    verts = np.array([[[31.5, 10.0], [31.5, 50.0], [60.0, 30.0]]])
    faces = np.array([[0, 1, 2]])
    occ = soft_occupancy(verts, faces, ONE_PART, np.ones((1, 1), bool), 64, 64,
                         sigma_r=0.41)
    assert occ[0, 29, 31] == 0.5


def test_soft_saturation_inside_and_outside():
    verts = np.array([[[10.0, 10.0], [50.0, 10.0], [30.0, 50.0]]])
    faces = np.array([[0, 1, 2]])
    occ = soft_occupancy(verts, faces, ONE_PART, np.ones((1, 1), bool), 64, 64,
                         sigma_r=0.41)
    assert occ[0, 25, 29] > 1.0 - 1e-9      # deep inside
    assert occ[0, 1, 1] < 1e-9              # far outside (beyond halo: exactly 0)


def test_soft_zero_area_triangle_covers_nothing():
    # three collinear vertices on a row of pixel centers, x 10 -> 30: no
    # pixel center is inside, so none may read 0.5 or more
    verts = np.array([[[10.0, 20.5], [30.0, 20.5], [20.0, 20.5]]])
    occ = soft_occupancy(verts, np.array([[0, 1, 2]]), ONE_PART, np.ones((1, 1), bool),
                         64, 64, sigma_r=0.41)
    assert occ.max() < 0.5


def test_soft_rejects_bad_temperature():
    # unchecked, nan would give a 0/1 mask with no halo and inf 0.5 at
    # every visited pixel
    verts = np.array([[[10.0, 10.0], [50.0, 10.0], [30.0, 50.0]]])
    for bad in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match=f"sigma_r .* got {bad!r}"):
            soft_occupancy(verts, np.array([[0, 1, 2]]), ONE_PART,
                           np.ones((1, 1), bool), 64, 64, sigma_r=bad)


def test_soft_growth_monotone():
    verts = np.array([[[20.0, 20.0], [44.0, 22.0], [30.0, 44.0]]])
    faces = np.array([[0, 1, 2]])
    occ0 = soft_occupancy(verts, faces, ONE_PART, np.ones((1, 1), bool), 64, 64,
                          sigma_r=0.41)
    centroid = verts.mean(axis=1, keepdims=True)
    grown = centroid + (verts - centroid) * 1.15
    occ1 = soft_occupancy(grown, faces, ONE_PART, np.ones((1, 1), bool), 64, 64,
                          sigma_r=0.41)
    assert np.all(occ1 - occ0 >= -1e-12)


def test_soft_closed_box_face_on_matches_front_quad():
    # seen face-on, only the front face's outline is contour: the back faces,
    # the side faces and the diagonals inside each face must add no halo
    c = cam(fx=100.0, size=64)
    ident = se3.RigidTransform.identity()
    closed = rasterize([(mesh.box(0.4, 0.4, 1.0, 1.3), ident)], c, "soft", sigma_r=0.41)
    front = rasterize([(quad_mesh(side=0.4), ident)], c, "soft", sigma_r=0.41)
    np.testing.assert_allclose(closed.sum(), front.sum(), rtol=0.01)


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
    occ = soft_occupancy(v, np.array([[0, 1, 2]]), ONE_PART, np.ones((2, 1), bool),
                         64, 64, sigma_r=0.41)
    assert len(tape) == nodes + 1  # one fused node
    assert np.isfinite(ad._val(occ)[0]).all()
    assert np.isnan(ad._val(occ)[1]).all()
    grad = ad.backward(weighted_sum(occ, 1.0))[v.nid]
    assert np.isfinite(grad[0]).all()
    assert np.isnan(grad[1]).all()


def visible_config(rng):
    base = np.array([0.05, -0.05, 0.13, 0.4, 0.1, -0.2, 0.5])
    jitter = rng.uniform(-1, 1, 7) * np.array([0.06, 0.06, 0.02, 0.5, 0.25, 0.25, 0.25])
    return base + jitter


def test_soft_converges_to_hard_mask():
    # the soft sign is the hard coverage: soft > 0.5 is the hard mask at every
    # pixel off the outline (a pixel center on a contour edge reads 0.5)
    rng = np.random.default_rng(404)
    for size in (64, 128):
        sc = scene.reference_scene(size)
        for _ in range(6):
            q = visible_config(rng)[None]
            hard = scene.render_masks(sc, sc.base.rotation[None], sc.base.translation[None],
                                      q, "hard")[0]
            soft = scene.render_masks(sc, sc.base.rotation[None], sc.base.translation[None],
                                      q, "soft")[0]
            assert hard.sum() > 50  # tool visibly in frame
            off = soft != 0.5
            np.testing.assert_array_equal((soft > 0.5)[off], (hard == 1.0)[off])


def test_soft_call_memory_follows_the_outline():
    # one taped call at 128 px keeps per distance pair only its edge, pixel
    # and squared distance: its allocations peak far below the ~1.9 MB that
    # fifteen pair-length temporaries and a full-image int64 table take
    sc = scene.reference_scene(128)
    q = visible_config(np.random.default_rng(2))[None]
    _, world = scene.posed_points(sc, sc.base.rotation[None], sc.base.translation[None], q)
    xy = render.project(sc.camera, world)
    v = len(sc.verts_local)
    verts = ad.leaf(ad.Tape(), xy[:, :v])
    valid = render.face_validity(world[:, :v, 2], sc.faces, sc.camera, "soft")
    tracemalloc.start()
    try:
        occ = render.soft_occupancy(verts, sc.faces, sc.face_edges, sc.face_parts, valid,
                                    128, 128, sc.sigma_r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ad._val(occ).sum() > 500  # tool visibly in frame
    assert peak < 900 * 1024, peak


def test_soft_gradients_match_finite_differences_ten_params():
    # perturbations act in the normalized (dimensionless) parameter space of
    # the correction vector; a raw 1e-4 step in meters would exceed the soft
    # band's metric length scale and be dominated by FD truncation
    sc = scene.reference_scene(64)
    q_vis = np.array([0.4, 0.1, -0.2, 0.5])
    q_first = np.array([0.05, -0.05, 0.13])
    pose0, _ = se3.transform_to_euler(sc.base)
    params0 = np.concatenate([pose0, q_vis])
    scale = np.array([0.175] * 3 + [0.02] * 3 + [0.25] * 4)

    def f(pn):
        # p = params0 + scale * pn, as one node on the (1, 10) leaf
        p = ad.from_op(params0 + scale * ad._val(pn), [pn] if isinstance(pn, ad.DiffValue)
                       else [], lambda g: (g * scale,))
        xy, depth = scene.project_theta(sc, p, q_first[None])
        return weighted_sum(scene.render_points(sc, xy, depth, "soft"), 1.0)

    rep = finite_diff_check(f, np.zeros((1, 10)), epsilon=1e-4, tolerance=1e-3)
    assert rep.passed, rep


def test_project_theta_points_are_the_rasterized_points(monkeypatch):
    # the node's value, taped, is what render_pose projects: the vertices and
    # face validity it rasterizes and the keypoints it returns, to the bit
    sc = scene.reference_scene(64)
    rng = np.random.default_rng(12)
    pose, _ = se3.transform_to_euler(sc.base)
    q = np.stack([visible_config(rng) for _ in range(3)])
    base = pose + rng.uniform(-1, 1, (3, 6)) * ([0.05] * 3 + [0.005] * 3)
    seen = {}
    hard = render.hard_occupancy

    def record(xy, faces, valid, *rest):
        seen.update(xy=xy, valid=valid)
        return hard(xy, faces, valid, *rest)

    monkeypatch.setattr(render, "hard_occupancy", record)
    _, kps = scene.render_pose(sc, se3.euler_to_matrix(base[:, :3]), base[:, 3:], q, "hard")
    theta = ad.leaf(ad.Tape(), np.concatenate([base, q[:, 3:]], axis=1))
    xy, depth = scene.project_theta(sc, theta, q[:, :3])
    np.testing.assert_array_equal(ad._val(xy), seen["xy"])
    np.testing.assert_array_equal(ad._val(xy)[:, len(sc.verts_local):], kps)
    np.testing.assert_array_equal(
        render.face_validity(depth, sc.faces, sc.camera, "hard"), seen["valid"])


def _posed_tool(size, seed):
    """The 64 px or 128 px scene and its projected points (1, V + K, 2) and
    depths (1, V + K) at a visible configuration."""
    sc = scene.reference_scene(size)
    q = visible_config(np.random.default_rng(seed))[None]
    _, world = scene.posed_points(sc, sc.base.rotation[None], sc.base.translation[None], q)
    return sc, render.project(sc.camera, world), world[..., 2]


def test_soft_rows_no_face_uses_get_zero_gradient():
    # the keypoint rows ride along with the vertices: the image and the
    # vertex rows' VJP equal the vertex-only call's bit for bit, and the
    # keypoint rows get exactly 0
    sc, xy, depth = _posed_tool(64, 13)
    v = len(sc.verts_local)
    valid = render.face_validity(depth, sc.faces, sc.camera, "soft")
    g = np.random.default_rng(14).normal(size=(1, 64, 64))

    def run(points):
        p = ad.leaf(ad.Tape(), points)
        occ = render.soft_occupancy(p, sc.faces, sc.face_edges, sc.face_parts, valid,
                                    64, 64, sc.sigma_r)
        return ad._val(occ), ad.backward(weighted_sum(occ, g))[p.nid]

    (occ, grad), (occ_v, grad_v) = run(xy), run(xy[:, :v])
    assert xy.shape[1] > v and np.count_nonzero(grad_v)
    np.testing.assert_array_equal(occ, occ_v)
    np.testing.assert_array_equal(grad[:, :v], grad_v)
    np.testing.assert_array_equal(grad[:, v:], 0.0)


@pytest.mark.parametrize("call", ["face_validity", "render_points"])
def test_unknown_render_mode_rejected(call):
    sc, xy, depth = _posed_tool(64, 15)
    for mode in ("Hard", "bogus", "soft "):
        with pytest.raises(ValueError, match=f"render mode {mode!r}"):
            if call == "face_validity":
                render.face_validity(depth, sc.faces, sc.camera, mode)
            else:
                scene.render_points(sc, xy, depth, mode)


def test_soft_gradient_zero_without_triangles():
    tape = ad.Tape()
    v = ad.leaf(tape, np.zeros((1, 3, 2)))
    occ = soft_occupancy(v, np.array([[0, 1, 2]]), ONE_PART, np.zeros((1, 1), bool),
                         64, 64, sigma_r=0.41)
    assert ad._val(occ).sum() == 0.0
    np.testing.assert_array_equal(ad.backward(weighted_sum(occ, 1.0))[v.nid], 0.0)


@pytest.mark.parametrize("case", ["off-screen", "nan-vertex"])
def test_soft_vjp_of_single_image_without_pairs(case):
    # no pixel is near a kept triangle, so the VJP scatters nothing: the
    # gradient is zero, or NaN for an image with a non-finite vertex
    verts = np.array([[[10.0, 10.0], [50.0, 10.0], [30.0, 50.0]]])
    if case == "off-screen":
        verts += 1000.0
    else:
        verts[0, 0, 0] = np.nan
    tape = ad.Tape()
    v = ad.leaf(tape, verts)
    occ = soft_occupancy(v, np.array([[0, 1, 2]]), ONE_PART, np.ones((1, 1), bool),
                         64, 64, sigma_r=0.41)
    grad = ad.backward(weighted_sum(occ, 1.0))[v.nid]
    assert grad.dtype == np.float64
    if case == "off-screen":
        np.testing.assert_array_equal(grad, 0.0)
    else:
        assert np.isnan(grad).all()

def _all_spans(tris, width, height, halo=None):
    """Every pixel against every triangle or segment: each row of the
    image, whole, in (triangle, row) order."""
    n = len(tris)
    return (np.repeat(np.arange(n, dtype=np.int32), height),
            np.tile(np.arange(height, dtype=np.int32), n),
            np.zeros(n * height, dtype=np.int32), np.full(n * height, width))


def _assert_soft_matches_all_pairs(monkeypatch, verts, faces, parts, valid, width, height,
                                   sigma_r):
    """Forward and VJP equal an all-pairs evaluation wherever |z| < h^2/sigma_r.
    Returns both occupancies and sigmoid(-h^2/sigma_r)."""
    def run():
        v = ad.leaf(ad.Tape(), verts)
        occ = soft_occupancy(v, faces, parts, valid, width, height, sigma_r)
        return v, occ

    v, occ = run()
    with monkeypatch.context() as m:
        m.setattr(render, "_spans", _all_spans)
        m.setattr(render, "_segment_spans", _all_spans)
        v_ref, occ_ref = run()
    h = 3.0 * np.sqrt(sigma_r) + 0.5
    s_lo, s_hi = ad.stable_sigmoid(np.array([-1.0, 1.0]) * h * h / sigma_r)
    o, o_ref = ad._val(occ), ad._val(occ_ref)
    near = (o_ref > s_lo) & (o_ref < s_hi)
    assert near.sum() > 100
    np.testing.assert_array_equal(o[near], o_ref[near])
    g = np.random.default_rng(5).normal(size=near.shape) * near
    grad = ad.backward(weighted_sum(occ, g))[v.nid]
    grad_ref = ad.backward(weighted_sum(occ_ref, g))[v_ref.nid]
    np.testing.assert_array_equal(grad, grad_ref)
    return o, o_ref, s_lo


def test_soft_tool_scene_matches_all_pairs(monkeypatch):
    sc = scene.reference_scene(64)
    rng = np.random.default_rng(11)
    q = np.stack([visible_config(rng) for _ in range(2)])
    rot = np.repeat(sc.base.rotation[None], 2, axis=0)
    # the projected vertices and face validity scene.render_masks rasterizes
    seen = {}
    soft = render.soft_occupancy

    def record(xy, faces, edges, parts, valid, *rest):
        seen.update(xy=ad._val(xy), valid=valid)
        return soft(xy, faces, edges, parts, valid, *rest)

    with monkeypatch.context() as m:
        m.setattr(render, "soft_occupancy", record)
        scene.render_masks(sc, rot, np.repeat(sc.base.translation[None], 2, axis=0), q, "soft")
    o, o_ref, s_lo = _assert_soft_matches_all_pairs(monkeypatch, seen["xy"], sc.faces,
                                                    sc.face_parts, seen["valid"], 64, 64,
                                                    sc.sigma_r)
    # farther pixels stay saturated: both within sigmoid(-h^2/sigma_r) of 0 or 1
    assert np.abs(o - o_ref).max() <= 1.01 * s_lo


@pytest.mark.parametrize("case", EDGE_CASES)
def test_soft_edge_cases_match_all_pairs(monkeypatch, case):
    # the coverage pass's rounding guard and the halo pass drop nothing that
    # testing every pixel against every triangle and edge would keep
    width, height = 40, 32
    tris = _edge_case_triangles(case, np.random.default_rng(31), width, height)
    n = len(tris)
    # one image per triangle, so that no triangle hides under another
    _assert_soft_matches_all_pairs(monkeypatch, np.stack([tris.reshape(-1, 2)] * n),
                                   np.arange(3 * n).reshape(-1, 3), np.zeros(n, dtype=int),
                                   np.eye(n, dtype=bool), width, height, 0.41)


@pytest.mark.parametrize("sigma_r", [0.41, 2.0])
def test_soft_random_triangles_match_all_pairs(monkeypatch, sigma_r):
    width, height = 48, 40
    tris = _random_triangles(np.random.default_rng(7), 6, width, height)
    faces = np.arange(3 * len(tris)).reshape(-1, 3)
    _assert_soft_matches_all_pairs(monkeypatch, tris.reshape(1, -1, 2), faces,
                                   np.arange(len(tris)), np.ones((1, len(tris)), bool),
                                   width, height, sigma_r)


# -------------------------------------------- per-part oracle, brute force

def _oracle_soft(tris, width, height, sigma_r):
    """Single-triangle parts, every pixel center against every edge: each
    part's signed squared distance to its outline, the max over parts (ties
    to the first part), and the gradient of each pixel's occupancy w.r.t.
    the (N, 3, 2) vertices by the envelope theorem on the winner's nearest
    edge. Returns occupancy (H, W), winner's d2 (H, W), gradient (H, W, N, 3, 2)."""
    x = np.arange(width)[None, :] + 0.5
    y = np.arange(height)[:, None] + 0.5
    z, nearest = [], []
    for tri in tris:
        per_edge = []
        for k in range(3):
            a, b = tri[k], tri[(k + 1) % 3]
            ab = b - a
            t = np.clip(((x - a[0]) * ab[0] + (y - a[1]) * ab[1]) / (ab @ ab), 0.0, 1.0)
            rx, ry = x - a[0] - t * ab[0], y - a[1] - t * ab[1]
            per_edge.append((rx * rx + ry * ry, t, rx, ry))
        k_min = np.argmin([d2 for d2, _, _, _ in per_edge], axis=0)
        d2, t, rx, ry = (np.choose(k_min, [e[i] for e in per_edge]) for i in range(4))
        sign = np.where(_brute_hard(tri[None], width, height), 1.0, -1.0)
        z.append(sign * d2 / sigma_r)
        nearest.append((k_min, d2, t, rx, ry, sign))
    best = np.argmax(z, axis=0)
    occ = np.exp(-np.logaddexp(0.0, -np.choose(best, z)))  # sigmoid, without overflow
    grad = np.zeros((height, width, len(tris), 3, 2))
    rows, cols = np.indices((height, width))
    for p, (k_min, d2, t, rx, ry, sign) in enumerate(nearest):
        won = best == p
        do_dd2 = occ * (1.0 - occ) * sign / sigma_r
        r = np.stack([rx, ry], axis=-1)
        for k, weight in ((k_min, 1.0 - t), ((k_min + 1) % 3, t)):
            grad[rows[won], cols[won], p, k[won]] += (-2.0 * (do_dd2 * weight)[..., None] * r)[won]
    return occ, np.choose(best, [n[1] for n in nearest]), grad


# part A small; B large around it, with its edges far from A; A2 a copy of A
# with the same outline; C overlapping A's lower right
_PART_A = [[24.3, 22.7], [40.1, 25.2], [30.6, 39.4]]
_PART_B = [[-20.0, -30.0], [110.0, 10.0], [5.0, 100.0]]
_PART_C = [[35.2, 30.9], [60.3, 35.4], [44.8, 60.1]]


def _assert_soft_matches_oracle(verts, faces):
    """Image 0 of a B = 2 batch holds the faces, one part each, and matches
    _oracle_soft; image 1 has no valid face, so no contour edge at all."""
    width = height = 64
    sigma_r = 0.41
    h = 3.0 * np.sqrt(sigma_r) + 0.5
    n = len(faces)
    valid = np.array([[True] * n, [False] * n])
    o_ref, d2_ref, grad_ref = _oracle_soft(verts[faces], width, height, sigma_r)

    def run(g):
        v = ad.leaf(ad.Tape(), np.stack([verts] * 2))
        occ = soft_occupancy(v, faces, np.arange(n), valid, width, height, sigma_r)
        return ad._val(occ), ad.backward(weighted_sum(occ, g))[v.nid]

    o, _ = run(np.zeros((2, height, width)))
    # where the winning part's outline is within the halo, the raster is the
    # oracle; elsewhere it is within sigmoid(-h^2/sigma_r) of it
    near = d2_ref < 0.9 * h * h
    assert near.sum() > 100
    np.testing.assert_allclose(o[0][near], o_ref[near], rtol=1e-12, atol=1e-15)
    assert np.abs(o[0] - o_ref).max() <= 1.0 / (1.0 + np.exp(h * h / sigma_r))
    np.testing.assert_array_equal(o[1], 0.0)
    g = np.random.default_rng(3).normal(size=(2, height, width)) * [near, np.ones_like(near)]
    _, grad = run(g)
    expected = np.zeros_like(verts)
    np.add.at(expected, faces, np.einsum("hw,hwpkc->pkc", g[0], grad_ref))
    np.testing.assert_allclose(grad[0], expected, rtol=1e-9, atol=1e-12)
    np.testing.assert_array_equal(grad[1], 0.0)


@pytest.mark.parametrize("parts", [[_PART_A, _PART_B], [_PART_A, _PART_A, _PART_C]],
                         ids=["nested", "coincident"])
def test_soft_matches_per_part_oracle(parts):
    n = len(parts)
    _assert_soft_matches_oracle(np.array(parts, dtype=float).reshape(-1, 2),
                                np.arange(3 * n).reshape(n, 3))


def test_soft_parts_sharing_a_vertex_stay_two_parts():
    # the second triangle starts at A's third vertex, one vertex index for
    # both faces, and crosses A; labelled as two parts, they match the
    # per-part oracle, where one part (the faces' connected component) would
    # put an outline inside A
    verts = np.array(_PART_A + [[33.9, 17.2], [55.3, 31.8]])
    _assert_soft_matches_oracle(verts, np.array([[0, 1, 2], [2, 3, 4]]))


def test_scene_parts_are_its_closed_link_meshes():
    # one part per link mesh, in vert_slices order; each is closed and
    # consistently wound: every directed edge once, and its reverse once
    sc = scene.reference_scene(64)
    assert sc.face_parts.shape == (len(sc.faces),)
    vertex_sets = []
    for p, (ji, lo, _) in enumerate(sc.vert_slices):
        faces = sc.faces[sc.face_parts == p]
        np.testing.assert_array_equal(faces - lo, sc.meshes[sc.chain.joints[ji].mesh].faces)
        edges = np.stack([faces, np.roll(faces, -1, axis=1)], axis=-1).reshape(-1, 2)
        directed = set(map(tuple, edges.tolist()))
        assert len(directed) == len(edges)
        assert directed == {(b, a) for a, b in directed}
        vertex_sets.append(set(faces.ravel().tolist()))
    assert sc.face_parts.max() == len(sc.vert_slices) - 1
    # no two parts share a vertex
    assert sum(map(len, vertex_sets)) == len(set().union(*vertex_sets))


def test_scene_edge_table_numbers_each_mesh_edge_once():
    # edge k of face f (vertex k to k + 1) is the undirected edge
    # face_edges[f, k], numbered in (lower vertex, higher vertex) order; on
    # the closed link meshes every edge has two faces
    sc = scene.reference_scene(64)
    np.testing.assert_array_equal(sc.face_edges, render.face_edges(sc.faces))
    a, b = sc.faces, np.roll(sc.faces, -1, axis=1)
    ends = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=-1).reshape(-1, 2)
    np.testing.assert_array_equal(np.unique(ends, axis=0)[sc.face_edges.reshape(-1)], ends)
    np.testing.assert_array_equal(np.bincount(sc.face_edges.reshape(-1)), 2)


def _one_pixel_gradient(tris, row, col, width=64, height=64, sigma_r=0.41):
    """(occupancy, gradient of the occupancy of one pixel) of single-triangle parts."""
    n = len(tris)
    v = ad.leaf(ad.Tape(), np.asarray(tris, dtype=float).reshape(1, -1, 2))
    occ = soft_occupancy(v, np.arange(3 * n).reshape(n, 3), np.arange(n),
                         np.ones((1, n), bool), width, height, sigma_r)
    g = np.zeros((1, height, width))
    g[0, row, col] = 1.0
    return ad._val(occ)[0], ad.backward(weighted_sum(occ, g))[v.nid].reshape(n, 3, 2)


def test_soft_pixel_inside_part_beyond_its_halo_reads_one():
    # pixel (22, 32) is 1.5 px outside A, so A's halo reaches it, and deep
    # inside B, whose edges do not reach it: B's term is +inf, so the pixel
    # reads 1 and passes no gradient to either part
    sigma_r = 0.41
    h = 3.0 * np.sqrt(sigma_r) + 0.5
    tris = np.array([_PART_A, _PART_B])
    _, d2, _ = _oracle_soft(tris[:1], 64, 64, sigma_r)
    assert d2[22, 32] < h * h
    assert not _brute_hard(tris[:1], 64, 64)[22, 32]
    assert _brute_hard(tris[1:], 64, 64)[22, 32]
    assert _oracle_soft(tris[1:], 64, 64, sigma_r)[1][22, 32] > (h + 10.0) ** 2
    occ, grad = _one_pixel_gradient(tris, 22, 32)
    assert occ[22, 32] == 1.0
    np.testing.assert_array_equal(grad, 0.0)
    # alone, A gives the pixel a soft value and a gradient
    occ_a, grad_a = _one_pixel_gradient(tris[:1], 22, 32)
    assert 0.0 < occ_a[22, 32] < 0.5
    assert np.abs(grad_a).max() > 0.0


def test_soft_coincident_outlines_go_to_the_first_part():
    # A and its copy A2 tie at every pixel near their common outline: the
    # first part wins, and the pixel's gradient reaches only its vertices,
    # exactly as A alone would give
    tris = np.array([_PART_A, _PART_A, _PART_C])
    occ_a, grad_a = _one_pixel_gradient(tris[:1], 22, 32)
    occ, grad = _one_pixel_gradient(tris, 22, 32)
    assert occ[22, 32] == occ_a[22, 32]
    assert np.abs(grad_a).max() > 0.0
    np.testing.assert_array_equal(grad[0], grad_a[0])
    np.testing.assert_array_equal(grad[1:], 0.0)


def test_soft_equidistant_edges_go_to_the_first_edge():
    # pixel (9.5, 9.5) lies 1.5 px from edge AB (y = 8) and from edge CA
    # (x = 8), with the same d2 to the bit; AB, the first edge (the lower
    # vertex pair), wins, so the gradient moves A and B along y only
    occ, grad = _one_pixel_gradient([[[8.0, 8.0], [24.0, 8.0], [8.0, 24.0]]], 9, 9)
    assert 0.5 < occ[9, 9] < 1.0
    np.testing.assert_array_equal(grad[0, :, 0], 0.0)
    np.testing.assert_array_equal(grad[0, 2], 0.0)
    assert (grad[0, :2, 1] != 0.0).all()
