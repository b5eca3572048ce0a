"""Pinhole projection and silhouette rasterization (hard and soft).

Pixel centers sit at (col + 0.5, row + 0.5). The hard rasterizer marks a
pixel when its center is covered by any valid triangle of either projected
winding, using the top-left edge rule, with no depth aggregation
(silhouettes are a union).

The soft rasterizer is a sigmoid of the signed squared distance to the
projected outline. A part is the caller's label of a face: the scene labels
each face with the link mesh it came from, so each closed tool mesh is one
part. An edge is a contour edge when the valid faces that share it do not
lie on both sides of it in the image: a boundary edge, or, on a closed
consistently wound mesh, an edge where a front face meets a back face. For
pixel p and part P,

    O_P(p) = sigmoid(sign_P(p) * d2_P(p) / sigma_r)

with d2_P the squared distance from p to the nearest contour edge of P and
sign_P +1 where a triangle of P covers p (the hard inside test) and -1
elsewhere. The pixel's occupancy is the max of O_P over parts. For a
single triangle this is SoftRas's per-triangle term (Liu et al., ICCV 2019,
arXiv:1904.01786) exactly.

SoftRas aggregates those terms over all triangles as 1 - prod_j(1 - D_j).
On closed meshes every front face, back face and internal edge then adds
its own halo outside the true outline: on the 64 px tool scene the soft
area at the true pose was 1.46x the hard area (mean over 120 frames, range
1.27-1.83), so the silhouette loss had its minimum away from the true pose.
The contour form gives 1.01 (0.98-1.07). The max keeps one outline per
part where parts overlap: a union over parts double-counts halos where
outlines coincide, and one scene-wide sign turns an outline inside another
part into a dip.

Both rasterizers share one coverage pass over pixel-triangle pairs, which
walks scanline spans in (triangle, row) order: the valid triangles of
nonzero area, wound counter-clockwise, with the top-left rule. A triangle
visits the rows of its bounding box, and a row visits the pixel centers
between the crossings of its three edge lines with the row (the row's cut
through the inside test's half-planes), widened by a rounding guard of
8 eps (W + 3 + M) px, with eps = 2^-52, W the image width and M the largest
|x| of the triangle's vertices. With u = eps / 2, the inside test computes
e = dx (y - ay) - dy (x - ax) to within 2u (|dx (y - ay)| + |dy (x - ax)|),
so it can only misjudge a pixel center that lies within about 4u (W + M) of
the exact crossing. The computed crossing ax + (yc - ay) fl(dx / dy) and
the rounding of the span end add about 6u (W + 2M + 3) more, and the sum
stays under the guard, 16u (W + M + 3). A level edge takes or drops its row
whole, by the sign of the test's own e. So in each row no pixel center that
the inside test passes is dropped, and with the tool in view the guard is
below 1e-12 px: a row visits the pixels it covers and at most one more at
either end.

The hard raster keys the covered pixels by image, the soft raster by (part,
image), which gives sign_P. The soft raster then makes one distance pass
over pixel-segment pairs: each contour edge AB of an image goes in once, as
the segment AB with halo h = 3 sqrt(sigma_r) + 0.5 px. The segment visits
the rows of its bounding box widened by h, and a row visits the x-range of
the segment clipped to the band [yc - h, yc + h] around the row's center
yc, widened by h plus a one-pixel guard against rounding, so every pixel
center within h of the edge is visited. That visited set is part of the
soft raster's output (see below), so its guard stays a whole pixel. The two
passes share the row expansion. d2_P is the minimum over the visited edges
of P. A pixel farther than h from every contour edge of P has
|z| > h^2/sigma_r for P, at most sigmoid(-9) = 1.2e-4 away from 0 or 1; if
no edge of P visits it, d2_P is infinite and it reads exactly 1 inside P and
0 outside. The contour edges come from the mesh's edge table
(:func:`face_edges`), which the caller builds once for its faces.

Past the coverage pass and one boolean union over parts, the soft raster's
work and memory follow the outline. A distance pair keeps its edge, its
(visited pixel, part) cell, its d2, and the nearest point's t and p - q. A
cell's pixel is numbered by its rank among the visited pixels, read from a
transient int32 running count over the image. The nearest edge of each cell
is a scatter-min of d2 followed by a scatter-min of the pair index among
the pairs at that minimum, with no sort. Pairs run in segment order and a
segment visits a pixel once, so that lowest pair is the lowest edge: ties go
to the first edge. Only the pairs at a cell's minimum outlive that step. The
max over parts is a sweep over the P part columns with a strict > (ties to
the first part). It and the sigmoid run only at the pixels some contour
edge visits, with d2 infinite for a part none of whose edges reaches the
pixel; every other pixel reads 1 where a part covers it and 0 elsewhere,
which is the sigmoid of +-inf. The gradient w.r.t. projected vertices is
hand-derived (envelope theorem on the pixel's one winning contour edge) and
exposed as a single fused autodiff op. It keeps per pixel the winning edge,
that pair's t and p - q from the forward pass, and dO/dd2, so its VJP
recomputes nothing.

On the 128 px tool scene (median over the 36 soft-raster calls of a
`track` round, range in brackets), the coverage pass visits 2,500 pairs
(530-4,000), every one of them covered, 58x fewer than the triangles'
bounding boxes (29-81x); the one-pixel guard it had before visited 7,400.
The distance pass visits 6,500 pairs (4,500-6,700) of 38 contour edges and
2,600 of the 16,384 pixels, and the two passes together 20x fewer pairs
than the bounding boxes widened by h where a triangle owns a contour edge
(6-32x). A taped call peaks at 510 KB of allocations (340-555 KB), 130 KB
of them the returned image; the t and p - q that every pair keeps until the
cell stage cost about 120 KB of that against recomputing them in the VJP.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

_HALO_SIGMAS = 3.0     # contour-edge halo in units of sqrt(sigma_r)


@dataclass(frozen=True)
class PinholeCamera:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    near: float = 0.01
    far: float = 1.0

    def __post_init__(self):
        if not np.isfinite([self.fx, self.fy, self.cx, self.cy]).all():
            raise ValueError("intrinsics must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not 0 < self.near < self.far:
            raise ValueError("require 0 < near < far")
        if not all(isinstance(n, numbers.Integral) for n in (self.width, self.height)):
            raise ValueError("image width and height must be integers")
        if self.width < 16 or self.height < 16:
            raise ValueError("image must be at least 16x16")


def default_camera(size: int = 128) -> PinholeCamera:
    """Default intrinsics: 150 px focal length at the 128 px reference size,
    scaled with resolution so the framing is resolution-invariant."""
    f = 150.0 * size / 128.0
    return PinholeCamera(f, f, size / 2.0, size / 2.0, size, size)


def project(camera: PinholeCamera, points: np.ndarray):
    """Project camera-frame points (..., 3) to pixels (..., 2).

    The camera looks down +Z. Points with Z <= near are projected with Z
    clamped to near so losses stay continuous. Returns a plain array;
    ``scene.project_theta`` carries the derivative of this map in its
    Jacobian.
    """
    p = np.asarray(points, dtype=float)
    z = np.clip(p[..., 2], camera.near, None)
    return np.stack([camera.fx * (p[..., 0] / z) + camera.cx,
                     camera.fy * (p[..., 1] / z) + camera.cy], axis=-1)


# ---------------------------------------------------------------------------
# pixel-triangle pair enumeration

def _rows(ys: np.ndarray, height: int, h: float):
    """(r, row): the rows of the image whose pixel center lies within ``h``
    px of the y-range of points ``ys[r]`` (N, k), in (r, row) order."""
    # clip in float before the integer cast: coordinates may lie far off-screen
    y0 = np.ceil(np.clip(ys.min(axis=1) - h - 0.5, 0, height)).astype(np.int64)
    y1 = np.floor(np.clip(ys.max(axis=1) + h - 0.5, -1, height - 1)).astype(np.int64)
    ny = np.maximum(y1 - y0 + 1, 0)
    r = np.repeat(np.arange(len(ys)), ny)
    row = np.repeat(y0 - (np.cumsum(ny) - ny), ny)
    row += np.arange(len(row))
    return r, row


def _nonempty(r, row, xs, xe):
    """Spans (r, row, xs, cnt) of the column ranges [xs, xe] holding a pixel."""
    keep = np.flatnonzero(xe >= xs)
    xs = xs[keep].astype(np.int32)
    return r[keep], row[keep].astype(np.int32), xs, xe[keep].astype(np.int64) - xs + 1


def _spans(tris: np.ndarray, width: int, height: int):
    """Scanline spans (tri_r, row, xs, cnt): triangle ``tri_r`` visits the
    ``cnt`` >= 1 pixel centers from column ``xs`` in row ``row``, in
    (triangle, row) order, and so every pixel center the inside test of
    :func:`_coverage` can pass (see the module docstring). ``tris`` is
    (N, 3, 2), finite and wound counter-clockwise."""
    tri_r, row = _rows(tris[:, :, 1], height, 0.0)
    yc = row + 0.5
    xl = np.full(len(row), -np.inf)
    xr = np.full(len(row), np.inf)
    for k in range(3):
        ax, ay = tris[:, k, 0], tris[:, k, 1]
        dx, dy = tris[:, (k + 1) % 3, 0] - ax, tris[:, (k + 1) % 3, 1] - ay
        # the edge line crosses the row at ax + (yc - ay) dx / dy; inside lies
        # left of it where dy > 0 (y down) and right of it where dy < 0. A
        # nan crossing bounds nothing (fmax, fmin): an edge's crossing is nan
        # on the side it does not bound, and where it is 0 * inf
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            q = yc - ay[tri_r]
            q *= (dx / dy)[tri_r]
            np.fmax(xl, q + np.where(dy < 0, ax, np.nan)[tri_r], out=xl)
            np.fmin(xr, q + np.where(dy > 0, ax, np.nan)[tri_r], out=xr)
        del q
        # a level edge passes its whole row or none of it, by the sign of
        # the inside test's own e = dx (yc - ay)
        if (dy == 0).any():
            lv = np.flatnonzero((dy == 0)[tri_r])
            t = tri_r[lv]
            e = dx[t] * (yc[lv] - ay[t])
            xl[lv[~((e > 0) | ((e == 0) & (dx[t] < 0)))]] = np.inf
    g = (8.0 * np.finfo(float).eps) * (width + 3.0 + np.abs(tris[:, :, 0]).max(axis=1))
    g = g[tri_r]
    xl = np.ceil(np.clip(xl, -1, width + 1) - g - 0.5)
    xr = np.floor(np.clip(xr, -1, width + 1) + g - 0.5)
    return _nonempty(tri_r, row, np.maximum(xl, 0), np.minimum(xr, width - 1))


def _segment_spans(segs: np.ndarray, width: int, height: int, halo: float):
    """The spans of :func:`_spans` for finite segments ``segs`` (N, 2, 2):
    every pixel center within ``halo`` px of each (see the module
    docstring)."""
    h = float(halo)
    seg_r, row = _rows(segs[:, :, 1], height, h)
    x0 = np.ceil(np.clip(segs[:, :, 0].min(axis=1) - h - 0.5, 0, width))
    x1 = np.floor(np.clip(segs[:, :, 0].max(axis=1) + h - 0.5, -1, width - 1))
    # clip the segment to the band (Liang-Barsky in y); rounding may leave
    # the band's edge row with no part of it
    lo, hi = row + 0.5 - h, row + 0.5 + h
    ax, ay = segs[seg_r, 0, 0], segs[seg_r, 0, 1]
    dx, dy = (segs[:, 1] - segs[:, 0])[seg_r].T
    flat = dy == 0.0
    dy = np.where(flat, 1.0, dy)
    ta, tb = (lo - ay) / dy, (hi - ay) / dy
    s0 = np.where(flat, 0.0, np.maximum(np.minimum(ta, tb), 0.0))
    s1 = np.where(flat, 1.0, np.minimum(np.maximum(ta, tb), 1.0))
    miss = (s0 > s1) | (flat & ((ay < lo) | (ay > hi)))
    xa, xb = ax + s0 * dx, ax + s1 * dx
    xl = np.where(miss, np.inf, np.minimum(xa, xb))
    return _nonempty(seg_r, row, np.maximum(np.ceil(xl - h - 1.5), x0[seg_r]),
                     np.minimum(np.floor(np.maximum(xa, xb) + h + 0.5), x1[seg_r]))


def _pairs(tri_r, row, xs, cnt):
    """(tri, px, py): the pixel-triangle or pixel-segment pairs of spans, in
    span and column order; px and py as int32."""
    tri = np.repeat(tri_r, cnt)
    py = np.repeat(row, cnt)
    px = np.repeat(xs, cnt)
    px += np.arange(len(px)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    return tri, px, py


def _orient_ccw(tris: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (tris with consistent winding, twice-signed-area before flip)."""
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    area2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    flipped = tris.copy()
    neg = area2 < 0
    flipped[neg, 1], flipped[neg, 2] = tris[neg, 2], tris[neg, 1]
    return flipped, area2


def _coverage(tris: np.ndarray, cell: np.ndarray, size: int, width: int,
              height: int) -> np.ndarray:
    """Boolean (size,) array with ``cell[i] + row * width + col`` set for
    every pixel center that CCW triangle i covers under the top-left rule."""
    tri, px, py = _pairs(*_spans(tris, width, height))
    x, y = px + 0.5, py + 0.5
    inside = np.ones(len(tri), dtype=bool)
    for k in range(3):
        ax, ay = tris[:, k, 0], tris[:, k, 1]
        dx, dy = tris[:, (k + 1) % 3, 0] - ax, tris[:, (k + 1) % 3, 1] - ay
        topleft = ((dy == 0) & (dx < 0)) | (dy > 0)  # y-down
        e = dx[tri] * (y - ay[tri]) - dy[tri] * (x - ax[tri])
        inside &= (e > 0) | ((e == 0) & topleft[tri])
    out = np.zeros(size, dtype=bool)
    out[(cell[tri] + py * np.int64(width) + px)[inside]] = True
    return out


def hard_occupancy(verts2d: np.ndarray, faces: np.ndarray, valid: np.ndarray,
                   width: int, height: int) -> np.ndarray:
    """Binary union coverage for batched screen-space geometry.

    verts2d: (B, N, 2) projected points, N >= V, of which the faces index
    the first V; faces: (T, 3); valid: (B, T). Returns (B, H, W) of
    {0.0, 1.0}. An image with a non-finite point, in any of its N rows, is
    all NaN.
    """
    B, T, HW = verts2d.shape[0], faces.shape[0], height * width
    finite = np.isfinite(verts2d).all(axis=(1, 2))
    tris, area2 = _orient_ccw(verts2d[:, faces, :].reshape(-1, 3, 2))
    sel = np.flatnonzero((valid & finite[:, None]).reshape(-1) & (area2 != 0.0))
    occ = _coverage(tris[sel], sel // T * HW, B * HW, width, height)
    occ = occ.reshape(B, height, width).astype(float)
    occ[~finite] = np.nan
    return occ


def face_edges(faces: np.ndarray) -> np.ndarray:
    """(T, 3) index of face edge k (vertex k to k + 1) among the mesh's
    undirected edges, numbered in order of (lower vertex, higher vertex).
    :func:`soft_occupancy` takes it for the same ``faces``."""
    a, b = faces, faces[:, [1, 2, 0]]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    _, edge = np.unique(lo * (int(hi.max(initial=0)) + 1) + hi, return_inverse=True)
    return edge.reshape(faces.shape)


def _contour_edges(area2: np.ndarray, faces: np.ndarray, edges: np.ndarray,
                   parts: np.ndarray, valid: np.ndarray, kept: np.ndarray):
    """(image, start, end, part) of each contour edge of each image that a
    kept face owns, in (image, edge) order; start and end are vertex indices,
    in the order the kept faces that own the edge run it counter-clockwise.

    ``area2`` (B, T) is each face's projected signed area in face order. A
    valid face lies left or right of each of its projected edges; an edge is
    a contour edge when its valid faces do not lie on both sides.
    """
    B, n_edges = area2.shape[0], int(edges.max(initial=-1)) + 1
    a, b = faces, faces[:, [1, 2, 0]]
    lo, hi, part = np.zeros((3, n_edges), dtype=np.int64)
    lo[edges], hi[edges], part[edges] = np.minimum(a, b), np.maximum(a, b), parts[:, None]
    # +1 where a face lies on the side of the edge that it runs from lo to hi
    side = np.where(valid, np.sign(area2), 0.0)[:, :, None] * np.where(a < b, 1.0, -1.0)
    side = side.reshape(-1)
    flat = (np.arange(B)[:, None, None] * n_edges + edges).reshape(-1)
    left, right, owned = np.zeros((3, B * n_edges), dtype=bool)
    left[flat[side > 0]] = True
    right[flat[side < 0]] = True
    owned[flat[np.repeat(kept.reshape(-1), 3)]] = True
    contour = np.flatnonzero(owned & ~(left & right))
    img, edge = np.divmod(contour, n_edges)
    # the kept faces that own a contour edge lie on one side of it, so they
    # all run it the same way
    up = left[contour]
    return img, np.where(up, lo[edge], hi[edge]), np.where(up, hi[edge], lo[edge]), part[edge]


def _to_segments(segs: np.ndarray, e: np.ndarray, px: np.ndarray, py: np.ndarray):
    """(t, rx, ry): the nearest point q = A + t(B - A) of segment ``e`` to
    the pixel center p = (px + 0.5, py + 0.5), and p - q."""
    ax, ay = segs[:, 0, 0], segs[:, 0, 1]
    abx, aby = segs[:, 1, 0] - ax, segs[:, 1, 1] - ay
    len2 = np.maximum(abx * abx + aby * aby, 1e-30)
    rx = px + 0.5
    rx -= ax[e]
    ry = py + 0.5
    ry -= ay[e]
    # in place, with one pair-length temporary at a time
    t = abx[e]
    t *= rx
    q = aby[e]
    q *= ry
    t += q
    del q
    t /= len2[e]
    np.clip(t, 0.0, 1.0, out=t)
    q = abx[e]
    q *= t
    rx -= q
    del q
    q = aby[e]
    q *= t
    ry -= q
    return t, rx, ry


def soft_occupancy(verts2d, faces: np.ndarray, edges: np.ndarray, parts: np.ndarray,
                   valid: np.ndarray, width: int, height: int, sigma_r: float):
    """Soft silhouette coverage, differentiable w.r.t. ``verts2d``.

    verts2d: (B, N, 2) array or DiffValue of projected points, N >= V, of
    which the faces index the first V; faces: (T, 3); edges: the
    :func:`face_edges` of ``faces``; parts: (T,) part index of each face, 0
    to P - 1, where faces of different parts share no edge; valid: (B, T)
    marks triangles to rasterize (callers exclude fully-behind-camera faces).
    Returns (B, H, W). An image with a non-finite point, in any of its N
    rows, is all NaN, and so is the gradient w.r.t. its points. The rows no
    face indexes get an exactly zero gradient.
    """
    if not (np.isfinite(sigma_r) and sigma_r > 0):
        raise ValueError(f"sigma_r must be finite and positive, got {sigma_r!r}")
    v2 = ad._val(verts2d)
    B, V = v2.shape[0], v2.shape[1]
    T, HW = faces.shape[0], height * width
    finite = np.isfinite(v2).all(axis=(1, 2))
    valid = valid & finite[:, None]
    tris, area2 = _orient_ccw(v2[:, faces, :].reshape(-1, 3, 2))
    area2 = area2.reshape(B, T)
    # as in the hard raster, a zero-area triangle covers no pixel center;
    # _contour_edges gives it no side, so its edges count only through the
    # faces that share them
    kept = valid & (area2 != 0.0)
    sel = np.flatnonzero(kept)
    P = int(parts.max(initial=0)) + 1
    # cells are (part, image, pixel); a part's sign is +1 where it covers
    inside = _coverage(tris[sel], (parts[sel % T] * B + sel // T) * HW, P * B * HW,
                       width, height).reshape(P, B * HW)
    del tris, sel

    img, ea, eb, edge_part = _contour_edges(area2, faces, edges, parts, valid, kept)
    ea += img * V
    eb += img * V
    # the pairs of edge AB are the pixel centers within the halo of it
    segs = v2.reshape(-1, 2)[np.stack([ea, eb], axis=1)]
    h = _HALO_SIGMAS * np.sqrt(sigma_r) + 0.5
    e, px, py = _pairs(*_segment_spans(segs, width, height, h))
    # the visited pixels, ascending, and cells (visited pixel, part): a
    # pixel's rank among the visited ones comes from a transient running
    # count over the image
    pix = (img * HW)[e]
    pix += py * np.int64(width)
    pix += px
    seen = np.zeros(B * HW, dtype=bool)
    seen[pix] = True
    vis = np.flatnonzero(seen)
    key = np.subtract(np.cumsum(seen, dtype=np.int32)[pix], 1, dtype=np.intp)
    del seen, pix
    covers = inside.take(vis, axis=1).T.reshape(-1)
    occ = inside.any(axis=0)
    del inside
    key *= P
    key += edge_part[e]
    t, rx, ry = _to_segments(segs, e, px, py)
    del px, py
    d2 = rx * rx
    d2 += ry * ry
    # nearest edge per cell: the lowest pair at the minimum. Pairs run in
    # edge order and an edge visits a pixel once, so ties go to the first edge
    z = np.full(len(vis) * P, np.inf)
    np.minimum.at(z, key, d2)
    tie = np.flatnonzero(d2 == z[key])
    del d2
    # only the pairs at a cell's minimum go on, in pair order
    key = key[tie]
    e = e[tie]
    t = t[tie]
    rx = rx[tie]
    ry = ry[tie]
    del tie
    # max over parts, ties to the first part, as a sweep over the P columns
    # with a strict >: argmax for every z but nan. An image with a non-finite
    # point has no pair, so z is nan only where a pair's squares overflow, at
    # coordinates past 1e150 px. A part with no edge in reach reads +inf
    # inside and -inf outside, so a pixel no edge visits reads 1 where some
    # part covers it and 0 elsewhere
    np.negative(z, out=z, where=~covers)
    z /= sigma_r
    z = z.reshape(-1, P)
    top, part = z[:, 0].copy(), np.zeros(len(vis), dtype=np.intp)
    for p in range(1, P):
        part[z[:, p] > top] = p
        np.maximum(top, z[:, p], out=top)
    del z
    best = np.arange(len(vis)) * P
    best += part
    covers = covers[best]
    del part
    # the table, its index and its values share one dtype, intp: with an
    # int32 table, np.minimum.at casts on numpy's slow path, 30x slower
    win = np.full(len(vis) * P, len(e), dtype=np.intp)
    np.minimum.at(win, key, np.arange(len(e)))
    del key
    won = win[best]
    del win, best
    occ = occ.astype(float)
    occ[vis] = ad.stable_sigmoid(top)
    del top
    occ = occ.reshape(B, height, width)
    occ[~finite] = np.nan

    if not isinstance(verts2d, ad.DiffValue):
        return occ

    # envelope theorem on the winning contour edge AB with nearest point
    # q = A + t(B - A): dd2/dA = -2(1-t)(p-q), dd2/dB = -2t(p-q). The
    # forward's t and p - q of the winning pairs are kept
    has = won < len(e)
    pix, won = vis[has], won[has]
    t, rx, ry, e = t[won], rx[won], ry[won], e[won]
    occ_px = occ.reshape(-1)[pix]
    do_dd2 = occ_px * (1.0 - occ_px) * (np.where(covers[has], 1.0, -1.0) / sigma_r)
    del covers, vis, has, won, occ_px
    bad = np.repeat(~finite, V)

    def vjp(g):
        c = np.empty((2, len(pix)))
        np.multiply(-2.0, do_dd2, out=c[0])
        np.multiply(c[0], t, out=c[1])
        c[0] *= 1.0 - t
        # per coordinate, a vertex sums its terms as the start A of a
        # winning edge, in pixel order, then as its end B
        ends = np.concatenate([ea[e], eb[e]])
        gp = g.reshape(-1)[pix]
        grad = np.empty((B * V, 2))
        for j, r in enumerate((rx, ry)):
            w = c * r
            w *= gp
            grad[:, j] = np.bincount(ends, weights=w.reshape(-1), minlength=B * V)
        grad[bad] = np.nan
        return (grad.reshape(B, V, 2),)

    return ad.from_op(occ, [verts2d], vjp)


def face_validity(depths: np.ndarray, faces: np.ndarray, camera: PinholeCamera,
                  mode: str) -> np.ndarray:
    """Per-face inclusion from per-point depths (B, N), of which the faces
    index the first V.

    "hard": all vertices within (near, far); "soft": at least one vertex in
    front of the near plane (fully-behind triangles are excluded). Any
    other mode raises ValueError.
    """
    if mode not in ("hard", "soft"):
        raise ValueError(f"unknown render mode {mode!r}, expected 'hard' or 'soft'")
    z = depths[:, faces]
    if mode == "hard":
        return ((z > camera.near) & (z < camera.far)).all(axis=2)
    return (z > camera.near).any(axis=2)


def default_sigma_r(width: int) -> float:
    """Fixed soft-rasterizer temperature: 1e-4 * W^2 square pixels."""
    return 1e-4 * float(width) ** 2

