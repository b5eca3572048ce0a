"""Pinhole projection and silhouette rasterization (hard and soft).

Pixel centers sit at (col + 0.5, row + 0.5). The hard rasterizer marks a
pixel when its center is covered by any valid triangle of either projected
winding, using the top-left edge rule, with no depth aggregation
(silhouettes are a union).

The soft rasterizer is a sigmoid of the signed squared distance to the
projected outline. A part is a connected component of the face list (each
closed tool mesh is one part). An edge is a contour edge when the valid
faces that share it do not lie on both sides of it in the image: a boundary
edge, or, on a closed consistently wound mesh, an edge where a front face
meets a back face. For pixel p and part P,

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

Both rasterizers share one pixel-triangle pair enumeration, which walks
scanline spans. A triangle with halo h visits the rows of its bounding box
widened by h; in each row it visits the x-range of the triangle clipped to
the band [yc - h, yc + h] around the row's center yc, widened by h plus a
one-pixel guard against rounding. Every pixel center within distance h of
the triangle is visited, in (triangle, row, column) order. The hard
rasterizer uses h = 0: the covered pixels plus two or three per triangle row.
The soft rasterizer gives a triangle that owns a contour edge
h = 3 sqrt(sigma_r) + 0.5 px: a pixel within h of a contour edge is visited
by the triangle that owns the edge, and a farther one has |z| > h^2/sigma_r
(at most sigmoid(-9) = 1.2e-4 away from 0 or 1) and may read its nearest
visited edge or, outside every part, 0. A triangle without a contour edge
only sets the sign of the pixels it covers, so it gets h = 0. On the 128 px
tool scene this visits about 5x fewer soft pairs and 20x fewer hard pairs
than each triangle's bounding box did. The gradient w.r.t. projected vertices
is hand-derived (envelope theorem on the pixel's one winning contour edge)
and exposed as a single fused autodiff op.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad

_PAIR_CHUNK = 1 << 22  # pixel-triangle pairs processed per vectorized block
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
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not 0 < self.near < self.far:
            raise ValueError("require 0 < near < far")
        if self.width < 16 or self.height < 16:
            raise ValueError("image must be at least 16x16")


def default_camera(size: int = 128, near: float = 0.01, far: float = 1.0) -> PinholeCamera:
    """Default intrinsics: 150 px focal length at the 128 px reference size,
    scaled with resolution so the framing is resolution-invariant."""
    f = 150.0 * size / 128.0
    return PinholeCamera(f, f, size / 2.0, size / 2.0, size, size, near, far)


def project(camera: PinholeCamera, points):
    """Project camera-frame points (..., 3) to pixels (..., 2).

    The camera looks down +Z. Points with Z <= near are flagged behind-camera
    and projected with Z clamped to near so losses stay continuous. Returns
    (xy, behind_flags); xy is differentiable when ``points`` is.
    """
    pv = ad._val(points)
    behind = pv[..., 2] <= camera.near
    x = ad.take(points, (..., 0))
    y = ad.take(points, (..., 1))
    z = ad.clamp(ad.take(points, (..., 2)), camera.near, None)
    u = ad.add(ad.mul(camera.fx, ad.div(x, z)), camera.cx)
    v = ad.add(ad.mul(camera.fy, ad.div(y, z)), camera.cy)
    return ad.stack([u, v], axis=-1), behind


@dataclass(frozen=True)
class SilhouetteImage:
    pixels: np.ndarray  # (H, W) in [0, 1]
    kind: str           # "hard" | "soft"

    def __post_init__(self):
        object.__setattr__(self, "pixels", np.asarray(self.pixels, dtype=float))
        if self.kind not in ("hard", "soft"):
            raise ValueError(f"unknown mask kind {self.kind!r}")

    def validate(self) -> None:
        p = self.pixels
        if p.min() < 0.0 or p.max() > 1.0:
            raise ValueError("mask values outside [0, 1]")
        if self.kind == "hard" and not np.all((p == 0.0) | (p == 1.0)):
            raise ValueError("hard mask contains non-binary values")


# ---------------------------------------------------------------------------
# pixel-triangle pair enumeration

def _pair_blocks(tris: np.ndarray, width: int, height: int, halo):
    """Yield (tri_idx, px, py) chunks of the scanline spans that hold every
    pixel center within ``halo`` of each triangle (see the module docstring),
    in (triangle, row, column) order.

    ``tris`` is (N, 3, 2) with finite coordinates; ``halo`` is in px, scalar
    or (N,). Pixel coordinates are centers (col+0.5, row+0.5).
    """
    if len(tris) == 0:
        return
    h = np.broadcast_to(np.asarray(halo, dtype=float), (len(tris),))
    # clip in float before the integer cast: coordinates may lie far off-screen
    x0 = np.ceil(np.clip(tris[:, :, 0].min(axis=1) - h - 0.5, 0, width))
    x1 = np.floor(np.clip(tris[:, :, 0].max(axis=1) + h - 0.5, -1, width - 1))
    y0 = np.ceil(np.clip(tris[:, :, 1].min(axis=1) - h - 0.5, 0, height)).astype(np.int64)
    y1 = np.floor(np.clip(tris[:, :, 1].max(axis=1) + h - 0.5, -1, height - 1)).astype(np.int64)
    ny = np.maximum(y1 - y0 + 1, 0)
    tri_r = np.repeat(np.arange(len(tris)), ny)
    row = np.arange(len(tri_r)) - np.repeat(np.cumsum(ny) - ny - y0, ny)

    # x-range of each triangle within its rows' bands: clip every edge to
    # the band (Liang-Barsky in y) and take the extremes of the clipped ends
    hr = h[tri_r]
    lo, hi = row + 0.5 - hr, row + 0.5 + hr
    xl = np.full(len(row), np.inf)
    xr = np.full(len(row), -np.inf)
    t = tris[tri_r]
    for k in range(3):
        a, d = t[:, k], t[:, (k + 1) % 3] - t[:, k]
        flat = d[:, 1] == 0.0
        dy = np.where(flat, 1.0, d[:, 1])
        ta, tb = (lo - a[:, 1]) / dy, (hi - a[:, 1]) / dy
        s0 = np.where(flat, 0.0, np.maximum(np.minimum(ta, tb), 0.0))
        s1 = np.where(flat, 1.0, np.minimum(np.maximum(ta, tb), 1.0))
        hit = (s0 <= s1) & ~(flat & ((a[:, 1] < lo) | (a[:, 1] > hi)))
        xa, xb = a[:, 0] + s0 * d[:, 0], a[:, 0] + s1 * d[:, 0]
        xl = np.where(hit, np.minimum(xl, np.minimum(xa, xb)), xl)
        xr = np.where(hit, np.maximum(xr, np.maximum(xa, xb)), xr)
    xs = np.maximum(np.ceil(xl - hr - 1.5), x0[tri_r])
    xe = np.minimum(np.floor(xr + hr + 0.5), x1[tri_r])
    keep = xe >= xs
    tri_r, row = tri_r[keep], row[keep]
    xs = xs[keep].astype(np.int64)
    cnt = xe[keep].astype(np.int64) - xs + 1
    ends = np.cumsum(cnt)

    r0 = 0
    while r0 < len(cnt):
        base = ends[r0] - cnt[r0]
        r1 = max(int(np.searchsorted(ends, base + _PAIR_CHUNK, side="right")), r0 + 1)
        c = cnt[r0:r1]
        tri = np.repeat(tri_r[r0:r1], c)
        py = np.repeat(row[r0:r1], c)
        px = np.arange(len(tri)) + np.repeat(xs[r0:r1] - (ends[r0:r1] - c - base), c)
        yield tri, px, py
        r0 = r1


def _orient_ccw(tris: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (tris with consistent winding, twice-signed-area before flip)."""
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    area2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    flipped = tris.copy()
    neg = area2 < 0
    flipped[neg, 1], flipped[neg, 2] = tris[neg, 2], tris[neg, 1]
    return flipped, area2


def _edge_functions(tris: np.ndarray, tri_idx, px, py):
    """Edge function values for pixel centers; positive inside CCW triangles."""
    x = px + 0.5
    y = py + 0.5
    e = np.empty((3, len(tri_idx)))
    for k in range(3):
        a = tris[tri_idx, k]
        b = tris[tri_idx, (k + 1) % 3]
        e[k] = (b[:, 0] - a[:, 0]) * (y - a[:, 1]) - (b[:, 1] - a[:, 1]) * (x - a[:, 0])
    return e


def hard_occupancy(verts2d: np.ndarray, faces: np.ndarray, valid: np.ndarray,
                   width: int, height: int) -> np.ndarray:
    """Binary union coverage for batched screen-space geometry.

    verts2d: (B, V, 2); faces: (T, 3); valid: (B, T). Returns (B, H, W) of
    {0.0, 1.0}. An image with a non-finite vertex is all NaN.
    """
    B = verts2d.shape[0]
    finite = np.isfinite(verts2d).all(axis=(1, 2))
    tris = verts2d[:, faces, :].reshape(-1, 3, 2)
    keep = (valid & finite[:, None]).reshape(-1)
    tris, area2 = _orient_ccw(tris)
    keep = keep & (area2 != 0.0)
    sel = np.flatnonzero(keep)
    tris_k = tris[sel]
    batch_of = sel // faces.shape[0]

    # top-left classification per (kept triangle, edge), CCW winding, y-down
    dx = np.empty((3, len(sel)))
    dy = np.empty((3, len(sel)))
    for k in range(3):
        a, b = tris_k[:, k], tris_k[:, (k + 1) % 3]
        dx[k] = b[:, 0] - a[:, 0]
        dy[k] = b[:, 1] - a[:, 1]
    topleft = ((dy == 0) & (dx < 0)) | (dy > 0)

    out = np.zeros(B * height * width, dtype=bool)
    for tri, px, py in _pair_blocks(tris_k, width, height, 0.0):
        e = _edge_functions(tris_k, tri, px, py)
        inside = np.ones(len(tri), dtype=bool)
        for k in range(3):
            inside &= (e[k] > 0) | ((e[k] == 0) & topleft[k][tri])
        flat = (batch_of[tri] * height + py) * width + px
        out[flat[inside]] = True
    occ = out.reshape(B, height, width).astype(float)
    occ[~finite] = np.nan
    return occ


def _face_parts(faces: np.ndarray, num_verts: int) -> np.ndarray:
    """Connected-component id per face; faces sharing a vertex form one part."""
    label = np.arange(num_verts)
    while True:
        new = label.copy()
        np.minimum.at(new, faces.reshape(-1), np.repeat(label[faces].min(axis=1), 3))
        new = new[new]
        if np.array_equal(new, label):
            return np.unique(label[faces[:, 0]], return_inverse=True)[1].reshape(-1)
        label = new


def _contour_slots(area2: np.ndarray, faces: np.ndarray, valid: np.ndarray,
                   num_verts: int) -> np.ndarray:
    """(B, T, 3) flags marking face edge k (vertex k to k+1) as a contour edge.

    ``area2`` (B, T) is each face's projected signed area in face order. A
    valid face lies left or right of each of its projected edges; an edge is
    a contour edge when its valid faces do not lie on both sides.
    """
    B = area2.shape[0]
    a, b = faces, np.roll(faces, -1, axis=1)
    uniq, edge = np.unique(np.minimum(a, b) * num_verts + np.maximum(a, b),
                           return_inverse=True)
    n_edges = len(uniq)
    side = np.where(valid, np.sign(area2), 0.0)[:, :, None] * np.where(a < b, 1.0, -1.0)
    flat = (np.arange(B)[:, None, None] * n_edges + edge.reshape(faces.shape)).reshape(-1)
    left = np.bincount(flat, weights=side.reshape(-1) > 0, minlength=B * n_edges) > 0
    right = np.bincount(flat, weights=side.reshape(-1) < 0, minlength=B * n_edges) > 0
    return ~(left & right)[flat].reshape(side.shape)


def _edge_terms(tris_k, tri, k, x, y):
    """Edge slot k (vertex k to k+1) of each pair's triangle against pixel
    centers (x, y): the edge function (>= 0 on the inner side of a CCW
    edge), the segment parameter t of the nearest point q, and p - q."""
    a = tris_k[tri, k]
    ab = tris_k[tri, (k + 1) % 3] - a
    pax, pay = x - a[:, 0], y - a[:, 1]
    len2 = np.maximum(ab[:, 0] * ab[:, 0] + ab[:, 1] * ab[:, 1], 1e-30)
    t = np.clip((pax * ab[:, 0] + pay * ab[:, 1]) / len2, 0.0, 1.0)
    e = ab[:, 0] * pay - ab[:, 1] * pax
    return e, t, pax - t * ab[:, 0], pay - t * ab[:, 1]


def _soft_pair_terms(tris_k, contour_k, tri, px, py):
    """Per pair: squared distance to the triangle's nearest contour edge (inf
    when it has none), that edge's slot, and whether the pixel center is
    inside the triangle."""
    x, y = px + 0.5, py + 0.5
    best = np.full(len(tri), np.inf)
    ek = np.zeros(len(tri), dtype=np.int8)
    inside = np.ones(len(tri), dtype=bool)
    for k in range(3):
        e, _, rx, ry = _edge_terms(tris_k, tri, k, x, y)
        inside &= e >= 0
        d2 = rx * rx + ry * ry
        closer = contour_k[tri, k] & (d2 < best)
        best = np.where(closer, d2, best)
        ek[closer] = k
    return best, ek, inside


def _first_of_runs(values, starts, best):
    """Index of the first element of each run equal to its reduced value."""
    counts = np.diff(np.append(starts, len(values)))
    hit = np.flatnonzero(values == np.repeat(best, counts))
    return hit[np.searchsorted(hit, starts)]


def _soft_forward(tris_k, contour_k, pix0, part_k, n_parts, width, height, sigma_r):
    """Contour-distance logits of every pixel near a kept triangle.

    pix0: flat index of each kept triangle's image origin; part_k: its part.
    Returns flat pixel indices, their logits z = sign * d2 / sigma_r (max
    over parts), the sign, and the winning pair's triangle and edge slot.
    """
    # a triangle without a contour edge only lights the pixels it covers
    halo = np.where(contour_k.any(axis=1), _HALO_SIGMAS * np.sqrt(sigma_r) + 0.5, 0.0)
    blocks = []
    for tri, px, py in _pair_blocks(tris_k, width, height, halo):
        d2, ek, inside = _soft_pair_terms(tris_k, contour_k, tri, px, py)
        live = inside | (d2 < np.inf)  # other pairs leave their pixel at 0
        key = (pix0[tri] + py * width + px) * n_parts + part_k[tri]
        blocks.append([c[live] for c in (key, tri, d2, ek, inside)])
    if not blocks:
        return (np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0),
                np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int8))
    key, tri, d2, ek, inside = (np.concatenate(c) for c in zip(*blocks))

    # (pixel, part) groups: inside if any triangle covers the pixel center,
    # distance to the part's nearest contour edge. Unique sort keys fix the
    # order, and so the winner among tied pairs, whatever the sort kind.
    order = np.argsort(key * len(key) + np.arange(len(key)))
    key, d2_s = key[order], d2[order]
    g0 = np.flatnonzero(np.append(True, key[1:] != key[:-1]))
    gd2 = np.minimum.reduceat(d2_s, g0)
    g_sign = np.where(np.logical_or.reduceat(inside[order], g0), 1.0, -1.0)
    g_win = order[_first_of_runs(d2_s, g0, gd2)]
    z = g_sign * gd2 / sigma_r

    # max over the parts at each pixel
    gpix = key[g0] // n_parts
    p0 = np.flatnonzero(np.append(True, gpix[1:] != gpix[:-1]))
    zmax = np.maximum.reduceat(z, p0)
    best = _first_of_runs(z, p0, zmax)
    win = g_win[best]
    return gpix[p0], zmax, g_sign[best], tri[win], ek[win]


def soft_occupancy(verts2d, faces: np.ndarray, valid: np.ndarray,
                   width: int, height: int, sigma_r: float):
    """Soft silhouette coverage, differentiable w.r.t. ``verts2d``.

    verts2d: (B, V, 2) array or DiffValue; faces: (T, 3); valid: (B, T) marks
    triangles to rasterize (callers exclude fully-behind-camera faces).
    Returns (B, H, W). An image with a non-finite vertex is all NaN, and so
    is the gradient w.r.t. its vertices.
    """
    if sigma_r <= 0:
        raise ValueError("sigma_r must be positive")
    v2 = ad._val(verts2d)
    B, V = v2.shape[0], v2.shape[1]
    T = faces.shape[0]
    finite = np.isfinite(v2).all(axis=(1, 2))
    valid = valid & finite[:, None]
    tris = v2[:, faces, :].reshape(-1, 3, 2)
    tris_o, area2 = _orient_ccw(tris)
    # a winding flip swaps face slots 1 and 2, which reverses the edge slots
    flip = (area2 < 0)[:, None]
    contour = _contour_slots(area2.reshape(B, T), faces, valid, V).reshape(-1, 3)
    contour = np.where(flip, contour[:, ::-1], contour)
    # as in the hard raster, a zero-area triangle covers no pixel center;
    # _contour_slots gives it no side, so its edges count only through the
    # faces that share them
    sel = np.flatnonzero(valid.reshape(-1) & (area2 != 0.0))
    tris_k = tris_o[sel]
    parts = _face_parts(faces, V)
    pix, z, sign, tri, ek = _soft_forward(
        tris_k, contour[sel], sel // T * (height * width), parts[sel % T],
        int(parts.max(initial=0)) + 1, width, height, sigma_r)
    occ_px = ad.stable_sigmoid(z)
    occ = np.zeros((B, height, width))
    occ.reshape(-1)[pix] = occ_px
    occ[~finite] = np.nan

    if not isinstance(verts2d, ad.DiffValue):
        return occ

    # envelope theorem on the winning contour edge AB with nearest point
    # q = A + t(B - A): dd2/dA = -2(1-t)(p-q), dd2/dB = -2t(p-q)
    px, py = pix % width + 0.5, pix // width % height + 0.5
    t = np.empty(len(pix))
    r = np.empty((len(pix), 2))
    for k in range(3):
        at = ek == k
        _, t[at], r[at, 0], r[at, 1] = _edge_terms(tris_k, tri[at], k, px[at], py[at])
    vids = np.where(flip.reshape(B, T, 1), faces[:, [0, 2, 1]], faces).reshape(-1, 3)
    gsel = sel[tri]
    base_a = (gsel // T * V + vids[gsel, ek]) * 2
    base_b = (gsel // T * V + vids[gsel, (ek + 1) % 3]) * 2
    idx = np.concatenate([base_a, base_a + 1, base_b, base_b + 1])
    do_dd2 = occ_px * (1.0 - occ_px) * (sign / sigma_r)
    wa = (-2.0 * do_dd2 * (1.0 - t))[:, None] * r
    wb = (-2.0 * do_dd2 * t)[:, None] * r
    bad = np.repeat(~finite, V * 2)

    def vjp(g):
        gz = g.reshape(-1)[pix]
        w = np.concatenate([gz * wa[:, 0], gz * wa[:, 1], gz * wb[:, 0], gz * wb[:, 1]])
        grad = np.bincount(idx, weights=w, minlength=B * V * 2)
        grad[bad] = np.nan
        return (grad.reshape(B, V, 2),)

    return ad.from_op(occ, [verts2d], vjp)


def face_validity(depths: np.ndarray, faces: np.ndarray, camera: PinholeCamera,
                  mode: str) -> np.ndarray:
    """Per-face inclusion from per-vertex depths (B, V).

    "hard": all vertices within (near, far); "soft": at least one vertex in
    front of the near plane (fully-behind triangles are excluded).
    """
    z = depths[:, faces]
    if mode == "hard":
        return ((z > camera.near) & (z < camera.far)).all(axis=2)
    return (z > camera.near).any(axis=2)


def default_sigma_r(width: int) -> float:
    """Fixed soft-rasterizer temperature: 1e-4 * W^2 square pixels."""
    return 1e-4 * float(width) ** 2


# ---------------------------------------------------------------------------
# mask files: 8-bit binary PGM

def write_pgm(path, image: SilhouetteImage) -> None:
    data = np.round(np.clip(image.pixels, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def read_pgm(path, kind: str | None = None) -> SilhouetteImage:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise FileNotFoundError(f"mask file not readable: {path}") from exc
    parts = raw.split(b"\n", 3)
    if len(parts) < 4 or parts[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM")
    try:
        w, h = (int(v) for v in parts[1].split())
        maxval = int(parts[2])
    except ValueError as exc:
        raise ValueError(f"{path}: malformed PGM header") from exc
    if w <= 0 or h <= 0:
        raise ValueError(f"{path}: PGM size {w}x{h} is not positive")
    body = parts[3]
    if maxval != 255 or len(body) < w * h:
        raise ValueError(f"{path}: unsupported or truncated PGM payload")
    pix = np.frombuffer(body[: w * h], dtype=np.uint8).reshape(h, w) / 255.0
    if kind is None:
        kind = "hard" if np.all((pix == 0.0) | (pix == 1.0)) else "soft"
    return SilhouetteImage(pix, kind)

