"""Output checks for the benchmark, written apart from the silgrad code.

Each check raises :class:`CheckFailed` with a reason when the program's
output disagrees with a computation made here or with a property the method
must have. None of them calls the silgrad function it checks: the
reference forward kinematics builds 4x4 matrices, the reference hard
rasterizer tests pixel centres against triangles directly, and the
reference Adam follows the published update rule.
"""

from __future__ import annotations

import numpy as np

EDGE_TOLERANCE_PX = 1e-9   # hard-mask pixels this close to an edge may differ
POSE_TOLERANCE_M = 1e-9    # end-effector translation, metres
ROTATION_TOLERANCE = 1e-9  # end-effector rotation matrix entries
AREA_RATIO_BAND = 0.05     # soft/hard area at the truth: 1 +/- this


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# reference geometry: 4x4 forward kinematics and pinhole projection

def _axis_rotation(axis, angle: float) -> np.ndarray:
    x, y, z = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    c, s = np.cos(angle), np.sin(angle)
    cc = 1.0 - c
    return np.array([[c + x * x * cc, x * y * cc - z * s, x * z * cc + y * s],
                     [y * x * cc + z * s, c + y * y * cc, y * z * cc - x * s],
                     [z * x * cc - y * s, z * y * cc + x * s, c + z * z * cc]])


def _homogeneous(rotation, translation) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = rotation
    m[:3, 3] = translation
    return m


def euler_zyx_matrix(euler) -> np.ndarray:
    """Rotation of intrinsic Z-Y-X angles (z, y, x)."""
    a, b, c = euler
    return (_axis_rotation([0, 0, 1], a) @ _axis_rotation([0, 1, 0], b)
            @ _axis_rotation([1, 0, 0], c))


def link_frames(chain, base: np.ndarray, q: np.ndarray) -> list[np.ndarray]:
    """4x4 pose of every link: base, then offset and motion per joint."""
    frames, acc = [], base
    for joint, qi in zip(chain.joints, q):
        offset = _homogeneous(joint.offset.rotation, joint.offset.translation)
        if joint.kind == "revolute":
            motion = _homogeneous(_axis_rotation(joint.axis, qi), np.zeros(3))
        else:
            motion = _homogeneous(np.eye(3), qi * np.asarray(joint.axis))
        acc = acc @ offset @ motion
        frames.append(acc)
    return frames


def theta_base(theta: np.ndarray) -> np.ndarray:
    """4x4 base pose of a 10-vector [Euler zyx, translation, visible joints]."""
    return _homogeneous(euler_zyx_matrix(theta[:3]), theta[3:6])


def theta_joints(theta: np.ndarray, q_noisy: np.ndarray) -> np.ndarray:
    """Full joint vector: joints 1-3 from the reading, 4-7 from theta."""
    q = np.array(q_noisy, dtype=float)
    q[3:7] = theta[6:10]
    return q


def end_effector(chain, theta: np.ndarray, q_noisy: np.ndarray) -> np.ndarray:
    return link_frames(chain, theta_base(theta), theta_joints(theta, q_noisy))[-1]


def screen_vertices(scene, base: np.ndarray, q: np.ndarray):
    """Projected mesh vertices (V, 2) and their depths (V,)."""
    frames = link_frames(scene.chain, base, q)
    world = np.empty((len(scene.verts_local), 3))
    for joint_index, lo, hi in scene.vert_slices:
        m = frames[joint_index]
        world[lo:hi] = scene.verts_local[lo:hi] @ m[:3, :3].T + m[:3, 3]
    cam = scene.camera
    z = np.maximum(world[:, 2], cam.near)
    xy = np.stack([cam.fx * world[:, 0] / z + cam.cx,
                   cam.fy * world[:, 1] / z + cam.cy], axis=1)
    return xy, world[:, 2]


# ---------------------------------------------------------------------------
# hard silhouettes

def reference_hard_mask(xy: np.ndarray, depth: np.ndarray, faces: np.ndarray,
                        camera):
    """(inside, near_edge) boolean (H, W) images for one view.

    A pixel is inside when its centre lies in a triangle of either winding
    whose vertices all sit between the near and far planes; near_edge marks
    pixel centres within EDGE_TOLERANCE_PX of such a triangle's edge, where
    the tie rule of a rasterizer decides.
    """
    h, w = camera.height, camera.width
    inside = np.zeros((h, w), dtype=bool)
    near = np.zeros((h, w), dtype=bool)
    z = depth[faces]
    keep = ((z > camera.near) & (z < camera.far)).all(axis=1)
    tol = EDGE_TOLERANCE_PX
    for tri in xy[faces[keep]]:
        # pixel centres (col + 0.5, row + 0.5) in the triangle's bounding box
        c0, r0 = np.maximum(np.floor(tri.min(axis=0) - 0.5).astype(int), 0)
        c1, r1 = np.minimum(np.ceil(tri.max(axis=0) - 0.5).astype(int), [w - 1, h - 1])
        if c1 < c0 or r1 < r0:
            continue
        py, px = np.mgrid[r0:r1 + 1, c0:c1 + 1] + 0.5
        pos = neg = True
        on_edge = False
        for k in range(3):
            (ax, ay), (bx, by) = tri[k], tri[(k + 1) % 3]
            ex, ey = bx - ax, by - ay
            cross = ex * (py - ay) - ey * (px - ax)
            pos = pos & (cross > 0)
            neg = neg & (cross < 0)
            # within tol of the segment: of its line, and of its extent
            length = np.hypot(ex, ey)
            along = ex * (px - ax) + ey * (py - ay)
            on_edge = on_edge | ((np.abs(cross) <= tol * length)
                                 & (along >= -tol * length)
                                 & (along <= length * length + tol * length))
        inside[r0:r1 + 1, c0:c1 + 1] |= pos | neg
        near[r0:r1 + 1, c0:c1 + 1] |= on_edge
    return inside, near


def check_hard_mask(mask: np.ndarray, xy: np.ndarray, depth: np.ndarray,
                    faces: np.ndarray, camera) -> None:
    """The rendered mask equals the reference away from triangle edges."""
    inside, near = reference_hard_mask(xy, depth, faces, camera)
    mask = np.asarray(mask)
    _require(mask.shape == inside.shape,
             f"hard mask shape {mask.shape}, expected {inside.shape}")
    _require(bool(np.isin(mask, (0, 1)).all()), "hard mask is not binary")
    wrong = np.argwhere((mask.astype(bool) != inside) & ~near)
    _require(len(wrong) == 0,
             f"hard mask differs from the pixel-centre test at {len(wrong)} pixels "
             f"away from any edge, first (row, col) {tuple(wrong[0]) if len(wrong) else ()}")


# ---------------------------------------------------------------------------
# corrections and poses

def check_correction(theta_hat: np.ndarray, theta_noisy: np.ndarray,
                     k: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> None:
    """Every coordinate moves strictly less than its bound k, and the visible
    joints stay within the chain limits."""
    _require(bool(np.isfinite(theta_hat).all()), "corrected vector is not finite")
    over = np.argwhere(np.abs(theta_hat - theta_noisy) >= k)
    _require(len(over) == 0,
             f"correction at or beyond its bound k at (frame, coordinate) "
             f"{tuple(over[0]) if len(over) else ()}")
    joints = theta_hat[..., 6:10]
    _require(bool(((joints >= lower) & (joints <= upper)).all()),
             "corrected joint outside the chain limits")


def check_end_effector(chain, theta: np.ndarray, q_noisy: np.ndarray,
                       rotations: np.ndarray, translations: np.ndarray) -> None:
    """Per-frame end-effector poses equal the 4x4 reference composition."""
    for i in range(len(theta)):
        m = end_effector(chain, theta[i], q_noisy[i])
        dt = float(np.abs(translations[i] - m[:3, 3]).max())
        dr = float(np.abs(rotations[i] - m[:3, :3]).max())
        _require(dt <= POSE_TOLERANCE_M,
                 f"frame {i}: end-effector translation off by {dt * 1e3:.3g} mm")
        _require(dr <= ROTATION_TOLERANCE,
                 f"frame {i}: end-effector rotation off by {dr:.3g}")


# ---------------------------------------------------------------------------
# gradients and the optimizer

# The silhouette loss is piecewise smooth: it has a kink wherever a pixel
# changes its nearest contour edge. A kink within one step of x spoils that
# step's central difference, so a derivative that misses at the first step is
# tried again at a smaller and at a larger one.
FD_STEPS = (1e-6, 1e-7, 1e-5)


def central_difference(f, x: np.ndarray, direction: np.ndarray, eps: float) -> float:
    """(f(x + eps d) - f(x - eps d)) / 2 eps."""
    return (f(x + eps * direction) - f(x - eps * direction)) / (2.0 * eps)


def check_gradient(f, x: np.ndarray, directions, analytic: np.ndarray, rtol: float,
                   what: str) -> np.ndarray:
    """``analytic[j]``, the derivative of f at x along ``directions[j]``,
    agrees with a central difference at one of FD_STEPS to rtol of the
    largest analytic entry. Returns the central differences."""
    analytic = np.asarray(analytic, dtype=float)
    scale = max(float(np.abs(analytic).max()), 1e-12)
    numeric = np.full(len(analytic), np.nan)
    err = np.full(len(analytic), np.inf)
    for eps in FD_STEPS:
        for j in np.flatnonzero(~(err <= rtol)):
            numeric[j] = central_difference(f, x, directions[j], eps)
            err[j] = abs(analytic[j] - numeric[j]) / scale
    worst = int(np.argmax(np.where(np.isfinite(err), err, np.inf)))
    _require(bool((err <= rtol).all()),
             f"{what}: derivative {worst} is {analytic[worst]:.9g}, central "
             f"difference {numeric[worst]:.9g} (error {err[worst]:.2e} of the "
             f"largest entry > {rtol:.0e} at every step)")
    return numeric


def reference_adam(weights: dict, grads: dict, m: dict, v: dict, t: int,
                   lr: float, weight_decay: float, b1: float = 0.9,
                   b2: float = 0.999, eps: float = 1e-8):
    """One Adam step (Kingma and Ba, 2015) with L2 weight decay folded into
    the gradient; returns new (weights, m, v) without touching the inputs."""
    out_w, out_m, out_v = {}, {}, {}
    for name, w in weights.items():
        g = grads[name] + weight_decay * w
        out_m[name] = b1 * m[name] + (1.0 - b1) * g
        out_v[name] = b2 * v[name] + (1.0 - b2) * g * g
        m_hat = out_m[name] / (1.0 - b1 ** t)
        v_hat = out_v[name] / (1.0 - b2 ** t)
        out_w[name] = w - lr * m_hat / (np.sqrt(v_hat) + eps)
    return out_w, out_m, out_v


def check_close_dicts(got: dict, want: dict, rtol: float, what: str) -> None:
    _require(sorted(got) == sorted(want), f"{what}: different tensor names")
    for name in want:
        a, b = np.asarray(got[name]), np.asarray(want[name])
        err = np.abs(a - b) / np.maximum(np.abs(b), 1e-30)
        _require(a.shape == b.shape and bool((err <= rtol).all()),
                 f"{what}: tensor {name} differs from the reference "
                 f"(relative error {float(err.max()):.2e})")


# ---------------------------------------------------------------------------
# tracking accuracy

def check_area_ratio(soft: np.ndarray, hard: np.ndarray) -> float:
    """Soft silhouette area at the truth within AREA_RATIO_BAND of the hard
    area; returns the ratio."""
    ratio = float(np.sum(soft) / np.sum(hard))
    _require(abs(ratio - 1.0) <= AREA_RATIO_BAND,
             f"soft/hard area ratio at the truth is {ratio:.4f}, "
             f"outside 1 +/- {AREA_RATIO_BAND}")
    return ratio


def check_below_noisy(method_rmse: list, noisy_rmse: list, what: str) -> None:
    for i, (got, noisy) in enumerate(zip(method_rmse, noisy_rmse)):
        _require(bool(np.isfinite(got)) and got < noisy,
                 f"trajectory {i}: {what} RMSE {got:.4g} not below the noisy "
                 f"input's {noisy:.4g}")
