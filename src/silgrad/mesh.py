"""Triangle meshes: the container and the procedural parts of the simplified
tool. Vertices are in the owning link's local frame, meters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TriMesh:
    vertices: np.ndarray  # (N, 3) float
    faces: np.ndarray     # (M, 3) int

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.asarray(self.vertices, dtype=float).reshape(-1, 3))
        object.__setattr__(self, "faces", np.asarray(self.faces, dtype=np.int64).reshape(-1, 3))


# ---------------------------------------------------------------------------
# procedural primitives for the simplified tool

def cylinder(radius: float, z_lo: float, z_hi: float, segments: int = 20) -> TriMesh:
    """Closed cylinder along local +Z."""
    ang = 2.0 * np.pi * np.arange(segments) / segments
    ring = np.stack([radius * np.cos(ang), radius * np.sin(ang)], axis=1)
    lo = np.column_stack([ring, np.full(segments, z_lo)])
    hi = np.column_stack([ring, np.full(segments, z_hi)])
    verts = np.vstack([lo, hi, [[0, 0, z_lo]], [[0, 0, z_hi]]])
    c_lo, c_hi = 2 * segments, 2 * segments + 1
    faces = []
    for i in range(segments):
        j = (i + 1) % segments
        faces.append([i, j, segments + i])
        faces.append([j, segments + j, segments + i])
        faces.append([c_lo, j, i])
        faces.append([c_hi, segments + i, segments + j])
    return TriMesh(verts, np.array(faces))


def box(sx: float, sy: float, z_lo: float, z_hi: float) -> TriMesh:
    """Axis-aligned box centered in x/y, spanning [z_lo, z_hi]."""
    hx, hy = sx / 2.0, sy / 2.0
    corners = np.array([[sx_, sy_, z] for z in (z_lo, z_hi)
                        for sy_ in (-hy, hy) for sx_ in (-hx, hx)])
    faces = np.array([
        [0, 2, 1], [1, 2, 3],          # bottom
        [4, 5, 6], [5, 7, 6],          # top
        [0, 1, 4], [1, 5, 4],          # -y
        [2, 6, 3], [3, 6, 7],          # +y
        [0, 4, 2], [2, 4, 6],          # -x
        [1, 3, 5], [3, 7, 5],          # +x
    ])
    return TriMesh(corners, faces)


def triangular_prism(width: float, height: float, z_lo: float, z_hi: float,
                     y_shift: float = 0.0) -> TriMesh:
    """Prism with a triangular x/y cross-section, extruded along +Z."""
    tri = np.array([[-width / 2, -height / 3 + y_shift],
                    [width / 2, -height / 3 + y_shift],
                    [0.0, 2 * height / 3 + y_shift]])
    lo = np.column_stack([tri, np.full(3, z_lo)])
    hi = np.column_stack([tri, np.full(3, z_hi)])
    verts = np.vstack([lo, hi])
    faces = np.array([
        [0, 2, 1], [3, 4, 5],
        [0, 1, 3], [1, 4, 3],
        [1, 2, 4], [2, 5, 4],
        [2, 0, 5], [0, 3, 5],
    ])
    return TriMesh(verts, faces)


def tool_part_meshes() -> dict[str, TriMesh]:
    """Simplified tool parts keyed by asset name.

    Shaft tube, wrist housing, and a fixed + a moving jaw; proportions follow
    the reference manipulator description (4 mm shaft radius, 10 mm wrist
    link, 10 mm jaws).
    """
    return {
        "shaft": cylinder(0.004, -0.080, 0.004, segments=20),
        "wrist": box(0.007, 0.007, -0.002, 0.012),
        "jaw_static": triangular_prism(0.0032, 0.0032, 0.004, 0.014, y_shift=-0.0011),
        "jaw_moving": triangular_prism(0.0032, 0.0032, 0.000, 0.010, y_shift=0.0011),
    }
