"""Triangle meshes: container, ASCII file format, and procedural tool parts.

File format is a minimal subset of Wavefront OBJ: ``v x y z`` vertex lines
and ``f i j k`` face lines with 1-based indices. Vertices are in the owning
link's local frame, meters.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

_MIN_FACE_AREA = 1e-12  # m^2


@dataclass(frozen=True)
class TriMesh:
    vertices: np.ndarray  # (N, 3) float
    faces: np.ndarray     # (M, 3) int

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.asarray(self.vertices, dtype=float).reshape(-1, 3))
        object.__setattr__(self, "faces", np.asarray(self.faces, dtype=np.int64).reshape(-1, 3))

    def validate(self) -> None:
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= len(self.vertices)):
            raise ValueError("face indices out of range")
        tri = self.vertices[self.faces]
        areas = 0.5 * np.linalg.norm(
            np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)
        if np.any(areas <= _MIN_FACE_AREA):
            raise ValueError("degenerate face (area below 1e-12 m^2)")


def write_mesh(path, mesh: TriMesh) -> None:
    lines = [f"v {x:.9g} {y:.9g} {z:.9g}" for x, y, z in mesh.vertices]
    lines += [f"f {i + 1} {j + 1} {k + 1}" for i, j, k in mesh.faces]
    Path(path).write_text("\n".join(lines) + "\n")


def read_mesh(path) -> TriMesh:
    verts, faces = [], []
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise FileNotFoundError(f"mesh file not readable: {path}") from exc
    for ln, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "v" and len(parts) == 4:
            verts.append([float(v) for v in parts[1:]])
        elif parts[0] == "f" and len(parts) == 4:
            faces.append([int(v) - 1 for v in parts[1:]])
        else:
            raise ValueError(f"{path}:{ln}: unrecognized record {parts[0]!r}")
    mesh = TriMesh(np.array(verts, dtype=float).reshape(-1, 3),
                   np.array(faces, dtype=np.int64).reshape(-1, 3))
    mesh.validate()
    return mesh


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
