"""Corrupt input files: every reader raises with the file's path."""

import re
import shutil

import numpy as np
import pytest

from silgrad import kinematics, mesh, metrics, render, scene, synth, vit


def _weights(tmp_path):
    p = tmp_path / "ref.sgwt"
    cfg = vit.VitConfig()
    vit.save_weights(p, cfg, vit.init_weights(cfg, np.random.default_rng(0)))
    return p.read_bytes()


def _pgm(tmp_path):
    p = tmp_path / "ref.pgm"
    render.write_pgm(p, np.ones((4, 4), dtype=np.uint8))
    return p.read_bytes()


def _mesh(tmp_path):
    p = tmp_path / "ref.mesh"
    mesh.write_mesh(p, mesh.box(0.01, 0.01, 0.0, 0.02))
    return p.read_bytes()


def _chain(tmp_path):
    p = tmp_path / "ref.yaml"
    kinematics.write_chain(p, kinematics.reference_chain())
    return p.read_bytes()


def _pose_csv(tmp_path):
    p = tmp_path / "ref.csv"
    n = 3
    series = metrics.PoseSeries(np.arange(n) / 30.0, np.tile(np.eye(3), (n, 1, 1)),
                                np.zeros((n, 3)), np.zeros((n, 4)))
    metrics.write_pose_csv(p, [series])
    return p.read_bytes()


def _row(line, edit):
    """Apply ``edit`` to the ``line``-th line (1-based) of a text file."""
    def corrupt(b):
        lines = b.split(b"\n")
        lines[line - 1] = edit(lines[line - 1])
        return b"\n".join(lines)
    return corrupt


# name: (reader, valid bytes, corruption or None for a missing file, error)
CASES = {
    "weights-short-tensor": (vit.load_weights, _weights, lambda b: b[:-100], ValueError),
    "weights-short-header": (vit.load_weights, _weights, lambda b: b[:10], ValueError),
    "weights-header-json": (vit.load_weights, _weights,
                            lambda b: b[:12] + b"!" + b[13:], ValueError),
    "weights-magic": (vit.load_weights, _weights, lambda b: b"SGWX" + b[4:], ValueError),
    "weights-missing": (vit.load_weights, _weights, None, FileNotFoundError),
    "pgm-negative-width": (render.read_pgm, _pgm,
                           lambda b: b.replace(b"\n4 4\n", b"\n-4 4\n", 1), ValueError),
    "pgm-zero-size": (render.read_pgm, _pgm,
                      lambda b: b.replace(b"\n4 4\n", b"\n0 0\n", 1), ValueError),
    "pgm-short-payload": (render.read_pgm, _pgm, lambda b: b[:-3], ValueError),
    "pgm-magic": (render.read_pgm, _pgm, lambda b: b"P2" + b[2:], ValueError),
    "pgm-missing": (render.read_pgm, _pgm, None, FileNotFoundError),
    "pgm-value-128": (render.read_pgm, _pgm, lambda b: b[:-1] + bytes([128]), ValueError),
    "mesh-nan-vertex": (mesh.read_mesh, _mesh, _row(1, lambda r: b"v nan 0 0"), ValueError),
    "mesh-empty": (mesh.read_mesh, _mesh, lambda b: b"", ValueError),
    "mesh-face-index": (mesh.read_mesh, _mesh, lambda b: b + b"f 1 2 999\n", ValueError),
    "mesh-not-a-number": (mesh.read_mesh, _mesh, lambda b: b.replace(b"v ", b"v x", 1),
                          ValueError),
    "chain-missing-key": (kinematics.read_chain, _chain,
                          lambda b: b.replace(b"limits:", b"limitz:", 1), ValueError),
    "chain-empty": (kinematics.read_chain, _chain, lambda b: b"", ValueError),
    "chain-joint-kind": (kinematics.read_chain, _chain,
                         lambda b: b.replace(b"kind: revolute", b"kind: spherical", 1),
                         ValueError),
    "pose-csv-short-row": (metrics.read_pose_csv, _pose_csv,
                           _row(3, lambda r: r.rsplit(b",", 1)[0]), ValueError),
    "pose-csv-not-a-number": (metrics.read_pose_csv, _pose_csv,
                              _row(3, lambda r: b"x" + r), ValueError),
    "pose-csv-nan": (metrics.read_pose_csv, _pose_csv,
                     _row(3, lambda r: r.replace(b",0,", b",nan,", 1)), ValueError),
}
# what the message must name right after the path, beyond the path itself
AFTER_PATH = {case: ", line 3:" for case in CASES if case.startswith("pose-csv")}
AFTER_PATH["mesh-not-a-number"] = ":1:"


@pytest.mark.parametrize("case", CASES)
def test_corrupt_file_raises_with_path(tmp_path, case):
    reader, make, corrupt, error = CASES[case]
    path = tmp_path / f"{case}.bin"
    if corrupt is not None:
        path.write_bytes(corrupt(make(tmp_path)))
    with pytest.raises(error, match=re.escape(str(path) + AFTER_PATH.get(case, ""))):
        reader(path)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset")
    synth.generate_dataset(root, "t", 1, 0.1, 3, scene=scene.reference_scene(64),
                           frames_per_trajectory=3)
    return root


def _nan_at(offset):
    return lambda b: b[:offset] + np.float64(np.nan).tobytes() + b[offset + 8:]


# name: (file under the dataset root, corruption of its bytes)
TRAJECTORY_CASES = {
    "mask-value-128": ("traj_0000/mask_0001.pgm", lambda b: b[:-1] + bytes([128])),
    "mask-size": ("traj_0000/mask_0002.pgm",
                  lambda b: b.replace(b"\n64 64\n", b"\n32 64\n", 1)),
    "frames-nan": ("traj_0000/frames.bin", _nan_at(synth._FRAME_BYTES + 8)),
    "frames-count": ("traj_0000/frames.bin", lambda b: b[:-synth._FRAME_BYTES]),
    "frames-empty": ("traj_0000/frames.bin", lambda b: b""),
    "manifest-missing-key": ("manifest",
                             lambda b: b.replace(b"trajectories:", b"trajectoriez:", 1)),
    "manifest-empty": ("manifest", lambda b: b""),
    "manifest-count-not-a-number": ("manifest", lambda b: b.replace(
        b"frames_per_trajectory: 3", b"frames_per_trajectory: three", 1)),
}


@pytest.mark.parametrize("case", TRAJECTORY_CASES)
def test_corrupt_trajectory_raises_with_path(tmp_path, dataset, case):
    name, corrupt = TRAJECTORY_CASES[case]
    root = tmp_path / "dataset"
    shutil.copytree(dataset, root)
    path = root / name
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        synth.read_dataset(root).load_trajectory(0)
