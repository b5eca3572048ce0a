"""Corrupt input files: every reader raises with the file's path."""

import io
import json
import re
import shutil
import zipfile

import numpy as np
import pytest

from silgrad import corrector, metrics, scene, synth, vit


def _model(tmp_path):
    p = tmp_path / "ref.npz"
    cfg = vit.VitConfig(image_size=32, patch_size=8, embed_dim=32, heads=2, layers=1)
    corrector.CorrectorModel(cfg, vit.init_weights(cfg, np.random.default_rng(0)),
                             np.full(10, 0.1), "centered", 0.25, 0.05, 500.0).save(p)
    return p.read_bytes()


def _archive(edit):
    """Corrupt a weights archive by editing its arrays (name -> array)."""
    def corrupt(b):
        with np.load(io.BytesIO(b)) as archive:
            arrays = {name: archive[name] for name in archive.files}
        edit(arrays)
        out = io.BytesIO()
        np.savez(out, **arrays)
        return out.getvalue()
    return corrupt


def _drop(name):
    return _archive(lambda arrays: arrays.pop(name))


def _overclaim(b):
    """An .npy header that claims 99,999,999,999 records over the same payload."""
    frames = np.load(io.BytesIO(b))
    out = io.BytesIO()
    header = np.lib.format.header_data_from_array_1_0(frames)
    np.lib.format.write_array_header_1_0(out, {**header, "shape": (99_999_999_999,)})
    return out.getvalue() + frames.tobytes()


def _overclaim_tensor(b):
    """A weights archive whose head3.b header overclaims its values."""
    out = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(b)) as src, zipfile.ZipFile(out, "w") as dst:
        for info in src.infolist():
            data = src.read(info)
            dst.writestr(info, _overclaim(data) if info.filename == "head3.b.npy" else data)
    return out.getvalue()


def _meta(edit):
    """Corrupt a weights archive by editing its JSON header (a dict)."""
    def edit_archive(arrays):
        meta = json.loads(str(arrays["meta"]))
        edit(meta)
        arrays["meta"] = np.array(json.dumps(meta))
    return _archive(edit_archive)


def _drop_meta(key):
    return _meta(lambda meta: meta.pop(key))


def _set_k(index, value):
    def edit(meta):
        meta["k"][index] = value
    return _meta(edit)


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


_load = corrector.CorrectorModel.load

# name: (reader, valid bytes, corruption or None for a missing file, error)
CASES = {
    "weights-short-tensor": (_load, _model, lambda b: b[:-100], ValueError),
    "weights-short-header": (_load, _model, lambda b: b[:10], ValueError),
    "weights-empty": (_load, _model, lambda b: b"", ValueError),
    "weights-magic": (_load, _model, lambda b: b"SGWX" + b[4:], ValueError),
    "weights-missing": (_load, _model, None, FileNotFoundError),
    "weights-no-meta": (_load, _model, _drop("meta"), ValueError),
    "weights-header-json": (_load, _model, _archive(
        lambda arrays: arrays.update(meta=np.array("{config"))), ValueError),
    "weights-header-overclaims": (_load, _model, _overclaim_tensor, ValueError),
    "weights-no-head3-b": (_load, _model, _drop("head3.b"), ValueError),
    "weights-head3-w-shape": (_load, _model, _archive(
        lambda arrays: arrays.update({"head3.w": np.zeros((3, 3))})), ValueError),
    "weights-config-zero-patch": (_load, _model, _meta(
        lambda meta: meta["config"].update(patch_size=0)), ValueError),
    "weights-config-float-layers": (_load, _model, _meta(
        lambda meta: meta["config"].update(layers=2.5)), ValueError),
    "weights-config-missing-key": (_load, _model, _meta(
        lambda meta: meta["config"].pop("heads")), ValueError),
    "weights-config-unexpected-key": (_load, _model, _meta(
        lambda meta: meta["config"].update(dropout=0.1)), ValueError),
    "model-no-k": (_load, _model, _drop_meta("k"), ValueError),
    "model-no-squash": (_load, _model, _drop_meta("squash"), ValueError),
    "model-no-alpha": (_load, _model, _drop_meta("alpha"), ValueError),
    "model-no-beta": (_load, _model, _drop_meta("beta"), ValueError),
    "model-no-gamma": (_load, _model, _drop_meta("gamma"), ValueError),
    "model-unexpected-key": (_load, _model,
                             _meta(lambda meta: meta.update(sigma_r=9.0)), ValueError),
    "model-k-length": (_load, _model,
                       _meta(lambda meta: meta.update(k=meta["k"][:9])), ValueError),
    "model-squash-unknown": (_load, _model,
                             _meta(lambda meta: meta.update(squash="tanh")), ValueError),
    "model-k-nan": (_load, _model, _set_k(3, float("nan")), ValueError),
    "model-k-zero": (_load, _model, _set_k(0, 0.0), ValueError),
    "model-k-negative": (_load, _model, _set_k(9, -0.1), ValueError),
    "model-k-inf": (_load, _model, _set_k(5, float("inf")), ValueError),
    "model-alpha-nan": (_load, _model,
                        _meta(lambda meta: meta.update(alpha=float("nan"))), ValueError),
    "model-beta-inf": (_load, _model,
                       _meta(lambda meta: meta.update(beta=float("inf"))), ValueError),
    "model-gamma-nan": (_load, _model,
                        _meta(lambda meta: meta.update(gamma=float("nan"))), ValueError),
    "model-gamma-minus-inf": (_load, _model,
                              _meta(lambda meta: meta.update(gamma=float("-inf"))), ValueError),
    "model-alpha-negative": (_load, _model,
                             _meta(lambda meta: meta.update(alpha=-0.25)), ValueError),
    "model-gamma-negative": (_load, _model,
                             _meta(lambda meta: meta.update(gamma=-500.0)), ValueError),
    "pose-csv-short-row": (metrics.read_pose_csv, _pose_csv,
                           _row(3, lambda r: r.rsplit(b",", 1)[0]), ValueError),
    "pose-csv-not-a-number": (metrics.read_pose_csv, _pose_csv,
                              _row(3, lambda r: b"x" + r), ValueError),
    "pose-csv-nan": (metrics.read_pose_csv, _pose_csv,
                     _row(3, lambda r: r.replace(b",0,", b",nan,", 1)), ValueError),
    "pose-csv-fractional-iters": (metrics.read_pose_csv, _pose_csv,
                                  _row(3, lambda r: r.rsplit(b",", 1)[0] + b",2.7"), ValueError),
    "pose-csv-negative-iters": (metrics.read_pose_csv, _pose_csv,
                                _row(3, lambda r: r.rsplit(b",", 1)[0] + b",-3"), ValueError),
}
# what the message must name right after the path, beyond the path itself
AFTER_PATH = {case: ", line 3:" for case in CASES if case.startswith("pose-csv")}
# a config field of the wrong type: the message names the field
AFTER_PATH["weights-config-float-layers"] = ": malformed meta: ValueError('layers"
# a config key missing or unexpected: the message names the key
_ODD_KEYS = ': malformed meta: ValueError("missing or unexpected config keys '
AFTER_PATH["weights-config-missing-key"] = _ODD_KEYS + "['heads']"
AFTER_PATH["weights-config-unexpected-key"] = _ODD_KEYS + "['dropout']"
# a top-level entry missing or unexpected: the message names the key
_ODD_ENTRIES = ": missing or unexpected entries "
AFTER_PATH.update({case: _ODD_ENTRIES + f"[{case.split('-')[2]!r}]" for case in CASES
                   if case.startswith("model-no-")})
AFTER_PATH["model-unexpected-key"] = _ODD_ENTRIES + "['sigma_r']"
# a model value out of range: the message names its key
AFTER_PATH.update({case: f": {case.split('-')[1]!r}" for case in CASES
                   if case.startswith("model-")
                   and case.endswith(("-nan", "-inf", "-zero", "-negative"))})


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


def _records(edit):
    """Corrupt a trajectory file by editing a copy of its frame records;
    ``edit`` returns the records to write back."""
    def corrupt(b):
        return _npy(edit(np.load(io.BytesIO(b))))
    return corrupt


def _npy(frames):
    out = io.BytesIO()
    np.save(out, frames)
    return out.getvalue()


def _set(field, index, value):
    def edit(frames):
        frames[field][index] = value
        return frames
    return edit


def _crop_masks(frames):
    """The same frames with 64 x 32 masks."""
    dtype = np.dtype([(name, frames.dtype[name].base,
                       (64, 32) if name == "mask" else frames.dtype[name].shape)
                      for name in frames.dtype.names])
    out = np.zeros(len(frames), dtype)
    for name in frames.dtype.names:
        out[name] = frames[name][..., :32] if name == "mask" else frames[name]
    return out


def _as_npz(b):
    """The same frame records inside an .npz archive."""
    out = io.BytesIO()
    np.savez(out, frames=np.load(io.BytesIO(b)))
    return out.getvalue()


def _manifest(edit):
    """Corrupt a manifest by editing its JSON object (a dict)."""
    def corrupt(b):
        manifest = json.loads(b)
        edit(manifest)
        return json.dumps(manifest).encode()
    return corrupt


def _camera(**fields):
    return _manifest(lambda manifest: manifest["camera"].update(fields))


# name: (file under the dataset root, corruption of its bytes)
TRAJECTORY_CASES = {
    "mask-value-2": ("traj_0000.npy", _records(_set("mask", (1, 0, 0), 2))),
    "mask-value-128": ("traj_0000.npy", _records(_set("mask", (2, 5, 7), 128))),
    "mask-size": ("traj_0000.npy", _records(_crop_masks)),
    "frames-nan": ("traj_0000.npy", _records(_set("q_true", (1, 0), np.nan))),
    "frames-count": ("traj_0000.npy", _records(lambda frames: frames[:-1])),
    "frames-empty": ("traj_0000.npy", _records(lambda frames: frames[:0])),
    "frames-header-overclaims": ("traj_0000.npy", _overclaim),
    "frames-zero-bytes": ("traj_0000.npy", lambda b: b""),
    "frames-not-records": ("traj_0000.npy", lambda b: _npy(np.zeros((3, 4)))),
    "frames-npz-archive": ("traj_0000.npy", _as_npz),
    "frames-zip-magic": ("traj_0000.npy", lambda b: b"PK\x03\x04" + bytes(100)),
    "frames-base-not-rotation": ("traj_0000.npy",
                                 _records(_set("base_noisy", (slice(None), slice(9)), 0.0))),
    "frames-base-scaled": ("traj_0000.npy", _records(_set(
        "base_true", (slice(None), slice(9)), (2 * np.eye(3)).ravel()))),
    "manifest-missing-key": ("manifest", _manifest(lambda manifest: manifest.pop("trajectories"))),
    "manifest-empty": ("manifest", lambda b: b""),
    "manifest-not-json": ("manifest", lambda b: b[:len(b) // 2]),
    "manifest-count-not-a-number": ("manifest", _manifest(
        lambda manifest: manifest.update(frames_per_trajectory="three"))),
    "manifest-geometry": ("manifest", _manifest(
        lambda manifest: manifest.update(geometry="0" * 64))),
    "manifest-camera-nan": ("manifest", _camera(fx=float("nan"))),
    "manifest-camera-width": ("manifest", _camera(width=64.5)),
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
