"""Corrupt input files: every reader raises with the file's path."""

import re

import numpy as np
import pytest

from silgrad import render, vit


def _weights(tmp_path):
    p = tmp_path / "ref.sgwt"
    cfg = vit.VitConfig()
    vit.save_weights(p, cfg, vit.init_weights(cfg, np.random.default_rng(0)))
    return p.read_bytes()


def _pgm(tmp_path):
    p = tmp_path / "ref.pgm"
    render.write_pgm(p, render.SilhouetteImage(np.ones((4, 4)), "hard"))
    return p.read_bytes()


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
}


@pytest.mark.parametrize("case", CASES)
def test_corrupt_file_raises_with_path(tmp_path, case):
    reader, make, corrupt, error = CASES[case]
    path = tmp_path / f"{case}.bin"
    if corrupt is not None:
        path.write_bytes(corrupt(make(tmp_path)))
    with pytest.raises(error, match=re.escape(str(path))):
        reader(path)
