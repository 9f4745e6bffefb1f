"""The hot paths never load scipy.

``scipy.ndimage`` costs ~22 MB of resident memory and a few tenths of
a second to import, and only the synthetic-digit renderer and DSSIM
call it, so it is imported inside those two functions.  Moving the
import must not move a byte of their output: the digests below were
recorded with the module-level import.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np

import repro
from repro.data.synth_digits import render_digit
from repro.metrics.image_quality import batch_dssim, dssim

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def test_hot_paths_import_no_scipy():
    code = ("import sys\n"
            "import repro, repro.serve, repro.attacks, repro.edge, "
            "repro.training\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'scipy'))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_render_digit_bytes_unchanged():
    rng = np.random.default_rng(1234)
    h = hashlib.sha256()
    for d in range(10):
        h.update(render_digit(d, rng).tobytes())
        h.update(render_digit(d, rng, image_size=20, noise=0.05).tobytes())
    assert h.hexdigest() == (
        "a4cc17c6557422da02ac283a06dc70abf79b195d18da92e4ae25ab9347fd2dc4")


def test_dssim_bytes_unchanged():
    rng = np.random.default_rng(5)
    a = rng.random((3, 16, 16))
    b = np.clip(a + rng.normal(0, 0.05, a.shape), 0, 1)
    vals = np.array([dssim(a, b), dssim(a[0], b[0]), dssim(a, a)])
    assert vals.tobytes().hex() == (
        "4047c00daa1e7c3f40aa798dbd3e7f3f0000000000000000")
    x = rng.random((4, 1, 12, 12))
    y = np.clip(x + 0.03, 0, 1)
    assert hashlib.sha256(batch_dssim(x, y).tobytes()).hexdigest() == (
        "ef5a7d7b4c7d3aead69fea75c4127a4eaed3a28887f5f2e8948ca0f2f0d7f13b")
