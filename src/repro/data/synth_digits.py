"""Rendered hand-written-style digits — the MNIST stand-in (Fig 4).

Digits 0-9 are rasterized from a 5x7 seven-segment-style bitmap font,
upsampled, then per-instance distorted: sub-pixel shift, small rotation,
stroke-thickness variation (Gaussian blur + gain) and pixel noise.  Models
reach high accuracy on it, matching MNIST's role in the paper: an easy
task where fp32/int8 disagreement is rare pre-attack, making DIVA's
representation shift (PCA figure) clean to visualize.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .datasets import ArrayDataset

# 5x7 bitmap font, rows top->bottom, '#' = ink.
_FONT = {
    0: ["#####", "#...#", "#...#", "#...#", "#...#", "#...#", "#####"],
    1: ["..#..", ".##..", "..#..", "..#..", "..#..", "..#..", ".###."],
    2: ["#####", "....#", "....#", "#####", "#....", "#....", "#####"],
    3: ["#####", "....#", "....#", ".####", "....#", "....#", "#####"],
    4: ["#...#", "#...#", "#...#", "#####", "....#", "....#", "....#"],
    5: ["#####", "#....", "#....", "#####", "....#", "....#", "#####"],
    6: ["#####", "#....", "#....", "#####", "#...#", "#...#", "#####"],
    7: ["#####", "....#", "...#.", "..#..", "..#..", ".#...", ".#..."],
    8: ["#####", "#...#", "#...#", "#####", "#...#", "#...#", "#####"],
    9: ["#####", "#...#", "#...#", "#####", "....#", "....#", "#####"],
}


def _glyph(digit: int) -> np.ndarray:
    rows = _FONT[digit]
    return np.array([[1.0 if ch == "#" else 0.0 for ch in row] for row in rows])


def render_digit(digit: int, rng: np.random.Generator,
                 image_size: int = 28, noise: float = 0.12) -> np.ndarray:
    """Render one distorted instance of ``digit`` as (1, S, S) in [0,1]."""
    from scipy import ndimage   # ~22 MB resident: kept off ``import repro``
    glyph = _glyph(digit)
    scale = (image_size * 0.6) / max(glyph.shape)
    img = ndimage.zoom(glyph, scale, order=1, mode="constant")
    canvas = np.zeros((image_size, image_size))
    oy = (image_size - img.shape[0]) // 2
    ox = (image_size - img.shape[1]) // 2
    canvas[oy:oy + img.shape[0], ox:ox + img.shape[1]] = img

    angle = rng.normal(0, 8.0)
    canvas = ndimage.rotate(canvas, angle, reshape=False, order=1, mode="constant")
    shift = rng.normal(0, 1.2, size=2)
    canvas = ndimage.shift(canvas, shift, order=1, mode="constant")
    sigma = rng.uniform(0.5, 1.1)          # stroke thickness / softness
    canvas = ndimage.gaussian_filter(canvas, sigma)
    gain = rng.uniform(1.4, 2.2)
    canvas = np.clip(canvas * gain, 0, 1)
    canvas += rng.normal(0, noise, size=canvas.shape)
    return np.clip(canvas, 0, 1)[None, :, :]


def generate_synth_digits(n_per_class: int, image_size: int = 28,
                          noise: float = 0.12, seed: int = 11,
                          split_seed: int = 0) -> ArrayDataset:
    """Balanced digit dataset: ``n_per_class`` instances of each of 0-9."""
    xs, ys = [], []
    for digit in range(10):
        rng = np.random.default_rng((seed, digit, split_seed))
        for _ in range(n_per_class):
            xs.append(render_digit(digit, rng, image_size, noise))
        ys.append(np.full(n_per_class, digit, dtype=np.int64))
    x = np.stack(xs).astype(np.float32)
    y = np.concatenate(ys)
    order = np.random.default_rng((seed, split_seed, 0x9D)).permutation(len(x))
    return ArrayDataset(x[order], y[order], 10)
