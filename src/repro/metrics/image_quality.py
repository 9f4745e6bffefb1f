"""Perceptual image-quality metrics: SSIM / DSSIM / PSNR.

The paper reports DSSIM below 0.0092 for all adversarial images,
certifying imperceptibility; we reproduce the check with a standard
Gaussian-window SSIM (Wang et al. 2004) and DSSIM = (1 - SSIM) / 2.
"""

from __future__ import annotations

import numpy as np


def _ssim_single(a: np.ndarray, b: np.ndarray, data_range: float,
                 sigma: float = 1.5) -> float:
    """SSIM of two 2D images via Gaussian-weighted local statistics."""
    from scipy import ndimage   # ~22 MB resident: kept off ``import repro``
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    mu_a = ndimage.gaussian_filter(a, sigma)
    mu_b = ndimage.gaussian_filter(b, sigma)
    mu_aa = ndimage.gaussian_filter(a * a, sigma)
    mu_bb = ndimage.gaussian_filter(b * b, sigma)
    mu_ab = ndimage.gaussian_filter(a * b, sigma)
    var_a = np.maximum(mu_aa - mu_a ** 2, 0.0)
    var_b = np.maximum(mu_bb - mu_b ** 2, 0.0)
    cov = mu_ab - mu_a * mu_b
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return float((num / den).mean())


def ssim(a: np.ndarray, b: np.ndarray, data_range: float = 1.0) -> float:
    """Mean SSIM over channels for (C, H, W) or (H, W) images."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim == 2:
        return _ssim_single(a, b, data_range)
    if a.ndim == 3:
        return float(np.mean([_ssim_single(a[c], b[c], data_range)
                              for c in range(a.shape[0])]))
    raise ValueError(f"expected (H, W) or (C, H, W), got {a.shape}")


def dssim(a: np.ndarray, b: np.ndarray, data_range: float = 1.0) -> float:
    """Structural dissimilarity: (1 - SSIM) / 2; 0 for identical images."""
    return (1.0 - ssim(a, b, data_range)) / 2.0


def batch_dssim(batch_a: np.ndarray, batch_b: np.ndarray,
                data_range: float = 1.0) -> np.ndarray:
    """Per-sample DSSIM for (N, C, H, W) batches."""
    if batch_a.shape != batch_b.shape:
        raise ValueError(f"shape mismatch: {batch_a.shape} vs {batch_b.shape}")
    return np.array([dssim(a, b, data_range) for a, b in zip(batch_a, batch_b)])


def psnr(a: np.ndarray, b: np.ndarray, data_range: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB (inf for identical images)."""
    mse = float(np.mean((np.asarray(a, dtype=np.float64)
                         - np.asarray(b, dtype=np.float64)) ** 2))
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(data_range ** 2 / mse)
