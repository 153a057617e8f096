"""Local Moran's I enhancement of plume images.

For pixel i the statistic is

    I_i = (x_i - mu) / sigma^2 * sum_j w_ij (x_j - mu)

with mu and sigma^2 (population variance) taken over all valid pixels of the
image and w_ij the binary queen-contiguity kernel (the 8 surrounding
cells). Neighbors outside the image or invalid contribute nothing. Contiguous clusters of unusual values score high,
isolated noise pixels do not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridImage

# (drow, dcol) offsets of a pixel's queen-contiguity neighbors
QUEEN = ((-1, -1), (-1, 0), (-1, 1),
         (0, -1), (0, 1),
         (1, -1), (1, 0), (1, 1))


@dataclass(frozen=True)
class MoranStats:
    mean: float
    variance: float
    n: int


def moran_stats(image: GridImage) -> MoranStats:
    vals = image.valid_values()
    n = int(vals.size)
    if n < 2:
        raise ValueError("insufficient pixels")
    mu = float(vals.mean())
    var = float(((vals - mu) ** 2).mean())
    return MoranStats(mean=mu, variance=var, n=n)


def _shifted(a: np.ndarray, dr: int, dc: int) -> np.ndarray:
    """out[r, c] = a[r + dr, c + dc], zero where the source is out of bounds."""
    out = np.zeros_like(a)
    rows, cols = a.shape
    src_r = slice(max(dr, 0), rows + min(dr, 0))
    dst_r = slice(max(-dr, 0), rows + min(-dr, 0))
    src_c = slice(max(dc, 0), cols + min(dc, 0))
    dst_c = slice(max(-dc, 0), cols + min(-dc, 0))
    out[dst_r, dst_c] = a[src_r, src_c]
    return out


def moran_enhance(image: GridImage) -> GridImage:
    """Replace each valid pixel by its local Moran's I; invalid pixels stay
    invalid. Raises on constant images (zero variance) or fewer than two
    valid pixels."""
    stats = moran_stats(image)
    if stats.variance == 0.0:
        raise ValueError("constant image")
    dev = np.where(image.valid, image.values - stats.mean, 0.0)
    acc = np.zeros_like(dev)
    for dr, dc in QUEEN:
        acc += _shifted(dev, dr, dc)
    out = (image.values - stats.mean) / stats.variance * acc
    values = np.where(image.valid, out, np.nan)
    return GridImage(image.spec, values, image.valid.copy())


def moran_on_high(image: GridImage) -> GridImage:
    """Zero every valid pixel strictly below the median of the valid pixels,
    then apply the Moran's I enhancement to the modified image."""
    vals = image.valid_values()
    if vals.size < 2:
        raise ValueError("insufficient pixels")
    med = float(np.median(vals))
    values = np.where(image.valid & (image.values < med), 0.0, image.values)
    return moran_enhance(GridImage(image.spec, values, image.valid.copy()))
