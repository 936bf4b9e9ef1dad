"""2D pre/post-processing filters, tri-view label fusion, 3D hole filling.

All 2D filters take and return uint16 images of unchanged shape, use
reflected boundaries, and clamp results back into the 16-bit range.
``scipy.ndimage`` is imported inside the functions that call it: every CLI
step imports this module, and only the steps that filter pay for scipy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import LabelVolume
from .errors import ConfigError, ShapeError

_FACE_SHIFTS = ((0, 0, 1), (0, 0, -1), (0, 1, 0), (0, -1, 0), (1, 0, 0), (-1, 0, 0))


@dataclass(frozen=True)
class FilterConfig:
    unsharp_sigma: float = 2.0
    unsharp_amount: float = 1.0
    median_radius: int = 2
    histeq_bins: int = 256

    def __post_init__(self):
        if not self.unsharp_sigma > 0:
            raise ConfigError(f"unsharp sigma must be positive, got {self.unsharp_sigma}")
        if self.unsharp_amount < 0:
            raise ConfigError(f"unsharp amount must be non-negative, got {self.unsharp_amount}")
        if self.median_radius < 1:
            raise ConfigError(f"median radius must be >= 1, got {self.median_radius}")
        if self.histeq_bins < 2:
            raise ConfigError(f"histeq bins must be >= 2, got {self.histeq_bins}")


def _require_2d(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.ndim != 2:
        raise ShapeError(f"expected a 2D image, got shape {img.shape}")
    return img


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Sampled Gaussian truncated at 3*sigma (radius floor(3*sigma)), normalized."""
    radius = int(math.floor(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur in float64, reflected boundary."""
    import scipy.ndimage as ndi

    k = gaussian_kernel_1d(sigma)
    out = ndi.correlate1d(np.asarray(img, dtype=np.float64), k, axis=0, mode="reflect")
    return ndi.correlate1d(out, k, axis=1, mode="reflect")


def unsharp_mask(img: np.ndarray, sigma: float = 2.0, amount: float = 1.0) -> np.ndarray:
    """Sharpen by adding ``amount`` times the detail layer (image minus blur)."""
    img = _require_2d(img)
    if not sigma > 0:
        raise ConfigError(f"unsharp sigma must be positive, got {sigma}")
    if amount < 0:
        raise ConfigError(f"unsharp amount must be non-negative, got {amount}")
    f = img.astype(np.float64)
    sharp = f + amount * (f - gaussian_blur(f, sigma))
    return np.rint(np.clip(sharp, 0, 65535)).astype(np.uint16)


def median_filter(img: np.ndarray, radius: int = 2) -> np.ndarray:
    """Median over the (2r+1)^2 neighborhood, reflected boundary."""
    img = _require_2d(img)
    if radius < 1:
        raise ConfigError(f"median radius must be >= 1, got {radius}")
    import scipy.ndimage as ndi

    return ndi.median_filter(img, size=2 * radius + 1, mode="reflect")


def hist_equalize(img: np.ndarray, bins: int = 256) -> np.ndarray:
    """CDF remap onto the full u16 range; constant images pass through."""
    img = _require_2d(img)
    if bins < 2:
        raise ConfigError(f"histeq bins must be >= 2, got {bins}")
    if img.size == 0 or int(img.max()) == int(img.min()):
        return img.astype(np.uint16, copy=True)
    idx = (img.astype(np.int64) * bins) >> 16
    hist = np.bincount(idx.ravel(), minlength=bins)
    cdf = np.cumsum(hist, dtype=np.float64) / img.size
    return np.rint(65535.0 * cdf[idx]).astype(np.uint16)


def mode_fuse(a: LabelVolume, b: LabelVolume, c: LabelVolume,
              tiebreak: str = "a") -> LabelVolume:
    """Per-voxel majority over three label volumes.

    With no majority (all three labels distinct) the voxel takes the value
    of the ``tiebreak`` input; by convention callers pass the axial (XY)
    prediction as ``a``, the view the model was trained on.
    """
    if tiebreak not in ("a", "b", "c"):
        raise ConfigError(f"tiebreak must be 'a', 'b' or 'c', got {tiebreak!r}")
    if not (a.dims == b.dims == c.dims):
        raise ShapeError(f"dims mismatch: {a.dims} vs {b.dims} vs {c.dims}")
    da, db, dc = a.data, b.data, c.data
    src = {"a": da, "b": db, "c": dc}[tiebreak]
    fused = np.where((da == db) | (da == dc), da, np.where(db == dc, db, src))
    return LabelVolume(fused, a.voxel_size_um, a.class_names)


def _neighbor_class_counts(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Count face-adjacent (6-connectivity) occurrences of each class per voxel."""
    counts = np.zeros((n_classes,) + labels.shape, dtype=np.uint8)
    for dz, dy, dx in _FACE_SHIFTS:
        src = labels[
            slice(max(dz, 0), labels.shape[0] + min(dz, 0)),
            slice(max(dy, 0), labels.shape[1] + min(dy, 0)),
            slice(max(dx, 0), labels.shape[2] + min(dx, 0)),
        ]
        dst = (
            slice(max(-dz, 0), labels.shape[0] + min(-dz, 0)),
            slice(max(-dy, 0), labels.shape[1] + min(-dy, 0)),
            slice(max(-dx, 0), labels.shape[2] + min(-dx, 0)),
        )
        for cid in range(1, n_classes):
            counts[cid][dst] += src == cid
    return counts


def fill_holes_3d(labels: LabelVolume) -> LabelVolume:
    """Relabel enclosed Background cavities from their surroundings.

    Background is flood-filled from the volume border with 6-connectivity;
    unreached Background voxels are holes.  Holes are filled iteratively:
    each sweep simultaneously assigns every hole voxel the majority label
    of its face-adjacent non-Background neighbors (ties to the lowest
    class id), until nothing changes.  Non-Background voxels are never
    modified, so the fill grows inward from the hole lining.
    """
    import scipy.ndimage as ndi

    n_classes = len(labels.class_names)
    cur = labels.data.copy()
    bg = cur == 0
    comp, _ = ndi.label(bg, structure=ndi.generate_binary_structure(3, 1))
    border_ids = np.unique(np.concatenate([
        comp[0].ravel(), comp[-1].ravel(),
        comp[:, 0].ravel(), comp[:, -1].ravel(),
        comp[:, :, 0].ravel(), comp[:, :, -1].ravel(),
    ]))
    border_ids = border_ids[border_ids != 0]
    holes = bg & ~np.isin(comp, border_ids)
    while holes.any():
        counts = _neighbor_class_counts(cur, n_classes)[1:]
        filled = counts.max(axis=0) > 0
        best = (np.argmax(counts, axis=0) + 1).astype(np.uint8)
        update = holes & filled
        if not update.any():
            break
        cur[update] = best[update]
        holes &= ~update
    return LabelVolume(cur, labels.voxel_size_um, labels.class_names)
