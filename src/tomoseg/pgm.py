"""Binary 8-bit PGM (P5) export for visual inspection of slices.

Gray slices are downscaled from 16 to 8 bits by dropping the low byte.
Label slices use the fixed palette 0, 51, 102, 153, 204, 255 for class
ids 0..5 so every class lands on a distinct, evenly spaced gray level.
"""

import re
from pathlib import Path

import numpy as np

from .core import N_CLASSES
from .errors import FormatError, ShapeError

LABEL_PALETTE = tuple(51 * i for i in range(N_CLASSES))
_PALETTE_LUT = np.array(LABEL_PALETTE, dtype=np.uint8)
_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s")


def gray_to_8bit(img: np.ndarray) -> np.ndarray:
    return (np.asarray(img, dtype=np.uint16) >> 8).astype(np.uint8)


def label_to_8bit(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.size and int(img.max()) >= N_CLASSES:
        raise FormatError(f"label {int(img.max())} has no palette entry")
    return _PALETTE_LUT[img]


def float_to_8bit(img: np.ndarray) -> np.ndarray:
    """Min-max scale a float slice onto 0..255 (constant slices map to 0)."""
    img = np.asarray(img, dtype=np.float64)
    lo, hi = float(img.min()), float(img.max())
    if hi <= lo:
        return np.zeros(img.shape, dtype=np.uint8)
    return np.rint((img - lo) * (255.0 / (hi - lo))).astype(np.uint8)


def write_pgm(img: np.ndarray, path) -> None:
    """Write a 2D uint8 array as binary PGM; rows map to image rows."""
    img = np.ascontiguousarray(img)
    if img.ndim != 2:
        raise ShapeError(f"PGM export needs a 2D image, got shape {img.shape}")
    if img.dtype != np.uint8:
        raise FormatError(f"PGM export needs uint8 data, got {img.dtype}")
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read back a binary PGM written by write_pgm (maxval 255 only).

    The header is the magic ``P5``, width, height and maxval, separated by
    whitespace; exactly one whitespace byte follows maxval, so a first
    pixel whose value is a whitespace byte is read as a pixel.
    """
    blob = Path(path).read_bytes()
    header = _HEADER.match(blob)
    if header is None:
        raise FormatError(f"{path}: not a binary PGM")
    w, h, maxval = (int(v) for v in header.groups())
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval}")
    data = blob[header.end():header.end() + w * h]
    if len(data) != w * h:
        raise FormatError(f"{path}: truncated pixel data")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w)
