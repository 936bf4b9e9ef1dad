"""2D pre/post-processing filters, tri-view label fusion, 3D hole filling.

All 2D filters take and return uint16 images of unchanged shape, use
reflected boundaries, and clamp results back into the 16-bit range; the
``*_stack`` forms filter the last two axes of an (n, a, b) stack of such
images in one call.

``correlate1d``, ``uniform_filter1d`` and ``median_stack`` compute what
``scipy.ndimage.correlate1d``, ``uniform_filter1d`` and ``median_filter``
compute in mode "reflect", bit for bit: lines are extended the same way
(d c b a | a b c d | d c b a, repeated however far the window reaches)
and sums are taken in float64 in scipy's order.  Each works on a whole
array with the filtered axis first, so a pass is a few dozen numpy calls
whatever the number of lines.  Stacks are filtered a chunk of slices at
a time, which bounds the float64 temporaries.  The module loads no scipy.

``mode_fuse`` holds one boolean volume beside its output.  ``fill_holes_3d``
finds the hole voxels by a search over the Background runs along x
(``hole_voxels``: about 3 bytes a voxel while it finds the runs, then a
few int32 values per run and per hole voxel), copies the labels, and
fills from the hole lining inward; after the first sweep, which goes over
the hole voxels a chunk at a time, each sweep touches only the unfilled
neighbours of the voxels that the sweep before it filled.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import LabelVolume, integers
from .errors import ConfigError, ShapeError

# Voxels per chunk of slices: a filter holds a few float64 (or 25 u16)
# values per voxel of its chunk, whatever the size of the stack.
CHUNK_VOXELS = 1 << 13
_DBL_EPSILON = np.finfo(np.float64).eps


@dataclass(frozen=True)
class FilterConfig:
    unsharp_sigma: float = 2.0
    unsharp_amount: float = 1.0
    median_radius: int = 2
    histeq_bins: int = 256

    def __post_init__(self):
        integers((self.median_radius, self.histeq_bins), "median_radius and histeq_bins",
                 ConfigError)
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


def _require_stack(stack: np.ndarray) -> np.ndarray:
    stack = np.asarray(stack)
    if stack.ndim != 3:
        raise ShapeError(f"expected an (n, a, b) slice stack, got shape {stack.shape}")
    return stack


def slice_chunks(n: int, slice_voxels: int, budget: int = CHUNK_VOXELS) -> list:
    """Slices cutting ``n`` slices into equal runs of about ``budget`` voxels,
    at least one slice each."""
    count = max(1, -(-n * slice_voxels // budget))
    per = max(1, -(-n // count))
    return [slice(i, i + per) for i in range(0, n, per)]


def reflect_index(n: int, r: int) -> np.ndarray:
    """Positions -r .. n+r-1 of an axis of length n folded back into it, as
    scipy's "reflect" mode extends a line: with period 2n, however far out."""
    i = np.arange(-r, n + r) % (2 * n)
    return np.where(i < n, i, 2 * n - 1 - i)


def reflect_pad(x: np.ndarray, r: int) -> np.ndarray:
    """float64 copy of ``x`` extended by ``r`` reflected rows at both ends of axis 0."""
    n = x.shape[0]
    p = np.empty((n + 2 * r,) + x.shape[1:])
    p[r:r + n] = x
    if 0 < r <= n:  # one mirrored block a side, copied without a temporary
        p[:r] = p[2 * r - 1:r - 1:-1]
        p[r + n:] = p[r + n - 1:n - 1:-1]
    elif r:
        index = r + reflect_index(n, r)
        p[:r] = p[index[:r]]
        p[r + n:] = p[index[r + n:]]
    return p


def correlate_padded(p: np.ndarray, weights: np.ndarray, out: np.ndarray,
                     tmp: np.ndarray) -> np.ndarray:
    """Correlate axis 0 of ``p`` with odd, symmetric or antisymmetric weights, as scipy does.

    ``p`` holds ``n = len(out)`` rows reflect-padded by the same number of
    rows, at least ``len(weights) // 2``, at both ends.  The float64 sums
    go to ``out``; ``tmp`` is float64 scratch of its shape.  As in scipy's
    ``correlate1d``, for weights symmetric (antisymmetric) to within
    DBL_EPSILON, output = x[i] w[r], then += (x[i-j] +- x[i+j]) w[r-j] for
    j = r down to 1.
    """
    w = np.asarray(weights, dtype=np.float64)
    n, r = out.shape[0], len(w) // 2
    c = (p.shape[0] - n) // 2
    if len(w) % 2 == 0 or c < r:
        raise ConfigError(f"need an odd number of weights and a pad of at least {r} rows")
    left, right = w[:r][::-1], w[r + 1:]
    if np.all(np.abs(right - left) <= _DBL_EPSILON):
        pair = np.add
    elif np.all(np.abs(right + left) <= _DBL_EPSILON):
        pair = np.subtract
    else:
        raise ConfigError("the weights are neither symmetric nor antisymmetric")
    np.multiply(p[c:c + n], w[r], out=out)
    for j in range(r, 0, -1):
        pair(p[c - j:c - j + n], p[c + j:c + j + n], out=tmp)
        tmp *= w[r - j]
        out += tmp
    return out


def correlate1d(x: np.ndarray, weights, axis: int = -1) -> np.ndarray:
    """``scipy.ndimage.correlate1d(x, weights, axis, mode="reflect")`` for odd,
    symmetric or antisymmetric weights: float64 sums, cast to the dtype of ``x``."""
    x = np.asarray(x)
    w = np.asarray(weights, dtype=np.float64)
    p = reflect_pad(np.moveaxis(x, axis, 0), len(w) // 2)
    acc = np.empty((x.shape[axis],) + p.shape[1:])
    acc = correlate_padded(p, w, acc, np.empty_like(acc))
    return np.moveaxis(acc, 0, axis).astype(x.dtype, copy=False)


def uniform_filter1d(x: np.ndarray, size: int, axis: int = -1) -> np.ndarray:
    """``scipy.ndimage.uniform_filter1d(x, size, axis, mode="reflect")`` for an
    odd ``size``, cast to the dtype of ``x``.

    As in scipy, the first window is summed from 0.0 left to right, each
    next window's float64 sum adds (entering - leaving) to the last one
    (``np.cumsum`` adds in sequence), and each sum is divided by ``size``.
    """
    if size < 1 or size % 2 == 0:
        raise ConfigError(f"box size must be odd and positive, got {size}")
    x = np.asarray(x)
    n = x.shape[axis]
    p = reflect_pad(np.moveaxis(x, axis, 0), size // 2)
    acc = np.empty((n,) + p.shape[1:])
    first = p[0] + 0.0
    for row in p[1:size]:
        first += row
    acc[0] = first
    np.subtract(p[size:], p[:n - 1], out=acc[1:])
    np.cumsum(acc, axis=0, out=acc)
    acc /= size
    return np.moveaxis(acc, 0, axis).astype(x.dtype, copy=False)


def gaussian_weights(sigma: float, order: int = 0) -> np.ndarray:
    """The weights ``scipy.ndimage.gaussian_filter1d`` correlates with at truncate 3.

    A sampled Gaussian of radius ``int(3 * sigma + 0.5)`` normalized to sum
    1, times the polynomial its ``order``-th derivative brings down,
    reversed; built with scipy's own operations, so the floats are equal.
    """
    radius = int(3.0 * float(sigma) + 0.5)
    powers = np.arange(order + 1)
    sigma2 = sigma * sigma
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / sigma2 * x ** 2)
    phi = phi / phi.sum()
    if order:
        q = np.zeros(order + 1)
        q[0] = 1
        derive = np.diag(powers[1:], 1) + np.diag(np.ones(order) / -sigma2, -1)
        for _ in range(order):
            q = derive.dot(q)
        phi = (x[:, None] ** powers).dot(q) * phi
    return phi[::-1]


def unsharp_stack(stack: np.ndarray, sigma: float = 2.0, amount: float = 1.0) -> np.ndarray:
    """``unsharp_mask`` of every slice of an (n, a, b) stack.

    The blur is ``scipy.ndimage.gaussian_filter(f, (0, sigma, sigma),
    mode="reflect", truncate=3)`` of the float64 slices, bit for bit: the
    feature bank's ``gaussian_weights`` correlated along axis 1, then axis 2.
    """
    stack = _require_stack(stack)
    if not sigma > 0:
        raise ConfigError(f"unsharp sigma must be positive, got {sigma}")
    if amount < 0:
        raise ConfigError(f"unsharp amount must be non-negative, got {amount}")
    k = gaussian_weights(sigma)
    out = np.empty(stack.shape, dtype=np.uint16)
    for chunk in slice_chunks(len(stack), stack.shape[1] * stack.shape[2]):
        f = stack[chunk].astype(np.float64)
        sharp = f + amount * (f - correlate1d(correlate1d(f, k, axis=1), k, axis=2))
        out[chunk] = np.rint(np.clip(sharp, 0, 65535))
    return out


def unsharp_mask(img: np.ndarray, sigma: float = 2.0, amount: float = 1.0) -> np.ndarray:
    """Sharpen by adding ``amount`` times the detail layer (image minus blur)."""
    return unsharp_stack(_require_2d(img)[np.newaxis], sigma, amount)[0]


def median_stack(stack: np.ndarray, radius: int = 2) -> np.ndarray:
    """Median over the (2r+1)^2 neighbourhood of every slice of an (n, a, b)
    stack, reflected boundary.

    Each (2r+1)^2 window of the reflect-padded slices is copied out and
    partitioned at its middle rank, so the values are those of scipy's
    ``median_filter``, ties included.
    """
    stack = _require_stack(stack)
    if radius < 1:
        raise ConfigError(f"median radius must be >= 1, got {radius}")
    n, a, b = stack.shape
    size = 2 * radius + 1
    mid = size * size // 2
    rows, cols = reflect_index(a, radius), reflect_index(b, radius)
    out = np.empty(stack.shape, dtype=stack.dtype)
    # the windows copy size^2 values a voxel: a chunk takes the bytes of one float64 chunk
    for chunk in slice_chunks(n, a * b, CHUNK_VOXELS * 8 // (size * size * stack.itemsize)):
        windows = sliding_window_view(stack[chunk][:, rows][:, :, cols], (size, size),
                                      axis=(1, 2))
        windows = windows.reshape(windows.shape[:3] + (size * size,))
        windows.partition(mid, axis=-1)
        out[chunk] = windows[..., mid]
    return out


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


def mode_fuse(a: LabelVolume, b: LabelVolume, c: LabelVolume) -> LabelVolume:
    """Per-voxel majority over three label volumes, ``a`` where all three differ.

    ``a`` keeps its label unless ``b`` and ``c`` agree against it; by
    convention callers pass the axial (XY) prediction as ``a``, the view the
    model was trained on.
    """
    if not (a.dims == b.dims == c.dims):
        raise ShapeError(f"dims mismatch: {a.dims} vs {b.dims} vs {c.dims}")
    fused = np.where(b.data == c.data, b.data, a.data)
    return LabelVolume(fused, a.voxel_size_um, a.class_names)


def _ranges(lo: np.ndarray, hi: np.ndarray, dtype) -> np.ndarray:
    """``arange(lo[i], hi[i])`` for every i with ``lo[i] < hi[i]``, concatenated,
    built by one in-place ``cumsum`` of the steps between them."""
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    out = np.ones(int((hi - lo).sum()), dtype=dtype)
    if out.size:
        out[0] = lo[0]
        out[np.cumsum(hi - lo)[:-1]] = lo[1:] - hi[:-1] + 1
        np.cumsum(out, dtype=dtype, out=out)
    return out


def hole_voxels(data: np.ndarray) -> np.ndarray:
    """Sorted flat indices of the Background (0) voxels of an (nz, ny, nx)
    array that no 6-connected path of Background joins to a face.

    The nodes of a graph are the Background runs along x.  A run is keyed
    by its flat position in an (nz * ny, nx + 1) table of rows (one spare
    column, so that no run spans two rows); the keys of the runs' starts and
    ends both ascend, so the runs of row ``r + d`` that overlap ``[x0, x1)``
    of row ``r`` are those from the first one ending after ``x0`` to the last
    one starting before ``x1``: two ``searchsorted`` calls for a whole
    frontier.  A breadth-first search from the runs that touch a face
    reaches every open run; the others are the holes, and each expands to
    its voxels.  At the ends of a plane the row shifts wrap: y + 1 of the
    last y row is the first y row of the next plane, and y - 1 of the first
    is the last of the one before.  Both rows lie on a face, so their runs
    start reached and the wrap joins no new run.  Keys, run ids and flat
    indices are int32 while the shifted keys stay below 2^31.
    """
    nz, ny, nx = data.shape
    w = nx + 1
    itype = np.int32 if (nz + 1) * ny * w < 2 ** 31 else np.int64
    edge = np.diff((data == 0).view(np.int8).reshape(nz * ny, nx), axis=1,
                   prepend=np.int8(0), append=np.int8(0))
    starts = np.flatnonzero(edge > 0).astype(itype)
    ends = np.flatnonzero(edge < 0).astype(itype)  # one past each run's last voxel
    del edge
    row = starts // w
    y = row % ny
    reached = ((starts % w == 0) | (ends % w == nx) | (y == 0) | (y == ny - 1)
               | (row < ny) | (row >= (nz - 1) * ny))
    del row, y
    shifts = np.array([[w], [-w], [ny * w], [-ny * w]], dtype=itype)
    front = np.flatnonzero(reached)
    while front.size:
        lo = np.searchsorted(ends, (starts[front] + shifts).ravel(), side="right")
        hi = np.searchsorted(starts, (ends[front] + shifts).ravel(), side="left")
        near = _ranges(lo, hi, itype)
        front = np.unique(near[~reached[near]])
        reached[front] = True
    holes = ~reached
    first = starts[holes]
    return _ranges(first - first // w, ends[holes] - first // w, itype)


def fill_holes_3d(labels: LabelVolume) -> LabelVolume:
    """Relabel enclosed Background cavities from their surroundings.

    Background voxels that no 6-connected Background path joins to the
    volume border are holes (``hole_voxels``).  Each sweep assigns every
    hole voxel that has a non-Background face neighbour, all at once, the
    majority label of those neighbours (ties to the lowest class id), until
    no hole voxel is left; non-Background voxels never change, so the fill
    grows inward from the hole lining.  A hole voxel's neighbours are hole
    or non-Background voxels, never open Background, so after the first
    sweep the voxels to fill are the unfilled neighbours of those filled in
    the sweep before.  No hole voxel lies on a face, so its six neighbours
    sit at flat offsets +-1, +-nx and +-nx*ny.
    """
    _, ny, nx = labels.data.shape
    holes = hole_voxels(labels.data)
    cur = labels.data.copy()
    flat = cur.reshape(-1)
    k = len(labels.class_names)
    steps = (1, -1, nx, -nx, nx * ny, -nx * ny)

    def lined(cand):  # the voxels of cand with a labelled neighbour, and their labels
        near = np.stack([flat[cand + step] for step in steps])
        keep = near.any(axis=0)
        near = near[:, keep]
        counts = np.stack([(near == c).sum(axis=0, dtype=np.uint8) for c in range(1, k)])
        return cand[keep], (counts.argmax(axis=0) + 1).astype(np.uint8)

    # the first sweep goes over the hole voxels a chunk at a time, which bounds its temporaries
    parts = [lined(holes[i:i + CHUNK_VOXELS]) for i in range(0, max(holes.size, 1), CHUNK_VOXELS)]
    del holes
    filled, values = map(np.concatenate, zip(*parts))
    del parts
    while filled.size:
        flat[filled] = values
        cand = [n[flat[n] == 0] for n in (filled + step for step in steps)]
        filled, values = lined(np.unique(np.concatenate(cand)))
    return LabelVolume(cur, labels.voxel_size_um, labels.class_names)
