"""Parallel-beam projection, FBP reconstruction, dose decimation, u16 windowing.

Acquisition is modeled per axial (XY) slice: rays at angle theta have
direction (-sin t, cos t) and detector coordinate s along (cos t, sin t),
both in voxel units around the slice center.  Line integrals are sampled
bilinearly at unit-voxel steps and scaled by the physical voxel size, so
sinogram entries carry attenuation times micrometers.  Reconstruction
divides that scale back out and returns plain attenuation units.

Every slice shares the same geometry, so both operators act on all slices
at once as sparse-times-dense products with one column per slice.
Projection streams over blocks of rays: each block is a CSR matrix with
one row per ray, holding the 4 bilinear corners of each unit step that
touches the slice (over half of the steps miss it and would add only
zeros).  Back-projection streams over blocks of output pixels: one row
per pixel, holding two linear detector taps per angle, so every row has
the same length (out-of-range taps carry weight 0).

The blocks of a call run on ``jobs`` threads (default: every CPU the
process may use); the calling thread is one of them.  Each block writes
its own columns of the output, and scipy's CSR product releases the GIL.
One tap budget, ``_TAPS_PER_BLOCK``, bounds all blocks in flight: each
of the ``jobs`` threads builds blocks of ``_TAPS_PER_BLOCK // jobs`` taps,
as many rows as fit (at least one), so their memory does not grow with
the number of angles, the detector width or the slice size.  Each thread
allocates its block buffers once and builds every block it takes in them;
a block is dropped once applied, and nothing is cached between calls.
Rows keep their order and their taps, so the sums depend neither on the
budget nor on ``jobs``, bit for bit.  Beyond the blocks, projection holds
its output and a pixel-major copy of its input, and FBP its output and
the filtered sinogram; ``normalize_to_u16`` maps one z-plane at a time.

The ramp filter is built from the real-space Ram-Lak kernel (0.25 at the
origin, -1/(pi n)^2 at odd lags) rather than a plain |f| profile; the two
agree at high frequencies but the kernel form avoids the DC bias that
shows up as cupping on piecewise-constant phantoms.  Filtering is the
zero-padded FFT convolution written as one dense n_bins x n_bins Toeplitz
matrix, applied to the projection rows of a few slices per matmul and
written straight into the filtered sinogram.
"""

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import AcquisitionConfig, AttenuationVolume, GrayVolume, read_with_sidecar, \
    worker_count, write_with_sidecar
from .errors import ConfigError, FormatError, ReconstructionError

# the filter names fbp_reconstruct accepts
RECON_FILTERS = ("ramlak", "hann")
# CSR taps of all blocks in flight, before projection leaves out its zero steps
_TAPS_PER_BLOCK = 1 << 18
# least filtered values per filter product, far above the sizes that BLAS
# hands to its small-matrix kernels
_FILTER_VALUES = 1 << 16


@dataclass(frozen=True)
class SinogramStack:
    """Per-slice stacks of line integrals, shape (n_slices, n_angles, n_bins).

    Angles start at 0 degrees and advance by ``angle_step_deg``; decimating
    doses multiplies the step, so uniform spacing holds by construction.
    """

    data: np.ndarray  # float32
    angle_step_deg: float
    voxel_size_um: float = 1.0

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float32)
        if arr.ndim != 3:
            raise FormatError(f"sinogram stack must be 3-dimensional, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        if not self.angle_step_deg > 0:
            raise FormatError(f"angle_step_deg must be positive, got {self.angle_step_deg}")
        if not self.voxel_size_um > 0:
            raise FormatError(f"voxel_size_um must be positive, got {self.voxel_size_um}")

    @property
    def n_slices(self) -> int:
        return self.data.shape[0]

    @property
    def n_angles(self) -> int:
        return self.data.shape[1]

    @property
    def n_bins(self) -> int:
        return self.data.shape[2]

    @property
    def arc_deg(self) -> float:
        return self.n_angles * self.angle_step_deg

    def angles_deg(self) -> np.ndarray:
        return np.arange(self.n_angles, dtype=np.float64) * self.angle_step_deg


@dataclass(frozen=True)
class DoseLevel:
    """Projection-dose reduction by angle decimation; stride k keeps every k-th."""

    keep_every: int = 1

    def __post_init__(self):
        if self.keep_every not in (1, 2, 3):
            raise ConfigError(f"dose stride must be 1, 2 or 3, got {self.keep_every}")

    @property
    def name(self) -> str:
        return f"D{self.keep_every}"


def _run_blocks(n: int, taps_per_row: int, jobs, worker) -> None:
    """Cover rows 0..n-1 in blocks on ``jobs`` threads (None: every available CPU).

    The tap budget is split between the threads, and a block holds as many
    rows as fit in its share (at least one).  ``worker(rows)`` is called
    once in each thread and returns that thread's ``block(lo, hi)``, so a
    thread allocates its buffers once.  The threads take the next block
    start from one shared iterator; the calling thread is one of them.
    """
    jobs = worker_count(jobs)
    rows = max(1, min(n, _TAPS_PER_BLOCK // jobs // taps_per_row))
    starts = iter(range(0, n, rows))
    lock, failed = threading.Lock(), threading.Event()

    def drain() -> None:
        try:
            block = worker(rows)
            while not failed.is_set():
                with lock:
                    lo = next(starts, None)
                if lo is None:
                    return
                block(lo, min(lo + rows, n))
        except BaseException:
            failed.set()  # the other threads take no further block
            raise

    helpers = min(jobs, -(-n // rows)) - 1
    if helpers < 1:
        return drain()
    with ThreadPoolExecutor(helpers) as pool:
        futures = [pool.submit(drain) for _ in range(helpers)]
        drain()
        for f in futures:
            f.result()


def _bilinear_taps(x: np.ndarray, y: np.ndarray, nx: int, ny: int,
                   cols: np.ndarray, weights: np.ndarray):
    """CSR rows (indptr, cols, weights) of the bilinear samples at (x, y), shape (rays, n_t).

    One row per ray.  The full 4 * n_t taps of each ray are first written,
    corner by corner, into ``cols`` and ``weights`` (shape (rays, 4, n_t));
    ``x`` and ``y`` are overwritten.  A step none of whose four corners
    lies in the slice only adds zeros, so it is then left out; a row keeps
    its remaining taps in the full order, and the sums stay bit for bit the
    same on a finite image: a sum that starts at +0 never becomes -0, and
    adding a zero of either sign to it changes nothing.  Corners outside
    the slice get weight 0 and a clipped, valid index.
    """
    # some corner (floor(x) + {0, 1}, floor(y) + {0, 1}) lies in the slice
    keep = (x >= -1) & (x < nx) & (y >= -1) & (y < ny)
    along_x = _axis_corners(x, nx)
    along_y = _axis_corners(y, ny)
    for _, index in along_y:
        index *= nx
    for c, (dx, dy) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
        (wx, ix), (wy, iy) = along_x[dx], along_y[dy]
        # wx and wy are 0 off the slice and no factor is negative, so this is
        # the float32 (wx * wy) * inside
        np.multiply(wx, wy, out=weights[:, c])
        np.add(iy, ix, out=cols[:, c])
    kept = np.repeat(keep[:, None], 4, axis=1)
    counts = np.count_nonzero(keep, axis=1)
    # a block holds far fewer than 2^31 taps; an int64 indptr would make
    # scipy copy ``cols`` to int64 as well
    indptr = np.zeros(len(counts) + 1, dtype=np.int32)
    np.cumsum(4 * counts, out=indptr[1:])
    return indptr, cols[kept], weights[kept]


def _axis_corners(u: np.ndarray, n: int):
    """For corners floor(u) + 0 and + 1 along an axis of n voxels: (weight, clipped index).

    The weight is 1 - frac(u) or frac(u), zeroed where the corner lies
    outside 0..n-1.  The upper corner's weight is ``u`` itself, overwritten
    in place; every other array returned is new and the caller's to change.
    """
    lower = np.floor(u)
    np.subtract(u, lower, out=u)
    lower = lower.astype(np.int32)
    corners = []
    for w, index in ((1 - u, lower), (u, lower + 1)):
        w *= index.view(np.uint32) < n  # a negative index reads as 2^31 or more
        corners.append((w, np.clip(index, 0, n - 1, out=index)))
    return corners


def forward_project(vol: AttenuationVolume, cfg: AcquisitionConfig,
                    jobs: int = None) -> SinogramStack:
    """Project every axial slice at the configured angles.

    Requires the detector to span the slice diagonal so no ray clips the
    support of the image.  The blocks of rays run on ``jobs`` threads
    (None: every CPU this process may use); the result does not depend on
    ``jobs``.
    """
    data3d = vol.data
    nz, ny, nx = data3d.shape
    diag = math.hypot(nx, ny)
    if cfg.detector_bins < diag:
        raise ConfigError(
            f"detector_bins={cfg.detector_bins} cannot cover the slice diagonal "
            f"({diag:.1f} voxels)"
        )
    n_bins = cfg.detector_bins
    n_rays = cfg.n_projections * n_bins
    cx, cy = (nx - 1) / 2.0, (ny - 1) / 2.0
    half = math.ceil(diag / 2.0)
    t = np.arange(-half, half + 1, dtype=np.float32)
    s = np.arange(n_bins, dtype=np.float32) - (n_bins - 1) / 2.0
    theta = np.deg2rad(cfg.angles_deg())
    cos_t = np.cos(theta).astype(np.float32)
    sin_t = np.sin(theta).astype(np.float32)
    pixels = np.ascontiguousarray(data3d.reshape(nz, ny * nx).T)
    sino = np.empty((nz, n_rays), dtype=np.float32)
    from scipy.sparse import csr_array  # imported here, not first in a worker thread

    def worker(rows):
        x, y = np.empty((2, rows, len(t)), dtype=np.float32)
        cols = np.empty((rows, 4, len(t)), dtype=np.int32)
        weights = np.empty((rows, 4, len(t)), dtype=np.float32)

        def block(lo, hi):
            m = hi - lo
            # ray (angle a, bin b) samples (cx + s_b cos_a - t sin_a, cy + s_b sin_a + t cos_a)
            angle, bin_ = np.divmod(np.arange(lo, hi), n_bins)
            c, sn, sb = cos_t[angle, None], sin_t[angle, None], s[bin_, None]
            np.multiply(t, sn, out=x[:m])
            np.subtract(cx + sb * c, x[:m], out=x[:m])
            np.multiply(t, c, out=y[:m])
            np.add(cy + sb * sn, y[:m], out=y[:m])
            indptr, kept_cols, kept_weights = _bilinear_taps(x[:m], y[:m], nx, ny, cols[:m],
                                                             weights[:m])
            # a pixel repeated within a row (a clipped corner) simply adds up
            mat = csr_array((kept_weights, kept_cols, indptr), shape=(m, ny * nx))
            sino[:, lo:hi] = (mat @ pixels).T
        return block

    _run_blocks(n_rays, 4 * len(t), jobs, worker)
    sino *= np.float32(vol.voxel_size_um)
    return SinogramStack(sino.reshape(nz, cfg.n_projections, n_bins), cfg.angular_step_deg,
                         vol.voxel_size_um)


def subsample_dose(s: SinogramStack, dose: DoseLevel) -> SinogramStack:
    """Keep angles at indices 0, k, 2k, ...; stride 1 returns an equal stack."""
    k = dose.keep_every
    return SinogramStack(s.data[:, ::k, :], s.angle_step_deg * k, s.voxel_size_um)


def _ramp_filter(p: int) -> np.ndarray:
    """Frequency response (rfft bins) of the discrete Ram-Lak kernel, doubled."""
    kernel = np.zeros(p)
    kernel[0] = 0.25
    odd = np.arange(1, p // 2 + 1, 2)
    kernel[odd] = -1.0 / (np.pi * odd) ** 2
    kernel[-odd] = -1.0 / (np.pi * odd) ** 2
    return 2.0 * np.fft.rfft(kernel).real


def _filter_matrix(n_bins: int, filter_name: str) -> np.ndarray:
    """The padded-FFT ramp filter as a dense (out bin, in bin) Toeplitz matrix.

    Zero-padding to ``pad >= 2*n_bins`` makes the circular convolution with
    the filter's impulse response linear on the first ``n_bins`` samples, so
    entry (i, j) is that response at lag i - j.
    """
    pad = 1 << max(4, (2 * n_bins - 1).bit_length())
    filt = _ramp_filter(pad)
    if filter_name == "hann":
        filt = filt * (0.5 + 0.5 * np.cos(2.0 * np.pi * np.fft.rfftfreq(pad)))
    impulse = np.fft.irfft(filt, n=pad)
    lags = np.arange(n_bins)[:, None] - np.arange(n_bins)[None, :]
    return impulse[lags % pad]


def fbp_reconstruct(s: SinogramStack, out_dims, filter_name: str = "ramlak",
                    jobs: int = None) -> AttenuationVolume:
    """Filtered back-projection of every slice onto an (nx, ny) grid.

    Projections are ramp-filtered as if zero-padded to the next power of
    two >= 2*n_bins and filtered in the frequency domain (optionally
    Hann-apodized), back-projected with linear detector interpolation, and
    scaled by pi/(2*n_angles).  Correct for uniform coverage of a 180 or
    360 degree arc.  A result that is not finite everywhere (say, from a
    voxel size so small that the filter scale overflows) raises
    ``ReconstructionError``.  The blocks of pixels run on ``jobs`` threads
    (None: every CPU this process may use); the result does not depend on
    ``jobs``.  An output size below 1 raises ``ConfigError``.
    """
    if s.n_angles < 2:
        raise ReconstructionError(f"need at least 2 angles to reconstruct, got {s.n_angles}")
    if filter_name not in RECON_FILTERS:
        raise ConfigError(f"unknown filter '{filter_name}', expected one of {RECON_FILTERS}")
    if len(out_dims) == 3:
        if out_dims[2] != s.n_slices:
            raise ConfigError(
                f"out_dims z extent {out_dims[2]} != {s.n_slices} sinogram slices"
            )
        out_dims = out_dims[:2]
    out_nx, out_ny = (int(v) for v in out_dims)
    if min(out_nx, out_ny) < 1:
        raise ConfigError(f"output size must be at least 1x1, got {out_nx}x{out_ny}")
    n_slices, n_angles, n_bins = s.data.shape
    scale = np.pi / (2.0 * n_angles) / s.voxel_size_um
    # (angle * bin, slice): one row per detector sample, one column per slice
    filtered = np.empty((n_angles * n_bins, n_slices), dtype=np.float32)
    # a few slices per product, each product at least _FILTER_VALUES values
    # (or the whole stack): BLAS sums every row the same way once a product
    # is that large, whatever its row count
    per_slice = n_angles * n_bins
    chunks = max(1, n_slices // -(-_FILTER_VALUES // per_slice))
    # a non-finite value here carries into the result, which is checked once
    with np.errstate(over="ignore", invalid="ignore"):
        filt_t = (_filter_matrix(n_bins, filter_name) * scale).astype(np.float32).T
        for part, out in zip(np.array_split(s.data, chunks),
                             np.array_split(filtered, chunks, axis=1)):
            out[...] = (part.reshape(-1, n_bins) @ filt_t).reshape(-1, per_slice).T

    xs = np.arange(out_nx, dtype=np.float32) - (out_nx - 1) / 2.0
    ys = np.arange(out_ny, dtype=np.float32) - (out_ny - 1) / 2.0
    grid_x, grid_y = (g.reshape(-1, 1) for g in np.meshgrid(xs, ys))  # (ny * nx, 1)
    theta = np.deg2rad(s.angles_deg())
    cos_t = np.cos(theta).astype(np.float32)
    sin_t = np.sin(theta).astype(np.float32)
    row0 = np.arange(n_angles, dtype=np.int32) * n_bins
    center = (n_bins - 1) / 2.0
    width = 2 * n_angles  # every row holds two linear taps per angle
    recon = np.empty((n_slices, out_ny * out_nx), dtype=np.float32)
    from scipy.sparse import csr_array  # imported here, not first in a worker thread

    def worker(rows):
        indptr = np.arange(0, rows * width + 1, width, dtype=np.int32)
        # row i: the lower tap of every angle, then the upper one
        cols = np.empty((rows, 2, n_angles), dtype=np.int32)
        weights = np.empty((rows, 2, n_angles), dtype=np.float32)

        def block(lo, hi):
            m = hi - lo
            # detector position x cos + y sin + center of each (pixel, angle), in
            # the upper weights' place: _axis_corners turns it into that weight
            pos = weights[:m, 1]
            np.multiply(grid_x[lo:hi], cos_t, out=pos)
            np.add(pos, np.multiply(grid_y[lo:hi], sin_t, out=weights[:m, 0]), out=pos)
            np.add(pos, center, out=pos)
            for j, (w, tap) in enumerate(_axis_corners(pos, n_bins)):
                weights[:m, j] = w
                np.add(tap, row0, out=cols[:m, j])
            mat = csr_array((weights[:m].ravel(), cols[:m].ravel(), indptr[:m + 1]),
                            shape=(m, filtered.shape[0]))
            recon[:, lo:hi] = (mat @ filtered).T
        return block

    _run_blocks(recon.shape[1], width, jobs, worker)
    if not np.isfinite(recon).all():
        raise ReconstructionError(
            f"reconstruction is not finite (voxel size {s.voxel_size_um} um)")
    return AttenuationVolume(recon.reshape(n_slices, out_ny, out_nx), s.voxel_size_um)


def window_bounds(window) -> tuple[float, float]:
    """The (lo, hi) floats of an absorption window; ``ConfigError`` unless lo < hi
    with a finite width ``hi - lo``: an infinite bound would map every voxel
    to 0 or to NaN."""
    lo, hi = (float(v) for v in window)
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ConfigError(f"window must be two finite numbers lo < hi, got {window}")
    return lo, hi


def normalize_to_u16(vol: AttenuationVolume, window: tuple[float, float]) -> GrayVolume:
    """Map the fixed absorption window (``window_bounds``) affinely onto
    0..65535, clamping outside."""
    lo, hi = window_bounds(window)
    scale = 65535.0 / (hi - lo)
    out = np.empty(vol.data.shape, dtype=np.uint16)
    for plane, gray in zip(vol.data, out):  # one float64 z-plane at a time
        scaled = plane.astype(np.float64)
        scaled -= lo
        scaled *= scale
        gray[...] = np.rint(np.clip(scaled, 0.0, 65535.0, out=scaled), out=scaled)
    return GrayVolume(out, vol.voxel_size_um)


# --- sinogram I/O ----------------------------------------------------------

# The keys of a .sino sidecar, the SinogramStack attributes of the same names:
# the three extents of the data's shape, then three floats.
_SINO_KEYS = ("n_slices", "n_angles", "n_bins", "angle_step_deg", "arc_deg", "voxel_size_um")


def save_sinogram(s: SinogramStack, path) -> None:
    """Raw little-endian float32 payload plus a JSON sidecar."""
    write_with_sidecar(path, np.ascontiguousarray(s.data, dtype="<f4"),
                       {key: getattr(s, key) for key in _SINO_KEYS})


def load_sinogram(path) -> SinogramStack:
    """Read a stack written by :func:`save_sinogram`; every error names ``path``."""
    meta, raw = read_with_sidecar(path, _SINO_KEYS)
    try:
        shape = tuple(int(meta[key]) for key in _SINO_KEYS[:3])
        step, arc, voxel = (float(meta[key]) for key in _SINO_KEYS[3:])
        if abs(shape[1] * step - arc) > 1e-6:
            raise FormatError("arc_deg inconsistent with n_angles*angle_step_deg")
        expected = 4 * math.prod(shape)
        if len(raw) != expected:
            raise FormatError(f"payload is {len(raw)} bytes, expected {expected}")
        return SinogramStack(np.frombuffer(raw, dtype="<f4").reshape(shape), step, voxel)
    except (FormatError, TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"{path}: {e}") from e
