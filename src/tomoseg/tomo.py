"""Parallel-beam projection, FBP reconstruction, dose decimation, u16 windowing.

Acquisition is modeled per axial (XY) slice: rays at angle theta have
direction (-sin t, cos t) and detector coordinate s along (cos t, sin t),
both in voxel units around the slice center.  Line integrals are sampled
bilinearly at unit-voxel steps and scaled by the physical voxel size, so
sinogram entries carry attenuation times micrometers.  Reconstruction
divides that scale back out and returns plain attenuation units.

Every slice shares the same geometry, so both operators act on all slices
at once as sparse-times-dense products with one column per slice.
Projection streams over blocks of angles: each block is a CSR matrix with
one row per ray, holding the 4 bilinear corners of each unit step that
touches the slice (over half of the steps miss it and would add only
zeros).  Back-projection streams over blocks of output pixels: one row
per pixel, holding two linear detector taps per angle, so every row has
the same length (out-of-range taps carry weight 0).  A block is dropped
once applied, so memory stays bounded by the block size and the slab,
not by the full system matrix; nothing is cached between calls.

The ramp filter is built from the real-space Ram-Lak kernel (0.25 at the
origin, -1/(pi n)^2 at odd lags) rather than a plain |f| profile; the two
agree at high frequencies but the kernel form avoids the DC bias that
shows up as cupping on piecewise-constant phantoms.  Filtering is the
zero-padded FFT convolution written as one dense n_bins x n_bins Toeplitz
matrix, applied to every projection row of every slice in one matmul.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import AcquisitionConfig, AttenuationVolume, GrayVolume, read_with_sidecar, \
    write_with_sidecar
from .errors import ConfigError, FormatError, ReconstructionError

_FILTERS = ("ramlak", "hann")
_ANGLES_PER_BLOCK = 16  # a projection block holds this many angles x n_bins rays
_PIXELS_PER_BLOCK = 4096  # a back-projection block holds this many output pixels


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


def _csr_product(indptr: np.ndarray, cols: np.ndarray, weights: np.ndarray,
                 dense: np.ndarray) -> np.ndarray:
    """``M @ dense`` for the CSR matrix M with row pointer ``indptr``.

    Row i holds ``weights[indptr[i]:indptr[i + 1]]`` at the matching
    ``cols``; a column repeated within a row simply adds up.  ``dense`` is
    C-contiguous with one column per slice.
    """
    from scipy.sparse import csr_array

    mat = csr_array((weights, cols, indptr), shape=(len(indptr) - 1, dense.shape[0]))
    return mat @ dense


def _bilinear_taps(x: np.ndarray, y: np.ndarray, nx: int, ny: int):
    """CSR rows (indptr, cols, weights) of the bilinear samples at (x, y), shape (..., n_t).

    One row per leading index (ray).  A step none of whose four corners
    lies in the slice only adds zeros, so it is left out.  A row holds its
    remaining steps corner by corner, in the order of the full 4 * n_t
    taps, and the sums stay bit for bit the same on a finite image: a sum
    that starts at +0 never becomes -0, and adding a zero of either sign to
    it changes nothing.  Corners outside the slice get weight 0 and a
    clipped, valid index.
    """
    n_t = x.shape[-1]
    x = x.reshape(-1, n_t)
    y = y.reshape(-1, n_t)
    # some corner (floor(x) + {0, 1}, floor(y) + {0, 1}) lies in the slice
    keep = (x >= -1) & (x < nx) & (y >= -1) & (y < ny)
    counts = np.count_nonzero(keep, axis=1)
    starts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    flat = np.flatnonzero(keep)
    ray = flat // n_t
    # corner c of a ray's k-th kept step goes to 4 * starts[ray] + c * counts[ray] + k
    first = 4 * starts[ray] + (np.arange(len(flat)) - starts[ray])
    run = counts[ray]
    x = x.ravel()[flat]
    y = y.ravel()[flat]
    x0 = np.floor(x)
    y0 = np.floor(y)
    fx = x - x0
    fy = y - y0
    x0 = x0.astype(np.int32)
    y0 = y0.astype(np.int32)
    cols = np.empty(4 * len(flat), dtype=np.int32)
    weights = np.empty(4 * len(flat), dtype=np.float32)
    for c, (dx, dy, w) in enumerate(((0, 0, (1 - fx) * (1 - fy)), (1, 0, fx * (1 - fy)),
                                     (0, 1, (1 - fx) * fy), (1, 1, fx * fy))):
        xi = x0 + dx
        yi = y0 + dy
        inside = (xi >= 0) & (xi < nx) & (yi >= 0) & (yi < ny)
        dest = first + c * run
        cols[dest] = np.clip(yi, 0, ny - 1) * nx + np.clip(xi, 0, nx - 1)
        weights[dest] = w * inside
    return 4 * starts, cols, weights


def forward_project(vol: AttenuationVolume, cfg: AcquisitionConfig) -> SinogramStack:
    """Project every axial slice at the configured angles.

    Requires the detector to span the slice diagonal so no ray clips the
    support of the image.
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
    n_angles = cfg.n_projections
    cx, cy = (nx - 1) / 2.0, (ny - 1) / 2.0
    half = math.ceil(diag / 2.0)
    t = np.arange(-half, half + 1, dtype=np.float32)
    s = np.arange(n_bins, dtype=np.float32)[:, None] - (n_bins - 1) / 2.0
    theta = np.deg2rad(cfg.angles_deg())
    cos_t = np.cos(theta).astype(np.float32)[:, None, None]
    sin_t = np.sin(theta).astype(np.float32)[:, None, None]
    pixels = np.ascontiguousarray(data3d.reshape(nz, ny * nx).T)
    rays = np.empty((n_angles * n_bins, nz), dtype=np.float32)
    for lo in range(0, n_angles, _ANGLES_PER_BLOCK):
        hi = min(lo + _ANGLES_PER_BLOCK, n_angles)
        c, sn = cos_t[lo:hi], sin_t[lo:hi]
        x = cx + s * c - t * sn  # (angles, bins, n_t)
        y = cy + s * sn + t * c
        rays[lo * n_bins:hi * n_bins] = _csr_product(*_bilinear_taps(x, y, nx, ny), pixels)
    rays *= np.float32(vol.voxel_size_um)
    return SinogramStack(rays.T.reshape(nz, n_angles, n_bins), cfg.angular_step_deg,
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


def fbp_reconstruct(s: SinogramStack, out_dims, filter_name: str = "ramlak") -> AttenuationVolume:
    """Filtered back-projection of every slice onto an (nx, ny) grid.

    Projections are ramp-filtered as if zero-padded to the next power of
    two >= 2*n_bins and filtered in the frequency domain (optionally
    Hann-apodized), back-projected with linear detector interpolation, and
    scaled by pi/(2*n_angles).  Correct for uniform coverage of a 180 or
    360 degree arc.  A result that is not finite everywhere (say, from a
    voxel size so small that the filter scale overflows) raises
    ``ReconstructionError``.
    """
    if s.n_angles < 2:
        raise ReconstructionError(f"need at least 2 angles to reconstruct, got {s.n_angles}")
    if filter_name not in _FILTERS:
        raise ConfigError(f"unknown filter '{filter_name}', expected one of {_FILTERS}")
    if len(out_dims) == 3:
        if out_dims[2] != s.n_slices:
            raise ConfigError(
                f"out_dims z extent {out_dims[2]} != {s.n_slices} sinogram slices"
            )
        out_dims = out_dims[:2]
    out_nx, out_ny = (int(v) for v in out_dims)
    n_slices, n_angles, n_bins = s.data.shape
    scale = np.pi / (2.0 * n_angles) / s.voxel_size_um
    # a non-finite value here carries into the result, which is checked once
    with np.errstate(over="ignore", invalid="ignore"):
        filt = (_filter_matrix(n_bins, filter_name) * scale).astype(np.float32)
        # (angle * bin, slice): one row per detector sample, one column per slice
        filtered = np.ascontiguousarray(
            (s.data.reshape(-1, n_bins) @ filt.T).reshape(n_slices, -1).T)

    xs = np.arange(out_nx, dtype=np.float32) - (out_nx - 1) / 2.0
    ys = np.arange(out_ny, dtype=np.float32) - (out_ny - 1) / 2.0
    grid_x, grid_y = (g.reshape(-1, 1) for g in np.meshgrid(xs, ys))  # (ny * nx, 1)
    theta = np.deg2rad(s.angles_deg())
    cos_t = np.cos(theta).astype(np.float32)
    sin_t = np.sin(theta).astype(np.float32)
    row0 = np.arange(n_angles, dtype=np.int32) * n_bins
    center = (n_bins - 1) / 2.0
    width = 2 * n_angles  # every row holds two linear taps per angle
    indptr = np.arange(0, _PIXELS_PER_BLOCK * width + 1, width)
    recon = np.empty((out_ny * out_nx, n_slices), dtype=np.float32)
    for lo in range(0, recon.shape[0], _PIXELS_PER_BLOCK):
        hi = min(lo + _PIXELS_PER_BLOCK, recon.shape[0])
        k = grid_x[lo:hi] * cos_t + grid_y[lo:hi] * sin_t + center  # (pixels, angles)
        k0 = np.floor(k)
        fr = k - k0
        k0 = k0.astype(np.int32)
        k1 = k0 + 1
        w0 = (1 - fr) * ((k0 >= 0) & (k0 < n_bins))
        w1 = fr * ((k1 >= 0) & (k1 < n_bins))
        cols = np.concatenate([np.clip(k0, 0, n_bins - 1) + row0,
                               np.clip(k1, 0, n_bins - 1) + row0], axis=1)
        recon[lo:hi] = _csr_product(indptr[:hi - lo + 1], cols.ravel(),
                                    np.concatenate([w0, w1], axis=1).ravel(), filtered)
    if not np.isfinite(recon).all():
        raise ReconstructionError(
            f"reconstruction is not finite (voxel size {s.voxel_size_um} um)")
    return AttenuationVolume(recon.T.reshape(n_slices, out_ny, out_nx), s.voxel_size_um)


def normalize_to_u16(vol: AttenuationVolume, window: tuple[float, float]) -> GrayVolume:
    """Map the fixed absorption window affinely onto 0..65535, clamping outside."""
    lo, hi = (float(v) for v in window)
    if not lo < hi:
        raise ConfigError(f"window must satisfy lo < hi, got {window}")
    scaled = (vol.data.astype(np.float64) - lo) * (65535.0 / (hi - lo))
    out = np.rint(np.clip(scaled, 0.0, 65535.0)).astype(np.uint16)
    return GrayVolume(out, vol.voxel_size_um)


# --- sinogram I/O ----------------------------------------------------------

def save_sinogram(s: SinogramStack, path) -> None:
    """Raw little-endian float32 payload plus a JSON sidecar."""
    sidecar = {
        "n_slices": s.n_slices,
        "n_angles": s.n_angles,
        "n_bins": s.n_bins,
        "angle_step_deg": s.angle_step_deg,
        "arc_deg": s.arc_deg,
        "voxel_size_um": s.voxel_size_um,
    }
    write_with_sidecar(path, np.ascontiguousarray(s.data, dtype="<f4"), sidecar)


def load_sinogram(path) -> SinogramStack:
    """Read a stack written by :func:`save_sinogram`; every error names ``path``."""
    meta, raw = read_with_sidecar(path, ("n_slices", "n_angles", "n_bins", "angle_step_deg",
                                         "arc_deg", "voxel_size_um"))
    try:
        n_slices, n_angles, n_bins = (int(meta[k]) for k in ("n_slices", "n_angles", "n_bins"))
        step = float(meta["angle_step_deg"])
        if abs(n_angles * step - float(meta["arc_deg"])) > 1e-6:
            raise FormatError("arc_deg inconsistent with n_angles*angle_step_deg")
        expected = n_slices * n_angles * n_bins * 4
        if len(raw) != expected:
            raise FormatError(f"payload is {len(raw)} bytes, expected {expected}")
        data = np.frombuffer(raw, dtype="<f4").reshape(n_slices, n_angles, n_bins)
        return SinogramStack(data, step, float(meta["voxel_size_um"]))
    except (FormatError, TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"{path}: {e}") from e
