"""Shared domain types, coordinate conventions, and volume I/O.

Conventions used throughout the package:

* A volume stores its voxels in a C-ordered numpy array of shape
  ``(nz, ny, nx)``: z is the slowest (slice) index, x the fastest.
  ``dims`` always reports ``(nx, ny, nz)``.
* Voxels are isotropic; ``voxel_size_um`` is the edge length in micrometers.
* On disk a volume is a raw little-endian payload (``.vol``) plus a JSON
  sidecar (``.vol.json``) holding dims, voxel size, dtype and, for label
  volumes, the class table.
* All randomness in the package uses numpy's Philox (4x64) counter-based
  bit generator so results are reproducible across platforms.
"""

import enum
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError

# Class table: Background is the implicit complement of the labeled anatomy.
CLASS_NAMES = ("Background", "Atrium", "Ventricle", "Bulbus", "Compacta", "Lacunary")
N_CLASSES = len(CLASS_NAMES)


class ClassId(enum.IntEnum):
    """Dense label ids for the six segmentation classes."""

    BACKGROUND = 0
    ATRIUM = 1
    VENTRICLE = 2
    BULBUS = 3
    COMPACTA = 4
    LACUNARY = 5


class ViewAxis(enum.Enum):
    """Orthogonal slicing planes.

    XY is the axial view (perpendicular to the rotation axis z),
    XZ the sagittal view, YZ the coronal view.  A slice through plane AB
    is returned with shape ``(nA, nB)``.
    """

    XY = "xy"
    XZ = "xz"
    YZ = "yz"


def rng_for_seed(seed, *stream) -> np.random.Generator:
    """Philox generator for ``seed``; extra ints select independent streams."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed),) + tuple(int(s) for s in stream))))


def _as_locked(arr: np.ndarray, dtype) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=dtype)
    if out.ndim != 3:
        raise FormatError(f"volume data must be 3-dimensional, got shape {arr.shape}")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GrayVolume:
    """16-bit intensity volume (the reconstructed, window-normalized twin)."""

    data: np.ndarray  # uint16, shape (nz, ny, nx)
    voxel_size_um: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "data", _as_locked(self.data, np.uint16))
        if not self.voxel_size_um > 0:
            raise FormatError(f"voxel_size_um must be positive, got {self.voxel_size_um}")

    @property
    def dims(self) -> tuple[int, int, int]:
        nz, ny, nx = self.data.shape
        return (nx, ny, nz)

    def value_at(self, x: int, y: int, z: int):
        return self.data[z, y, x]


@dataclass(frozen=True)
class LabelVolume:
    """Volume of class ids (ground truth or prediction)."""

    data: np.ndarray  # uint8, shape (nz, ny, nx)
    voxel_size_um: float = 1.0
    class_names: tuple = CLASS_NAMES

    def __post_init__(self):
        object.__setattr__(self, "data", _as_locked(self.data, np.uint8))
        if not self.voxel_size_um > 0:
            raise FormatError(f"voxel_size_um must be positive, got {self.voxel_size_um}")
        if self.data.size and int(self.data.max()) >= len(self.class_names):
            raise FormatError(
                f"label value {int(self.data.max())} outside the "
                f"{len(self.class_names)}-entry class table"
            )

    @property
    def dims(self) -> tuple[int, int, int]:
        nz, ny, nx = self.data.shape
        return (nx, ny, nz)

    def value_at(self, x: int, y: int, z: int):
        return self.data[z, y, x]


@dataclass(frozen=True)
class AttenuationVolume:
    """Real-valued attenuation volume, the precursor of a GrayVolume.

    Produced by the phantom generator and by FBP reconstruction before
    window normalization.
    """

    data: np.ndarray  # float32, shape (nz, ny, nx)
    voxel_size_um: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "data", _as_locked(self.data, np.float32))
        if not self.voxel_size_um > 0:
            raise FormatError(f"voxel_size_um must be positive, got {self.voxel_size_um}")

    @property
    def dims(self) -> tuple[int, int, int]:
        nz, ny, nx = self.data.shape
        return (nx, ny, nz)

    def value_at(self, x: int, y: int, z: int):
        return self.data[z, y, x]


Volume = GrayVolume | LabelVolume | AttenuationVolume


@dataclass(frozen=True)
class AcquisitionConfig:
    """Scan geometry and the fixed absorption window used for normalization.

    ``n_projections`` angles spaced ``angular_step_deg`` apart define the
    scan arc (parallel-beam, starting at 0 degrees).  ``absorption_window``
    is the (lo, hi) attenuation range that maps onto the full 16-bit range;
    the same window must be used for every sample of a cohort.
    """

    n_projections: int
    angular_step_deg: float
    detector_bins: int
    absorption_window: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        from .errors import ConfigError

        if self.n_projections < 1:
            raise ConfigError(f"n_projections must be >= 1, got {self.n_projections}")
        if not self.angular_step_deg > 0:
            raise ConfigError(f"angular_step_deg must be positive, got {self.angular_step_deg}")
        arc = self.n_projections * self.angular_step_deg
        if arc > 360.0 + 1e-9:
            raise ConfigError(f"scan arc {arc:.3f} deg exceeds a full turn")
        if self.detector_bins < 1:
            raise ConfigError(f"detector_bins must be >= 1, got {self.detector_bins}")
        lo, hi = self.absorption_window
        if not lo < hi:
            raise ConfigError(f"absorption window must satisfy lo < hi, got ({lo}, {hi})")

    @property
    def arc_deg(self) -> float:
        return self.n_projections * self.angular_step_deg

    def angles_deg(self) -> np.ndarray:
        return np.arange(self.n_projections, dtype=np.float64) * self.angular_step_deg


# --- slicing ---------------------------------------------------------------

# Axis order that turns a (nz, ny, nx) array into a view's slice stack.
_VIEW_ORDER = {ViewAxis.XY: (0, 2, 1), ViewAxis.XZ: (1, 2, 0), ViewAxis.YZ: (2, 1, 0)}


def view_stack(data: np.ndarray, axis: ViewAxis) -> np.ndarray:
    """All slices of a (nz, ny, nx) array through plane ``axis``, slice index first.

    The result is a transposed view, not a copy: ``view_stack(vol.data,
    axis)[i]`` equals ``extract_slice(vol, axis, i)``, and writing into the
    view of a writable array writes the voxels of that slice.
    """
    return data.transpose(_VIEW_ORDER[axis])


def slice_count(vol: Volume, axis: ViewAxis) -> int:
    return view_stack(vol.data, axis).shape[0]


def extract_slice(vol: Volume, axis: ViewAxis, index: int) -> np.ndarray:
    """2D cross-section of ``vol`` through plane ``axis`` at ``index``.

    Slice element [a, b] equals the voxel whose coordinate along the plane's
    first letter is a and along its second letter is b; e.g. an XZ slice at
    y=i satisfies slice[x, z] == volume[x, i, z].
    """
    n = slice_count(vol, axis)
    if not 0 <= index < n:
        raise IndexError(f"slice index {index} out of range for {axis.value} view with {n} slices")
    return np.ascontiguousarray(view_stack(vol.data, axis)[index])


def restack(slices, axis: ViewAxis) -> np.ndarray:
    """Inverse of :func:`extract_slice`: rebuild the (nz, ny, nx) data array."""
    stack = np.stack([np.asarray(s) for s in slices])
    return np.ascontiguousarray(stack.transpose(np.argsort(_VIEW_ORDER[axis])))


# --- volume I/O ------------------------------------------------------------

_DTYPE_TAGS = {
    "uint16": (np.dtype("<u2"), GrayVolume),
    "uint8": (np.dtype("u1"), LabelVolume),
    "float32": (np.dtype("<f4"), AttenuationVolume),
}


def _dtype_tag(vol: Volume) -> str:
    if isinstance(vol, GrayVolume):
        return "uint16"
    if isinstance(vol, LabelVolume):
        return "uint8"
    return "float32"


def write_with_sidecar(path, payload: np.ndarray, sidecar: dict) -> None:
    """Write ``payload`` bytes to ``path`` and ``sidecar`` as JSON to ``path + '.json'``.

    Both go to temporary files in the target directory and are renamed over
    the targets only once both are written, the sidecar last; a failed write
    removes the temporary files and leaves any earlier pair untouched.
    """
    path = Path(path)
    sidecar_path = Path(str(path) + ".json")
    tmp_payload = path.with_name(path.name + ".tmp")
    tmp_sidecar = sidecar_path.with_name(sidecar_path.name + ".tmp")
    try:
        tmp_payload.write_bytes(payload.tobytes())
        tmp_sidecar.write_text(json.dumps(sidecar, sort_keys=True, indent=1) + "\n")
        os.replace(tmp_payload, path)
        os.replace(tmp_sidecar, sidecar_path)
    finally:
        tmp_payload.unlink(missing_ok=True)
        tmp_sidecar.unlink(missing_ok=True)


def save_volume(vol: Volume, path) -> None:
    """Write ``path`` (raw little-endian payload) and ``path + '.json'``."""
    tag = _dtype_tag(vol)
    sidecar = {
        "dims": list(vol.dims),
        "voxel_size_um": vol.voxel_size_um,
        "dtype": tag,
    }
    if isinstance(vol, LabelVolume):
        sidecar["classes"] = list(vol.class_names)
    write_with_sidecar(path, np.ascontiguousarray(vol.data, dtype=_DTYPE_TAGS[tag][0]), sidecar)


def load_volume(path) -> Volume:
    """Read a volume written by :func:`save_volume`; validates payload size and labels."""
    path = Path(path)
    sidecar_path = Path(str(path) + ".json")
    if not path.exists():
        raise FileNotFoundError(str(path))
    if not sidecar_path.exists():
        raise FileNotFoundError(str(sidecar_path))
    try:
        meta = json.loads(sidecar_path.read_text())
    except json.JSONDecodeError as e:
        raise FormatError(f"unreadable sidecar {sidecar_path}: {e}") from e
    for key in ("dims", "voxel_size_um", "dtype"):
        if key not in meta:
            raise FormatError(f"sidecar {sidecar_path} missing key '{key}'")
    if meta["dtype"] not in _DTYPE_TAGS:
        raise FormatError(f"unknown dtype '{meta['dtype']}' in {sidecar_path}")
    dtype, cls = _DTYPE_TAGS[meta["dtype"]]
    nx, ny, nz = (int(v) for v in meta["dims"])
    raw = path.read_bytes()
    expected = nx * ny * nz * dtype.itemsize
    if len(raw) != expected:
        raise FormatError(
            f"{path}: payload is {len(raw)} bytes, sidecar dims {nx}x{ny}x{nz} "
            f"require {expected}"
        )
    data = np.frombuffer(raw, dtype=dtype).reshape(nz, ny, nx)
    if cls is LabelVolume:
        classes = tuple(meta.get("classes", CLASS_NAMES))
        if data.size and int(data.max()) >= len(classes):
            raise FormatError(
                f"{path}: label value {int(data.max())} outside the "
                f"{len(classes)}-entry class table"
            )
        return LabelVolume(data, voxel_size_um=float(meta["voxel_size_um"]), class_names=classes)
    return cls(data, voxel_size_um=float(meta["voxel_size_um"]))
