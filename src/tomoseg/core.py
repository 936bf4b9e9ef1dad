"""Shared domain types, coordinate conventions, and volume I/O.

Conventions used throughout the package:

* A volume stores its voxels in a C-ordered numpy array of shape
  ``(nz, ny, nx)``: z is the slowest (slice) index, x the fastest.
  ``dims`` always reports ``(nx, ny, nz)``.
* Voxels are isotropic; ``voxel_size_um`` is the edge length in micrometers.
* The gray, label and attenuation volumes share one frozen base class that
  locks the array read-only in the type's dtype and checks shape and voxel
  size; each type adds its dtype and sidecar tag, labels their class table.
* On disk a volume is a raw little-endian payload (``.vol``) plus a JSON
  sidecar (``.vol.json``) holding dims, voxel size, dtype tag and, for label
  volumes, the class table.  Volume and sinogram pairs are written by
  ``write_with_sidecar`` and read by ``read_with_sidecar``, the one sidecar
  reader; a malformed sidecar raises FormatError naming the file.
* All randomness in the package uses numpy's Philox (4x64) counter-based
  bit generator so results are reproducible across platforms.
"""

import enum
import json
import os
import pickle
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError

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


def worker_count(jobs=None) -> int:
    """Workers (threads or forked processes) for ``jobs``: None means every CPU
    this process may use.

    A count below 1 raises ``ConfigError``.
    """
    if jobs is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    return int(jobs)


def fork_map(fn, items, jobs=None) -> list:
    """``[fn(item) for item in items]``, the items after the first run in one forked child.

    With ``worker_count(jobs)`` of 2 or more, this process runs the first
    item while one child runs the rest.  The child reads this process's
    data copy-on-write and sends back only its results, pickled through a
    pipe.  One worker, a platform other than Linux (where forking a
    process whose BLAS has started its threads was not checked, and a hung
    child would block the read forever) or a live second thread (fork
    copies only the calling thread, so a lock another thread holds would
    stay held in the child) run the loop in-process.  The first failing
    item's exception is raised, with its type and message, as the loop
    raises it.  The child is reaped before this returns or raises, and
    killed first when this process's own item raises or is interrupted.
    A child that ends without sending a whole result, or with a nonzero
    wait status, raises ``ChildProcessError`` naming its pid and status.
    """
    items = list(items)
    if (len(items) < 2 or worker_count(jobs) < 2 or sys.platform != "linux"
            or threading.active_count() > 1):
        return [fn(item) for item in items]
    r, w = os.pipe()
    try:
        pid = os.fork()
        if not pid:
            _run_child(w, fn, items[1:])
    except OSError:
        os.close(r)
        raise
    finally:
        os.close(w)
    with open(r, "rb") as pipe:
        try:
            first = fn(items[0])
            payload = pipe.read()
        except BaseException:
            import signal  # only here: no CLI step pays for it

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
    status = os.waitpid(pid, 0)[1]
    try:
        rest, error = pickle.loads(payload)
    except Exception:  # nothing sent, or cut short
        rest = None
    if status or rest is None:
        raise ChildProcessError(f"forked worker {pid} ended with wait status {status} after "
                                f"sending {len(payload)} bytes"
                                + (" that do not unpickle" if rest is None else ""))
    if error is not None:
        raise error
    return [first] + rest


def _run_child(w: int, fn, items) -> None:
    """In a forked child: run ``items`` up to the first that raises, write
    (results, exception or None) to the pipe ``w`` and exit."""
    try:
        done, error = [], None
        try:
            for item in items:
                done.append(fn(item))
        except BaseException as e:
            error = e
        try:
            payload = pickle.dumps((done, error))
        except Exception as e:  # a result or an exception that pickle cannot carry
            payload = pickle.dumps(([], ChildProcessError(repr(error or e))))
        with open(w, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)


@dataclass(frozen=True)
class _Volume:
    """A read-only, C-ordered (nz, ny, nx) voxel array and its voxel size.

    Each volume type fixes ``dtype``, its payload's little-endian dtype,
    and ``tag``, the ``dtype`` string its sidecar carries.
    """

    dtype = None
    tag = None

    data: np.ndarray
    voxel_size_um: float = 1.0

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=self.dtype)
        if data.ndim != 3 or not data.size:
            raise FormatError("volume data must be 3-dimensional with no zero extent, "
                              f"got shape {np.shape(self.data)}")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        if not self.voxel_size_um > 0:
            raise FormatError(f"voxel_size_um must be positive, got {self.voxel_size_um}")

    @property
    def dims(self) -> tuple[int, int, int]:
        nz, ny, nx = self.data.shape
        return (nx, ny, nz)

    def value_at(self, x: int, y: int, z: int):
        return self.data[z, y, x]


Volume = _Volume


@dataclass(frozen=True)
class GrayVolume(_Volume):
    """16-bit intensity volume (the reconstructed, window-normalized twin)."""

    dtype = np.dtype("<u2")
    tag = "uint16"


@dataclass(frozen=True)
class LabelVolume(_Volume):
    """Volume of class ids (ground truth or prediction)."""

    dtype = np.dtype("u1")
    tag = "uint8"

    class_names: tuple = CLASS_NAMES

    def __post_init__(self):
        super().__post_init__()
        if len(set(self.class_names)) != len(self.class_names):
            raise FormatError(f"class table repeats a name: {tuple(self.class_names)}")
        if int(self.data.max()) >= len(self.class_names):
            raise FormatError(
                f"label value {int(self.data.max())} outside the "
                f"{len(self.class_names)}-entry class table"
            )


@dataclass(frozen=True)
class AttenuationVolume(_Volume):
    """Real-valued attenuation volume, the precursor of a GrayVolume.

    Produced by the phantom generator and by FBP reconstruction before
    window normalization.
    """

    dtype = np.dtype("<f4")
    tag = "float32"


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

_VOLUME_TYPES = {cls.tag: cls for cls in (GrayVolume, LabelVolume, AttenuationVolume)}


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


def read_with_sidecar(path, keys) -> tuple[dict, bytes]:
    """Read a pair written by :func:`write_with_sidecar`: (sidecar object, payload bytes).

    A missing file raises FileNotFoundError; a sidecar that is not a JSON
    object or lacks one of ``keys`` raises FormatError.  The values are the
    caller's to check.
    """
    path = Path(path)
    sidecar_path = Path(str(path) + ".json")
    for p in (path, sidecar_path):
        if not p.exists():
            raise FileNotFoundError(str(p))
    try:
        meta = json.loads(sidecar_path.read_text())
    except ValueError as e:
        raise FormatError(f"unreadable sidecar {sidecar_path}: {e}") from e
    if not isinstance(meta, dict):
        raise FormatError(f"sidecar {sidecar_path} is a JSON {type(meta).__name__}, "
                          "not an object")
    for key in keys:
        if key not in meta:
            raise FormatError(f"sidecar {sidecar_path} missing key '{key}'")
    return meta, path.read_bytes()


def save_volume(vol: Volume, path) -> None:
    """Write ``path`` (raw little-endian payload) and ``path + '.json'``."""
    sidecar = {
        "dims": list(vol.dims),
        "voxel_size_um": vol.voxel_size_um,
        "dtype": vol.tag,
    }
    if isinstance(vol, LabelVolume):
        sidecar["classes"] = list(vol.class_names)
    write_with_sidecar(path, vol.data, sidecar)


def load_volume(path) -> Volume:
    """Read a volume written by :func:`save_volume`; every error names ``path``."""
    meta, raw = read_with_sidecar(path, ("dims", "voxel_size_um", "dtype"))
    tag = meta["dtype"]
    if not isinstance(tag, str) or tag not in _VOLUME_TYPES:
        raise FormatError(f"unknown dtype '{tag}' in {path}.json")
    cls = _VOLUME_TYPES[tag]
    try:
        nx, ny, nz = (int(v) for v in meta["dims"])
        expected = nx * ny * nz * cls.dtype.itemsize
        if len(raw) != expected:
            raise FormatError(f"payload is {len(raw)} bytes, sidecar dims {nx}x{ny}x{nz} "
                              f"require {expected}")
        data = np.frombuffer(raw, dtype=cls.dtype).reshape(nz, ny, nx)
        if cls is not LabelVolume:
            return cls(data, float(meta["voxel_size_um"]))
        classes = tuple(meta.get("classes", CLASS_NAMES))
        if not all(isinstance(name, str) for name in classes):
            raise FormatError("class names must be strings")
        return LabelVolume(data, float(meta["voxel_size_um"]), classes)
    except (FormatError, TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"{path}: {e}") from e
