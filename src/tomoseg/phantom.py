"""Synthetic fish-heart phantom generation.

A phantom is a pair (attenuation volume, ground-truth label volume) built
from axis-aligned primitives: an ellipsoidal ventricle whose outer rim is
a compacta shell and whose interior (spongiosa) holds spherical lacunae,
an ellipsoidal atrium, and a cylindrical bulbus.  Geometry is expressed
as fractions of the volume extents so one spec scales to any resolution;
lacuna radii are in voxels because they model fixed-size cavities.

Paint order matters: atrium and bulbus first, then the ventricle complex
over them.  Where they overlap the ventricle ellipsoid the ventricle wins,
which keeps the shell intact and the chambers adjacent.  Two ostia are
then carved through the shell (toward the atrium and toward the bulbus)
so the spongiosa communicates with the neighboring chambers; without
them the interior would be sealed and any hole-filling post-process
would flood it with the wall label.

Every primitive is painted inside its own bounding box (``_box``): an
ellipsoid is tested one z-plane of its box at a time, a cylinder, an
ostium channel and a lacuna over their boxes, and the noise is drawn and
added one z-plane at a time (the generator fills in order, so the draws
equal one volume-sized draw).  So ``generate`` holds no mask or float64
array of the whole volume beside its outputs.
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import AttenuationVolume, ClassId, LabelVolume, checked_keys, from_json_fields, \
    integers, json_fields, rng_for_seed
from .errors import SpecError

_PLACEMENT_TRIES = 10000


def _box(lo, hi, shape):
    """The voxels from ``floor(lo)`` to ``ceil(hi)`` on each axis, clamped to
    the volume: ``lo`` and ``hi`` are (x, y, z) voxel-center coordinates and
    ``shape`` is (nz, ny, nx).  Returns the box's slices and their open grids
    ``(zz, yy, xx)``."""
    box = tuple(slice(max(0, math.floor(l)), min(n - 1, math.ceil(h)) + 1)
                for l, h, n in zip(lo[::-1], hi[::-1], shape))
    return box, np.ogrid[box]


@dataclass(frozen=True)
class Ellipsoid:
    """Axis-aligned ellipsoid; center and semi-axes as fractions of dims."""

    center: tuple[float, float, float]
    semi_axes: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))
        object.__setattr__(self, "semi_axes", tuple(float(v) for v in self.semi_axes))
        if len(self.center) != 3 or len(self.semi_axes) != 3:
            raise SpecError("ellipsoid needs 3 center and 3 semi-axis components")
        if any(s <= 0 for s in self.semi_axes):
            raise SpecError(f"ellipsoid semi-axes must be positive, got {self.semi_axes}")
        for c, s in zip(self.center, self.semi_axes):
            if c - s < 0.0 or c + s > 1.0:
                raise SpecError(
                    f"ellipsoid center {self.center} semi-axes {self.semi_axes} "
                    "does not fit inside the volume"
                )

    def paint(self, labels: np.ndarray, value: int) -> None:
        """Set the voxels inside to ``value``, tested plane by plane as
        ``(x + y) + z <= 1``."""
        nz, ny, nx = labels.shape
        (cx, cy, cz), (sx, sy, sz) = self.center, self.semi_axes
        dims = np.array((nx, ny, nz), dtype=float)
        c = np.asarray(self.center) * dims - 0.5
        s = np.asarray(self.semi_axes) * dims
        box, (zz, yy, xx) = _box(c - s, c + s, labels.shape)
        plane = (((xx + 0.5) / nx - cx) / sx) ** 2 + (((yy + 0.5) / ny - cy) / sy) ** 2
        depth = (((zz + 0.5) / nz - cz) / sz) ** 2
        for sub, dz in zip(labels[box], depth.ravel()):
            sub[plane[0] + dz <= 1.0] = value

    def shrunk(self, voxels: float, dims) -> "Ellipsoid":
        """Same center, semi-axes reduced by ``voxels`` grid steps per axis."""
        semi = tuple(s - voxels / n for s, n in zip(self.semi_axes, dims))
        if any(s <= 0 for s in semi):
            raise SpecError(f"shrinking by {voxels} voxels empties the ellipsoid")
        return Ellipsoid(self.center, semi)


@dataclass(frozen=True)
class CylinderZ:
    """Z-aligned cylinder; center/radius as fractions (radius of min(nx, ny))."""

    center_xy: tuple[float, float]
    radius: float
    z_range: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "center_xy", tuple(float(v) for v in self.center_xy))
        object.__setattr__(self, "z_range", tuple(float(v) for v in self.z_range))
        object.__setattr__(self, "radius", float(self.radius))
        if len(self.center_xy) != 2 or len(self.z_range) != 2:
            raise SpecError("cylinder needs 2 center and 2 z-range components")
        if self.radius <= 0:
            raise SpecError(f"cylinder radius must be positive, got {self.radius}")
        lo, hi = self.z_range
        if not (0.0 <= lo < hi <= 1.0):
            raise SpecError(f"cylinder z-range must satisfy 0 <= lo < hi <= 1, got {self.z_range}")

    def _radius_fracs(self, dims):
        nx, ny, _ = dims
        m = min(nx, ny)
        return self.radius * m / nx, self.radius * m / ny

    def fits(self, dims) -> bool:
        rx, ry = self._radius_fracs(dims)
        cx, cy = self.center_xy
        return cx - rx >= 0 and cx + rx <= 1 and cy - ry >= 0 and cy + ry <= 1

    def paint(self, labels: np.ndarray, value: int) -> None:
        """Set the voxels inside to ``value``."""
        nz, ny, nx = labels.shape
        rx, ry = self._radius_fracs((nx, ny, nz))
        (cx, cy), (zlo, zhi) = self.center_xy, self.z_range
        box, (zz, yy, xx) = _box(((cx - rx) * nx - 0.5, (cy - ry) * ny - 0.5, zlo * nz - 0.5),
                                 ((cx + rx) * nx - 0.5, (cy + ry) * ny - 0.5, zhi * nz - 0.5),
                                 labels.shape)
        uz = (zz + 0.5) / nz
        disk = (((xx + 0.5) / nx - cx) / rx) ** 2 + (((yy + 0.5) / ny - cy) / ry) ** 2 <= 1.0
        labels[box][disk & (uz >= zlo) & (uz <= zhi)] = value


@dataclass(frozen=True)
class PhantomSpec:
    """Complete recipe for one phantom.

    ``attenuation`` holds the per-class means in ClassId order; all means
    must be pairwise distinct and lie inside ``window``, the absorption
    range that later maps onto the 16-bit grayscale.  Gaussian noise of
    ``noise_sigma`` is added voxelwise and clamped to the window.

    ``ostium_radius_voxels``, ``lacunae_count`` and ``lacuna_radius_voxels``,
    when omitted, scale with the shortest extent n (``_scaled_sizes``): at
    n = 128 they are 6, (20, 28) and (3, 5.5) voxels.
    """

    dims: tuple[int, int, int] = (128, 128, 128)
    voxel_size_um: float = 5.0
    seed: int = 0
    atrium: Ellipsoid = Ellipsoid((0.75, 0.66, 0.52), (0.13, 0.14, 0.15))
    ventricle: Ellipsoid = Ellipsoid((0.42, 0.50, 0.50), (0.26, 0.28, 0.30))
    bulbus: CylinderZ = CylinderZ((0.70, 0.30), 0.10, (0.48, 0.88))
    compacta_shell_voxels: float = 3.0
    ostium_radius_voxels: float = None
    lacunae_count: tuple[int, int] = None
    lacuna_radius_voxels: tuple[float, float] = None
    # one mean per class in ClassId order; bulbus is the brightest and
    # compacta sits between spongiosa and bulbus so every stage-1 class
    # keeps its own intensity niche after reconstruction blur; all means
    # stay >= 3 sigma from the window edges so clamping never biases
    # class statistics
    attenuation: tuple[float, ...] = (0.10, 0.32, 0.52, 0.90, 0.72, 0.16)
    noise_sigma: float = 0.03
    window: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "dims", integers(self.dims, "dims", SpecError))
        if len(self.dims) != 3 or any(n < 8 for n in self.dims):
            raise SpecError(f"dims must be 3 extents of at least 8 voxels, got {self.dims}")
        for name, value in _scaled_sizes(min(self.dims)).items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        object.__setattr__(self, "seed", integers((self.seed,), "seed", SpecError)[0])
        object.__setattr__(self, "lacunae_count",
                           integers(self.lacunae_count, "lacunae_count", SpecError))
        for name in ("voxel_size_um", "compacta_shell_voxels", "ostium_radius_voxels",
                     "noise_sigma"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "lacuna_radius_voxels",
                           tuple(float(v) for v in self.lacuna_radius_voxels))
        object.__setattr__(self, "attenuation", tuple(float(v) for v in self.attenuation))
        object.__setattr__(self, "window", tuple(float(v) for v in self.window))
        if not self.voxel_size_um > 0:
            raise SpecError(f"voxel_size_um must be positive, got {self.voxel_size_um}")
        if self.compacta_shell_voxels < 1:
            raise SpecError("compacta shell must be at least 1 voxel thick")
        if self.ostium_radius_voxels < 0:
            raise SpecError(f"ostium radius must be non-negative, "
                            f"got {self.ostium_radius_voxels}")
        # shell strictly inside the ventricle: interior keeps >= 2 voxels per axis
        for s, n in zip(self.ventricle.semi_axes, self.dims):
            if s * n - self.compacta_shell_voxels < 2:
                raise SpecError("compacta shell leaves no ventricle interior")
        if not self.bulbus.fits(self.dims):
            raise SpecError("bulbus cylinder does not fit inside the volume")
        lo_n, hi_n = self.lacunae_count
        if lo_n < 0 or lo_n > hi_n:
            raise SpecError(f"lacunae_count range invalid: {self.lacunae_count}")
        lo_r, hi_r = self.lacuna_radius_voxels
        if not (0 < lo_r <= hi_r):
            raise SpecError(f"lacuna_radius_voxels range invalid: {self.lacuna_radius_voxels}")
        if hi_n > 0:
            inner = self.ventricle.shrunk(self.compacta_shell_voxels, self.dims)
            for s, n in zip(inner.semi_axes, self.dims):
                if s * n - (hi_r + 1.0) <= 0:
                    raise SpecError(
                        f"lacuna radius {hi_r} cannot fit inside the ventricle interior"
                    )
        if len(self.attenuation) != 6:
            raise SpecError("attenuation needs one mean per class (6 values)")
        if len(set(self.attenuation)) != 6:
            raise SpecError("class attenuation means must be pairwise distinct")
        wlo, whi = self.window
        if not wlo < whi:
            raise SpecError(f"window must satisfy lo < hi, got {self.window}")
        if any(not wlo <= a <= whi for a in self.attenuation):
            raise SpecError("all attenuation means must lie inside the window")
        if self.noise_sigma < 0:
            raise SpecError(f"noise_sigma must be non-negative, got {self.noise_sigma}")


def _scaled_sizes(n: int) -> dict:
    """The ostium radius and the lacuna counts and radii of a phantom whose
    shortest extent is n.  They scale down with n so the cavities stay
    placeable (non-overlapping) inside the shrinking ventricle interior at
    desk resolutions; floors keep them resolvable and present."""
    scale = n / 128.0
    return {"ostium_radius_voxels": max(2.5, 6.0 * scale),
            "lacunae_count": (max(4, round(20 * scale ** 1.5)), max(6, round(28 * scale ** 1.5))),
            "lacuna_radius_voxels": (max(1.5, 3.0 * scale), max(2.75, 5.5 * scale))}


def default_spec(n: int = 128, seed: int = 0) -> PhantomSpec:
    """Default cubic phantom at resolution n."""
    return PhantomSpec(dims=(n, n, n), seed=seed)


def spec_to_dict(spec: PhantomSpec) -> dict:
    """The spec's fields as JSON values, the shapes as objects of their fields."""
    return json_fields(spec)


_SHAPES = {"atrium": Ellipsoid, "ventricle": Ellipsoid, "bulbus": CylinderZ}


def spec_from_dict(d: dict) -> PhantomSpec:
    """Build a PhantomSpec from parsed JSON: keys are its fields (a shape's
    keys are that shape's fields), unknown ones are rejected and omitted
    ones take the field defaults."""
    kw = checked_keys(d, {f.name for f in fields(PhantomSpec)}, "phantom spec", SpecError)
    try:
        for key, shape in _SHAPES.items():
            if key in kw:
                kw[key] = from_json_fields(shape, kw[key], key, SpecError)
        return PhantomSpec(**kw)
    except (TypeError, ValueError) as err:
        raise SpecError(f"malformed phantom spec: {type(err).__name__}: {err}") from err


def _carve_ostium(labels: np.ndarray, spec: PhantomSpec, target_frac) -> None:
    """Open a channel through the shell toward ``target_frac``.

    Compacta voxels within ``ostium_radius_voxels`` of the segment from the
    ventricle center to the target become Ventricle, connecting the
    spongiosa to the neighboring chamber the way the real wall opens at
    its ostia.  Until the lacunae are placed, the Compacta voxels are the
    shell.
    """
    r = spec.ostium_radius_voxels
    if r <= 0:
        return
    dims_arr = np.asarray(spec.dims, dtype=float)
    a = np.asarray(spec.ventricle.center) * dims_arr - 0.5
    b = np.asarray(target_frac, dtype=float) * dims_arr - 0.5
    d = b - a
    dd = float(d @ d)
    if dd == 0.0:
        return
    # a voxel outside the segment's bounding box grown by r lies at least
    # r + 1 from the segment, so only the box needs testing
    box, (zz, yy, xx) = _box(np.minimum(a, b) - r, np.maximum(a, b) + r, labels.shape)
    # projection parameter of each voxel center onto the segment, clamped
    t = ((xx - a[0]) * d[0] + (yy - a[1]) * d[1] + (zz - a[2]) * d[2]) / dd
    t = np.clip(t, 0.0, 1.0)
    dist2 = ((xx - a[0] - t * d[0]) ** 2 + (yy - a[1] - t * d[1]) ** 2
             + (zz - a[2] - t * d[2]) ** 2)
    sub = labels[box]
    sub[(sub == ClassId.COMPACTA) & (dist2 <= r * r)] = int(ClassId.VENTRICLE)


def _paint_sphere(labels: np.ndarray, p, r: float, value: int) -> None:
    box, (zz, yy, xx) = _box(p - r, p + r, labels.shape)
    px, py, pz = p
    labels[box][(xx - px) ** 2 + (yy - py) ** 2 + (zz - pz) ** 2 <= r * r] = value


def _place_lacunae(labels: np.ndarray, spec: PhantomSpec, rng: np.random.Generator) -> None:
    lo_n, hi_n = spec.lacunae_count
    count = int(rng.integers(lo_n, hi_n + 1))
    if count == 0:
        return
    dims_arr = np.asarray(spec.dims, dtype=float)
    inner = spec.ventricle.shrunk(spec.compacta_shell_voxels, spec.dims)
    c = np.asarray(inner.center)
    s = np.asarray(inner.semi_axes)
    placed: list[tuple[np.ndarray, float]] = []
    for k in range(count):
        r = float(rng.uniform(*spec.lacuna_radius_voxels))
        # the whole sphere plus a 1-voxel margin must stay inside the interior
        a = s - (r + 1.0) / dims_arr
        if np.any(a <= 0):
            raise SpecError(f"lacuna radius {r:.2f} cannot fit inside the ventricle interior")
        for _ in range(_PLACEMENT_TRIES):
            u = c + rng.uniform(-1.0, 1.0, size=3) * a
            if float(np.sum(((u - c) / a) ** 2)) > 1.0:
                continue
            p = u * dims_arr - 0.5  # voxel-center coordinates
            if all(float(np.linalg.norm(p - q)) > r + rq + 1.0 for q, rq in placed):
                break
        else:
            raise SpecError(f"could not place lacuna {k + 1}/{count} after "
                            f"{_PLACEMENT_TRIES} tries; geometry too crowded")
        placed.append((p, r))
        _paint_sphere(labels, p, r, int(ClassId.LACUNARY))


def generate(spec: PhantomSpec) -> tuple[AttenuationVolume, LabelVolume]:
    """Render the spec into an attenuation volume and its label volume.

    Deterministic for a fixed spec (Philox-seeded).  Attenuation is the
    per-class mean plus Gaussian noise, clamped to the spec window.
    """
    nx, ny, nz = spec.dims
    labels = np.zeros((nz, ny, nx), dtype=np.uint8)
    spec.atrium.paint(labels, int(ClassId.ATRIUM))
    spec.bulbus.paint(labels, int(ClassId.BULBUS))
    # the shell is what the inner ellipsoid leaves of the outer one
    spec.ventricle.paint(labels, int(ClassId.COMPACTA))
    spec.ventricle.shrunk(spec.compacta_shell_voxels, spec.dims).paint(
        labels, int(ClassId.VENTRICLE))
    bx, by = spec.bulbus.center_xy
    zlo, zhi = spec.bulbus.z_range
    _carve_ostium(labels, spec, spec.atrium.center)
    _carve_ostium(labels, spec, (bx, by, min(max(spec.ventricle.center[2], zlo), zhi)))
    rng = rng_for_seed(spec.seed)
    _place_lacunae(labels, spec, rng)
    atten = np.asarray(spec.attenuation, dtype=np.float32)[labels]
    if spec.noise_sigma > 0:
        # one z-plane per draw: the generator fills in order, so these are the
        # values of one volume-sized draw
        for plane in atten:
            plane += rng.normal(0.0, spec.noise_sigma, size=plane.shape).astype(np.float32)
    np.clip(atten, spec.window[0], spec.window[1], out=atten)
    return (AttenuationVolume(atten, spec.voxel_size_um),
            LabelVolume(labels, spec.voxel_size_um))


def _jittered(spec: PhantomSpec, index: int) -> PhantomSpec:
    """Spec for cohort sample ``index``: geometry scaled by seeded factors within 10%."""
    rng = rng_for_seed(spec.seed, index)

    def j(value):
        return value * (1.0 + float(rng.uniform(-0.1, 0.1)))

    atrium = Ellipsoid(tuple(j(v) for v in spec.atrium.center),
                       tuple(j(v) for v in spec.atrium.semi_axes))
    ventricle = Ellipsoid(tuple(j(v) for v in spec.ventricle.center),
                          tuple(j(v) for v in spec.ventricle.semi_axes))
    zlo, zhi = (j(v) for v in spec.bulbus.z_range)
    bulbus = CylinderZ(tuple(j(v) for v in spec.bulbus.center_xy), j(spec.bulbus.radius),
                       (min(zlo, zhi), max(zlo, zhi)))
    return replace(spec, seed=spec.seed + index, atrium=atrium, ventricle=ventricle,
                   bulbus=bulbus)


def split_cohort(spec: PhantomSpec, n: int) -> list[tuple[AttenuationVolume, LabelVolume]]:
    """n phantoms: sample 0 is generate(spec), samples 1.. get jittered geometry."""
    if n < 1:
        raise SpecError(f"cohort size must be >= 1, got {n}")
    return [generate(spec if i == 0 else _jittered(spec, i)) for i in range(n)]
