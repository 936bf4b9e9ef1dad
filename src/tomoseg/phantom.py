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

Generation holds no float64 array of the whole volume: an ellipsoid is
tested one z-plane at a time, an ostium only inside the bounding box of
its channel, and the noise is drawn and added one z-plane at a time (the
generator fills in order, so the draws equal one volume-sized draw).
Apart from its outputs, ``generate`` holds a few boolean masks.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import AttenuationVolume, ClassId, LabelVolume, rng_for_seed
from .errors import SpecError

_PLACEMENT_TRIES = 10000


def _frac_grids(dims):
    """Open grids of voxel-center positions as fractions of each extent."""
    nx, ny, nz = dims
    zz, yy, xx = np.ogrid[0:nz, 0:ny, 0:nx]
    return (xx + 0.5) / nx, (yy + 0.5) / ny, (zz + 0.5) / nz


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

    def mask(self, dims) -> np.ndarray:
        """Voxels inside, tested plane by plane as ``(x + y) + z <= 1``."""
        ux, uy, uz = _frac_grids(dims)
        cx, cy, cz = self.center
        sx, sy, sz = self.semi_axes
        plane = (((ux - cx) / sx) ** 2 + ((uy - cy) / sy) ** 2)[0]  # (ny, nx)
        depth = (((uz - cz) / sz) ** 2).ravel()  # (nz,)
        out = np.empty((len(depth),) + plane.shape, dtype=bool)
        for k, dz in enumerate(depth):
            np.less_equal(plane + dz, 1.0, out=out[k])
        return out

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

    def mask(self, dims) -> np.ndarray:
        ux, uy, uz = _frac_grids(dims)
        rx, ry = self._radius_fracs(dims)
        cx, cy = self.center_xy
        lo, hi = self.z_range
        disk = ((ux - cx) / rx) ** 2 + ((uy - cy) / ry) ** 2 <= 1.0
        return disk & (uz >= lo) & (uz <= hi)


@dataclass(frozen=True)
class PhantomSpec:
    """Complete recipe for one phantom.

    ``attenuation`` holds the per-class means in ClassId order; all means
    must be pairwise distinct and lie inside ``window``, the absorption
    range that later maps onto the 16-bit grayscale.  Gaussian noise of
    ``noise_sigma`` is added voxelwise and clamped to the window.
    """

    dims: tuple[int, int, int] = (128, 128, 128)
    voxel_size_um: float = 5.0
    seed: int = 0
    atrium: Ellipsoid = Ellipsoid((0.75, 0.66, 0.52), (0.13, 0.14, 0.15))
    ventricle: Ellipsoid = Ellipsoid((0.42, 0.50, 0.50), (0.26, 0.28, 0.30))
    bulbus: CylinderZ = CylinderZ((0.70, 0.30), 0.10, (0.48, 0.88))
    compacta_shell_voxels: float = 3.0
    ostium_radius_voxels: float = 6.0
    lacunae_count: tuple[int, int] = (20, 28)
    lacuna_radius_voxels: tuple[float, float] = (3.0, 5.5)
    # one mean per class in ClassId order; bulbus is the brightest and
    # compacta sits between spongiosa and bulbus so every stage-1 class
    # keeps its own intensity niche after reconstruction blur; all means
    # stay >= 3 sigma from the window edges so clamping never biases
    # class statistics
    attenuation: tuple[float, ...] = (0.10, 0.32, 0.52, 0.90, 0.72, 0.16)
    noise_sigma: float = 0.03
    window: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(v) for v in self.dims))
        object.__setattr__(self, "lacunae_count", tuple(int(v) for v in self.lacunae_count))
        object.__setattr__(self, "lacuna_radius_voxels",
                           tuple(float(v) for v in self.lacuna_radius_voxels))
        object.__setattr__(self, "attenuation", tuple(float(v) for v in self.attenuation))
        object.__setattr__(self, "window", tuple(float(v) for v in self.window))
        if len(self.dims) != 3 or any(n < 8 for n in self.dims):
            raise SpecError(f"dims must be 3 extents of at least 8 voxels, got {self.dims}")
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


def default_spec(n: int = 128, seed: int = 0) -> PhantomSpec:
    """Default cubic phantom at resolution n.

    Lacuna radii and counts scale down with n so the cavities stay
    placeable (non-overlapping) inside the shrinking ventricle interior
    at desk resolutions; floors keep them resolvable and present.
    """
    scale = n / 128.0
    return PhantomSpec(
        dims=(n, n, n),
        seed=seed,
        ostium_radius_voxels=max(2.5, 6.0 * scale),
        lacunae_count=(max(4, round(20 * scale ** 1.5)), max(6, round(28 * scale ** 1.5))),
        lacuna_radius_voxels=(max(1.5, 3.0 * scale), max(2.75, 5.5 * scale)),
    )


def spec_to_dict(spec: PhantomSpec) -> dict:
    return {
        "dims": list(spec.dims),
        "voxel_size_um": spec.voxel_size_um,
        "seed": spec.seed,
        "atrium": {"center": list(spec.atrium.center), "semi_axes": list(spec.atrium.semi_axes)},
        "ventricle": {"center": list(spec.ventricle.center),
                      "semi_axes": list(spec.ventricle.semi_axes)},
        "bulbus": {"center_xy": list(spec.bulbus.center_xy), "radius": spec.bulbus.radius,
                   "z_range": list(spec.bulbus.z_range)},
        "compacta_shell_voxels": spec.compacta_shell_voxels,
        "ostium_radius_voxels": spec.ostium_radius_voxels,
        "lacunae_count": list(spec.lacunae_count),
        "lacuna_radius_voxels": list(spec.lacuna_radius_voxels),
        "attenuation": list(spec.attenuation),
        "noise_sigma": spec.noise_sigma,
        "window": list(spec.window),
    }


def _take(d: dict, keys, what: str) -> dict:
    unknown = set(d) - set(keys)
    if unknown:
        raise SpecError(f"unknown {what} keys: {sorted(unknown)}")
    return d


def spec_from_dict(d: dict) -> PhantomSpec:
    """Build a PhantomSpec from parsed JSON; unknown keys are rejected."""
    if not isinstance(d, dict):
        raise SpecError("phantom spec must be a JSON object")
    defaults = spec_to_dict(PhantomSpec())
    _take(d, defaults.keys(), "phantom spec")
    merged = {**defaults, **d}
    try:
        atrium = _take(dict(merged["atrium"]), ("center", "semi_axes"), "ellipsoid")
        ventricle = _take(dict(merged["ventricle"]), ("center", "semi_axes"), "ellipsoid")
        bulbus = _take(dict(merged["bulbus"]), ("center_xy", "radius", "z_range"), "cylinder")
        return PhantomSpec(
            dims=tuple(merged["dims"]),
            voxel_size_um=float(merged["voxel_size_um"]),
            seed=int(merged["seed"]),
            atrium=Ellipsoid(tuple(atrium["center"]), tuple(atrium["semi_axes"])),
            ventricle=Ellipsoid(tuple(ventricle["center"]), tuple(ventricle["semi_axes"])),
            bulbus=CylinderZ(tuple(bulbus["center_xy"]), float(bulbus["radius"]),
                             tuple(bulbus["z_range"])),
            compacta_shell_voxels=float(merged["compacta_shell_voxels"]),
            ostium_radius_voxels=float(merged["ostium_radius_voxels"]),
            lacunae_count=tuple(merged["lacunae_count"]),
            lacuna_radius_voxels=tuple(merged["lacuna_radius_voxels"]),
            attenuation=tuple(merged["attenuation"]),
            noise_sigma=float(merged["noise_sigma"]),
            window=tuple(merged["window"]),
        )
    except (TypeError, ValueError, KeyError) as err:
        raise SpecError(f"malformed phantom spec: {type(err).__name__}: {err}") from err


def _carve_ostium(labels: np.ndarray, shell: np.ndarray, spec: PhantomSpec,
                  target_frac) -> None:
    """Open a channel through the shell toward ``target_frac``.

    Shell voxels within ``ostium_radius_voxels`` of the segment from the
    ventricle center to the target become Ventricle, connecting the
    spongiosa to the neighboring chamber the way the real wall opens at
    its ostia.
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
    x0, y0, z0 = np.maximum(np.floor(np.minimum(a, b) - r), 0).astype(int)
    x1, y1, z1 = np.minimum(np.ceil(np.maximum(a, b) + r), dims_arr - 1).astype(int)
    zz, yy, xx = np.ogrid[z0:z1 + 1, y0:y1 + 1, x0:x1 + 1]
    # projection parameter of each voxel center onto the segment, clamped
    t = ((xx - a[0]) * d[0] + (yy - a[1]) * d[1] + (zz - a[2]) * d[2]) / dd
    t = np.clip(t, 0.0, 1.0)
    dist2 = ((xx - a[0] - t * d[0]) ** 2 + (yy - a[1] - t * d[1]) ** 2
             + (zz - a[2] - t * d[2]) ** 2)
    box = np.s_[z0:z1 + 1, y0:y1 + 1, x0:x1 + 1]
    labels[box][shell[box] & (dist2 <= r * r)] = int(ClassId.VENTRICLE)


def _paint_sphere(labels: np.ndarray, p, r: float, value: int) -> None:
    nz, ny, nx = labels.shape
    px, py, pz = p
    x0, x1 = max(0, math.floor(px - r)), min(nx - 1, math.ceil(px + r))
    y0, y1 = max(0, math.floor(py - r)), min(ny - 1, math.ceil(py + r))
    z0, z1 = max(0, math.floor(pz - r)), min(nz - 1, math.ceil(pz + r))
    zz, yy, xx = np.ogrid[z0:z1 + 1, y0:y1 + 1, x0:x1 + 1]
    m = (xx - px) ** 2 + (yy - py) ** 2 + (zz - pz) ** 2 <= r * r
    labels[z0:z1 + 1, y0:y1 + 1, x0:x1 + 1][m] = value


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
    labels[spec.atrium.mask(spec.dims)] = int(ClassId.ATRIUM)
    labels[spec.bulbus.mask(spec.dims)] = int(ClassId.BULBUS)
    outer = spec.ventricle.mask(spec.dims)
    inner = spec.ventricle.shrunk(spec.compacta_shell_voxels, spec.dims).mask(spec.dims)
    shell = outer & ~inner
    labels[shell] = int(ClassId.COMPACTA)
    labels[inner] = int(ClassId.VENTRICLE)
    bx, by = spec.bulbus.center_xy
    zlo, zhi = spec.bulbus.z_range
    _carve_ostium(labels, shell, spec, spec.atrium.center)
    _carve_ostium(labels, shell, spec,
                  (bx, by, min(max(spec.ventricle.center[2], zlo), zhi)))
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
