"""Projector and FBP oracles: chord lengths, mass conservation, dose trends."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.ndimage as ndi

from tomoseg import tomo
from tomoseg.core import AcquisitionConfig, AttenuationVolume
from tomoseg.errors import ConfigError, FormatError, ReconstructionError
from tomoseg.tomo import (
    DoseLevel,
    SinogramStack,
    fbp_reconstruct,
    forward_project,
    load_sinogram,
    normalize_to_u16,
    save_sinogram,
    subsample_dose,
)


def disk_volume(n: int, r: float, mu: float, n_slices: int = 1) -> AttenuationVolume:
    c = (n - 1) / 2.0
    yy, xx = np.ogrid[0:n, 0:n]
    img = ((((xx - c) ** 2 + (yy - c) ** 2) <= r * r) * mu).astype(np.float32)
    return AttenuationVolume(np.repeat(img[None], n_slices, axis=0), 1.0)


def rmse(a, b):
    return float(np.sqrt(((np.asarray(a, dtype=np.float64) - b) ** 2).mean()))


# --- slow per-angle references for the sparse operators ---------------------

def reference_project(data3d, angles_deg, n_bins, voxel_size_um):
    """Per-angle bilinear gather over every slice at unit steps along each ray."""
    nz, ny, nx = data3d.shape
    cx, cy = (nx - 1) / 2.0, (ny - 1) / 2.0
    half = math.ceil(math.hypot(nx, ny) / 2.0)
    t = np.arange(-half, half + 1, dtype=np.float32)
    s = np.arange(n_bins, dtype=np.float32) - (n_bins - 1) / 2.0
    out = np.empty((nz, len(angles_deg), n_bins), dtype=np.float32)
    for a, theta in enumerate(np.deg2rad(angles_deg)):
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        x = cx + s[:, None] * cos_t - t[None, :] * sin_t
        y = cy + s[:, None] * sin_t + t[None, :] * cos_t
        x0, y0 = np.floor(x), np.floor(y)
        fx, fy = x - x0, y - y0
        x0, y0 = x0.astype(np.int64), y0.astype(np.int64)
        acc = 0.0
        for dx, dy, w in ((0, 0, (1 - fx) * (1 - fy)), (1, 0, fx * (1 - fy)),
                          (0, 1, (1 - fx) * fy), (1, 1, fx * fy)):
            xi, yi = x0 + dx, y0 + dy
            inside = (xi >= 0) & (xi < nx) & (yi >= 0) & (yi < ny)
            xi, yi = np.clip(xi, 0, nx - 1), np.clip(yi, 0, ny - 1)
            acc = acc + data3d[:, yi, xi] * (w * inside)
        out[:, a, :] = acc.sum(axis=-1)
    return out * np.float32(voxel_size_um)


def reference_fbp(stack, out_nx, out_ny, filter_name):
    """Per-angle FBP: Ram-Lak (or Hann) filter by padded FFT, linear detector taps."""
    n_slices, n_angles, n_bins = stack.data.shape
    pad = 1 << max(4, (2 * n_bins - 1).bit_length())
    kernel = np.zeros(pad)
    kernel[0] = 0.25
    odd = np.arange(1, pad // 2 + 1, 2)
    kernel[odd] = kernel[-odd] = -1.0 / (np.pi * odd) ** 2
    filt = 2.0 * np.fft.rfft(kernel).real
    if filter_name == "hann":
        filt = filt * (0.5 + 0.5 * np.cos(2.0 * np.pi * np.fft.rfftfreq(pad)))
    padded = np.zeros((n_slices, n_angles, pad))
    padded[..., :n_bins] = stack.data
    filtered = np.fft.irfft(np.fft.rfft(padded, axis=-1) * filt, n=pad, axis=-1)[..., :n_bins]
    xs = np.arange(out_nx) - (out_nx - 1) / 2.0
    ys = np.arange(out_ny) - (out_ny - 1) / 2.0
    grid_x, grid_y = np.meshgrid(xs, ys)
    center = (n_bins - 1) / 2.0
    recon = np.zeros((n_slices, out_ny, out_nx))
    for a, theta in enumerate(np.deg2rad(stack.angles_deg())):
        k = grid_x * math.cos(theta) + grid_y * math.sin(theta) + center
        k0 = np.floor(k).astype(np.int64)
        fr = k - k0
        k1 = k0 + 1
        w0 = (1 - fr) * ((k0 >= 0) & (k0 < n_bins))
        w1 = fr * ((k1 >= 0) & (k1 < n_bins))
        prof = filtered[:, a, :]
        recon += prof[:, np.clip(k0, 0, n_bins - 1)] * w0 + prof[:, np.clip(k1, 0, n_bins - 1)] * w1
    return recon * (np.pi / (2.0 * n_angles) / stack.voxel_size_um)


def full_width_project(vol, cfg):
    """Projection as one CSR product that keeps all 4 * n_t taps of every ray.

    It does the same float32 products and sums, in the same order, as
    ``forward_project``, which leaves out the steps whose taps are all zero.
    """
    from scipy.sparse import csr_array

    nz, ny, nx = vol.data.shape
    half = math.ceil(math.hypot(nx, ny) / 2.0)
    t = np.arange(-half, half + 1, dtype=np.float32)
    s = np.arange(cfg.detector_bins, dtype=np.float32)[:, None] - (cfg.detector_bins - 1) / 2.0
    theta = np.deg2rad(cfg.angles_deg())
    cos_t = np.cos(theta).astype(np.float32)[:, None, None]
    sin_t = np.sin(theta).astype(np.float32)[:, None, None]
    x = (nx - 1) / 2.0 + s * cos_t - t * sin_t  # (angles, bins, n_t)
    y = (ny - 1) / 2.0 + s * sin_t + t * cos_t
    x0, y0 = np.floor(x), np.floor(y)
    fx, fy = x - x0, y - y0
    x0, y0 = x0.astype(np.int32), y0.astype(np.int32)
    cols, weights = [], []
    for dx, dy, w in ((0, 0, (1 - fx) * (1 - fy)), (1, 0, fx * (1 - fy)),
                      (0, 1, (1 - fx) * fy), (1, 1, fx * fy)):
        xi, yi = x0 + dx, y0 + dy
        inside = (xi >= 0) & (xi < nx) & (yi >= 0) & (yi < ny)
        cols.append(np.clip(yi, 0, ny - 1) * nx + np.clip(xi, 0, nx - 1))
        weights.append(w * inside)
    width = 4 * len(t)
    cols = np.stack(cols, axis=-2).reshape(-1, width)  # each ray's taps corner by corner
    weights = np.stack(weights, axis=-2).reshape(-1, width)
    indptr = np.arange(0, cols.size + 1, width)
    mat = csr_array((weights.ravel(), cols.ravel(), indptr), shape=(len(cols), ny * nx))
    rays = mat @ np.ascontiguousarray(vol.data.reshape(nz, -1).T)
    rays *= np.float32(vol.voxel_size_um)
    return rays.T.reshape(nz, cfg.n_projections, cfg.detector_bins)


def max_rel_err(got, want):
    return float(np.abs(np.asarray(got, np.float64) - want).max() / np.abs(want).max())


@pytest.fixture(scope="module")
def slab():
    """A 2 x 40 x 56 random slab with a disk in slice 0, at voxel size 1.5."""
    rng = np.random.Generator(np.random.Philox(21))
    data = rng.random((2, 40, 56), dtype=np.float32)
    data[0] += 2.0 * ((np.arange(56)[None, :] - 30) ** 2
                      + (np.arange(40)[:, None] - 18) ** 2 <= 100)
    return AttenuationVolume(data, 1.5)


@pytest.mark.parametrize("n_angles, step", [(37, 180.0 / 37), (3, 60.0)])
def test_forward_project_matches_per_angle_reference(slab, n_angles, step):
    cfg = AcquisitionConfig(n_angles, step, 71)
    sino = forward_project(slab, cfg)
    want = reference_project(slab.data, cfg.angles_deg(), 71, slab.voxel_size_um)
    assert sino.data.shape == (2, n_angles, 71)
    assert max_rel_err(sino.data, want) <= 1e-5


@pytest.mark.parametrize("dims, n_angles, step, n_bins", [
    ((2, 40, 56), 37, 180.0 / 37, 71), ((3, 17, 9), 45, 4.0, 40), ((1, 5, 5), 16, 11.25, 8)])
def test_forward_project_equals_the_full_width_product(dims, n_angles, step, n_bins):
    # signed values and zeros of both signs: leaving out the all-zero taps must not
    # change a single bit, not even the sign of a zero
    data = np.random.Generator(np.random.Philox(4)).random(dims, dtype=np.float32) - 0.5
    data[0, 0] = 0.0
    data[-1, :, 0] = -0.0
    vol = AttenuationVolume(data, 2.5)
    cfg = AcquisitionConfig(n_angles, step, n_bins)
    assert forward_project(vol, cfg).data.tobytes() == full_width_project(vol, cfg).tobytes()


@pytest.mark.parametrize("filter_name", ["ramlak", "hann"])
@pytest.mark.parametrize("out_dims", [(70, 65), (33, 48)])
def test_fbp_matches_per_angle_reference(slab, filter_name, out_dims):
    sino = forward_project(slab, AcquisitionConfig(37, 180.0 / 37, 71))
    rec = fbp_reconstruct(sino, out_dims, filter_name=filter_name)
    want = reference_fbp(sino, *out_dims, filter_name)
    assert rec.data.shape == (2, out_dims[1], out_dims[0])
    assert max_rel_err(rec.data, want) <= 1e-5


def test_zero_volume_projects_to_zero():
    vol = AttenuationVolume(np.zeros((2, 32, 32), np.float32), 1.0)
    sino = forward_project(vol, AcquisitionConfig(20, 9.0, 46))
    assert not sino.data.any()


def test_disk_chord_oracle():
    # central detector bin sees the full diameter: 2*r*mu*voxel_size
    r, mu, vox = 30.0, 0.7, 2.5
    vol = AttenuationVolume(disk_volume(96, r, mu).data, vox)
    cfg = AcquisitionConfig(90, 2.0, 137)
    sino = forward_project(vol, cfg)
    center_bin = (cfg.detector_bins - 1) // 2
    vals = sino.data[0, :, center_bin]
    expected = 2.0 * r * mu * vox
    assert np.abs(vals - expected).max() / expected < 0.02


def test_mass_conservation_across_angles():
    vol = disk_volume(96, 24, 0.7)
    sino = forward_project(vol, AcquisitionConfig(45, 4.0, 137))
    sums = sino.data[0].sum(axis=1)
    assert (sums.max() - sums.min()) / sums.mean() < 0.01


def test_projection_linearity():
    rng = np.random.Generator(np.random.Philox(3))
    a, b = 2.5, -0.75
    v1 = rng.random((2, 32, 32), dtype=np.float32)
    v2 = rng.random((2, 32, 32), dtype=np.float32)
    cfg = AcquisitionConfig(15, 12.0, 46)
    p1 = forward_project(AttenuationVolume(v1, 1.0), cfg).data
    p2 = forward_project(AttenuationVolume(v2, 1.0), cfg).data
    p12 = forward_project(AttenuationVolume(a * v1 + b * v2, 1.0), cfg).data
    assert np.allclose(p12, a * p1 + b * p2, rtol=1e-4, atol=1e-3)


def test_rotational_consistency_on_symmetric_phantom():
    vol = disk_volume(96, 24, 0.7)
    sino = forward_project(vol, AcquisitionConfig(90, 2.0, 137))
    rows = sino.data[0]
    ref = rows.mean(axis=0)
    assert np.abs(rows - ref).max() / ref.max() < 0.05


def test_detector_must_cover_diagonal():
    vol = disk_volume(96, 24, 0.7)
    with pytest.raises(ConfigError):
        forward_project(vol, AcquisitionConfig(10, 18.0, 96))


def test_subsample_counts():
    stack = SinogramStack(np.zeros((1, 3600, 8), np.float32), 0.1)
    assert subsample_dose(stack, DoseLevel(2)).n_angles == 1800
    assert subsample_dose(stack, DoseLevel(3)).n_angles == 1200
    s1 = subsample_dose(stack, DoseLevel(1))
    assert s1.n_angles == 3600 and s1.angle_step_deg == stack.angle_step_deg


def test_subsample_angle_values():
    stack = SinogramStack(np.zeros((1, 360, 8), np.float32), 0.1)
    d3 = subsample_dose(stack, DoseLevel(3))
    assert d3.n_angles == 120
    assert np.allclose(d3.angles_deg()[:3], [0.0, 0.3, 0.6])


def test_subsample_picks_decimated_rows():
    rng = np.random.Generator(np.random.Philox(9))
    data = rng.random((2, 12, 5), dtype=np.float32)
    stack = SinogramStack(data, 15.0)
    d2 = subsample_dose(stack, DoseLevel(2))
    assert np.array_equal(d2.data, data[:, ::2, :])
    assert d2.angle_step_deg == 30.0


def test_dose_level_validation():
    assert DoseLevel(2).name == "D2"
    with pytest.raises(ConfigError):
        DoseLevel(4)
    with pytest.raises(ConfigError):
        DoseLevel(0)


def test_fbp_zero_sinogram():
    stack = SinogramStack(np.zeros((2, 30, 46), np.float32), 6.0)
    rec = fbp_reconstruct(stack, (32, 32))
    assert np.abs(rec.data).max() < 1e-9


def test_fbp_disk_interior_accuracy():
    mu = 0.7
    vol = disk_volume(96, 24, mu)
    sino = forward_project(vol, AcquisitionConfig(180, 1.0, 137))
    rec = fbp_reconstruct(sino, (96, 96))
    c = (96 - 1) / 2.0
    yy, xx = np.ogrid[0:96, 0:96]
    interior = ((xx - c) ** 2 + (yy - c) ** 2) <= (24 - 2) ** 2
    err = rec.data[0][interior] - mu
    assert np.sqrt((err ** 2).mean()) < 0.05 * mu


def test_fbp_slices_stay_independent():
    mu = 0.7
    disk = disk_volume(64, 16, mu).data[0]
    data = np.stack([disk, np.zeros_like(disk)])
    sino = forward_project(AttenuationVolume(data, 1.0), AcquisitionConfig(90, 2.0, 92))
    rec = fbp_reconstruct(sino, (64, 64))
    assert np.abs(rec.data[1]).max() < 1e-3
    assert abs(rec.data[0][32, 32] - mu) < 0.1 * mu


def test_fbp_improves_with_angle_count():
    # noisy disk against its clean version: streaks and noise shrink with dose
    clean = disk_volume(96, 24, 0.7).data[0].copy()
    rng = np.random.Generator(np.random.Philox(5))
    noisy = clean + rng.normal(0, 0.05, (1, 96, 96)).astype(np.float32)
    vol = AttenuationVolume(noisy, 1.0)
    errs = []
    for n_angles, step in ((45, 4.0), (90, 2.0), (180, 1.0), (360, 0.5)):
        sino = forward_project(vol, AcquisitionConfig(n_angles, step, 137))
        rec = fbp_reconstruct(sino, (96, 96))
        errs.append(rmse(rec.data[0], clean))
    assert errs[0] > errs[1] > errs[2] > errs[3]


def test_fbp_error_grows_with_dose_stride():
    clean = disk_volume(96, 24, 0.7).data[0].copy()
    rng = np.random.Generator(np.random.Philox(5))
    vol = AttenuationVolume(clean + rng.normal(0, 0.05, (1, 96, 96)).astype(np.float32), 1.0)
    sino = forward_project(vol, AcquisitionConfig(180, 1.0, 137))
    errs = [rmse(fbp_reconstruct(subsample_dose(sino, DoseLevel(k)), (96, 96)).data[0], clean)
            for k in (1, 2, 3)]
    assert errs[0] < errs[1] < errs[2]


def test_fbp_validation():
    stack = SinogramStack(np.zeros((1, 1, 46), np.float32), 1.0)
    with pytest.raises(ReconstructionError):
        fbp_reconstruct(stack, (32, 32))
    ok = SinogramStack(np.zeros((2, 10, 46), np.float32), 18.0)
    with pytest.raises(ConfigError):
        fbp_reconstruct(ok, (32, 32), filter_name="shepp")
    with pytest.raises(ConfigError):
        fbp_reconstruct(ok, (32, 32, 5))
    rec = fbp_reconstruct(ok, (32, 32, 2))
    assert rec.data.shape == (2, 32, 32)


def test_fbp_hann_variant():
    vol = disk_volume(96, 24, 0.7)
    sino = forward_project(vol, AcquisitionConfig(180, 1.0, 137))
    ram = fbp_reconstruct(sino, (96, 96))
    han = fbp_reconstruct(sino, (96, 96), filter_name="hann")
    assert not np.array_equal(ram.data, han.data)
    c = (96 - 1) / 2.0
    yy, xx = np.ogrid[0:96, 0:96]
    interior = ((xx - c) ** 2 + (yy - c) ** 2) <= (24 - 3) ** 2
    assert np.sqrt(((han.data[0][interior] - 0.7) ** 2).mean()) < 0.05 * 0.7


def test_fbp_units_independent_of_voxel_size():
    img = disk_volume(64, 16, 0.6).data
    cfg = AcquisitionConfig(90, 2.0, 92)
    r1 = fbp_reconstruct(forward_project(AttenuationVolume(img, 1.0), cfg), (64, 64))
    r2 = fbp_reconstruct(forward_project(AttenuationVolume(img, 2.5), cfg), (64, 64))
    assert np.allclose(r1.data, r2.data, rtol=1e-4, atol=1e-5)


def test_normalize_boundaries_and_midpoint():
    vals = np.array([[[0.2, 0.9, 0.55, 0.1, 1.0]]], dtype=np.float32)
    g = normalize_to_u16(AttenuationVolume(vals, 1.0), (0.2, 0.9))
    assert g.data[0, 0, 0] == 0
    assert g.data[0, 0, 1] == 65535
    assert abs(int(g.data[0, 0, 2]) - 32768) <= 1
    assert g.data[0, 0, 3] == 0  # below window clamps
    assert g.data[0, 0, 4] == 65535  # above window clamps


def test_normalize_monotone_and_idempotent():
    rng = np.random.Generator(np.random.Philox(2))
    vals = np.sort(rng.uniform(-0.2, 1.2, 64)).astype(np.float32).reshape(1, 1, 64)
    lo, hi = 0.0, 1.0
    g = normalize_to_u16(AttenuationVolume(vals, 1.0), (lo, hi))
    assert (np.diff(g.data[0, 0].astype(np.int64)) >= 0).all()
    back = lo + (hi - lo) * g.data.astype(np.float64) / 65535.0
    g2 = normalize_to_u16(AttenuationVolume(back.astype(np.float32), 1.0), (lo, hi))
    assert np.array_equal(g.data, g2.data)


def test_normalize_equals_the_whole_volume_formula():
    rng = np.random.Generator(np.random.Philox(5))
    vals = rng.uniform(-0.3, 1.3, (5, 6, 7)).astype(np.float32)
    vals[0, 0, :3] = (0.1, 0.8, 0.45)
    got = normalize_to_u16(AttenuationVolume(vals, 1.0), (0.1, 0.8))
    scaled = (vals.astype(np.float64) - 0.1) * (65535.0 / (0.8 - 0.1))
    assert got.data.tobytes() == np.rint(np.clip(scaled, 0.0, 65535.0)).astype(np.uint16).tobytes()


def test_normalize_rejects_degenerate_window():
    vol = AttenuationVolume(np.zeros((1, 2, 2), np.float32), 1.0)
    with pytest.raises(ConfigError):
        normalize_to_u16(vol, (0.5, 0.5))


def test_sinogram_round_trip(tmp_path):
    rng = np.random.Generator(np.random.Philox(7))
    stack = SinogramStack(rng.random((3, 20, 15), dtype=np.float32), 9.0, voxel_size_um=2.0)
    p = tmp_path / "s.sino"
    save_sinogram(stack, p)
    back = load_sinogram(p)
    assert np.array_equal(back.data, stack.data)
    assert back.angle_step_deg == stack.angle_step_deg
    assert back.voxel_size_um == stack.voxel_size_um


def test_sinogram_load_errors(tmp_path):
    stack = SinogramStack(np.zeros((2, 4, 5), np.float32), 45.0)
    p = tmp_path / "s.sino"
    save_sinogram(stack, p)
    p.write_bytes(p.read_bytes()[:-4])
    with pytest.raises(FormatError):
        load_sinogram(p)
    with pytest.raises(FileNotFoundError):
        load_sinogram(tmp_path / "missing.sino")
    save_sinogram(stack, p)
    import json
    meta = json.loads((tmp_path / "s.sino.json").read_text())
    meta["arc_deg"] = 90.0
    (tmp_path / "s.sino.json").write_text(json.dumps(meta))
    with pytest.raises(FormatError):
        load_sinogram(p)


# --- the tap budget: block sizes change no bit and bound the memory ----------

def traced_peak(fn):
    """(result, peak bytes traced while ``fn`` runs)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def signed_slab():
    data = np.random.Generator(np.random.Philox(8)).random((3, 33, 41), dtype=np.float32) - 0.3
    data[1, :, 0] = -0.0
    return AttenuationVolume(data, 1.5)


@pytest.mark.parametrize("budget", [1, 7919, 1 << 40])  # one row per block, a prime, one block
def test_tap_budget_changes_no_bit(monkeypatch, signed_slab, budget):
    cfg = AcquisitionConfig(37, 180.0 / 37, 64)
    want = forward_project(signed_slab, cfg)
    recons = {(k, f): fbp_reconstruct(subsample_dose(want, DoseLevel(k)), (45, 31), f)
              for k in (1, 2, 3) for f in ("ramlak", "hann")}
    monkeypatch.setattr(tomo, "_TAPS_PER_BLOCK", budget)
    for jobs in (1, 2, 3, 8):  # at one block, 8 workers are more than there are blocks
        got = forward_project(signed_slab, cfg, jobs)
        assert got.data.tobytes() == want.data.tobytes()
        for (k, f), rec in recons.items():
            again = fbp_reconstruct(subsample_dose(got, DoseLevel(k)), (45, 31), f, jobs)
            assert again.data.tobytes() == rec.data.tobytes()


def test_block_runner_covers_every_row_once_on_many_threads(monkeypatch):
    import sys
    import threading

    monkeypatch.setattr(tomo, "_TAPS_PER_BLOCK", 8 * 3)
    taken, threads = [], set()

    def worker(rows):
        assert rows == 1  # each of the 8 threads gets 3 of the 24 taps, one row of 3
        threads.add(threading.get_ident())
        return lambda lo, hi: taken.append((lo, hi))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tomo._run_blocks(5000, 3, 8, worker)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(taken) == [(i, i + 1) for i in range(5000)]
    assert threading.get_ident() in threads and len(threads) <= 8


def test_block_runner_stops_at_the_first_failure():
    taken = []

    def worker(rows):
        def block(lo, hi):
            taken.append(lo)
            if lo == 3 * rows:
                raise MemoryError(lo)
        return block

    with pytest.raises(MemoryError):
        tomo._run_blocks(1 << 30, 1 << 12, 3, worker)
    assert len(taken) < 100


def test_operators_reject_fewer_than_one_job(signed_slab):
    cfg = AcquisitionConfig(37, 180.0 / 37, 64)
    with pytest.raises(ConfigError, match="jobs"):
        forward_project(signed_slab, cfg, 0)
    with pytest.raises(ConfigError, match="jobs"):
        fbp_reconstruct(forward_project(signed_slab, cfg), (45, 31), jobs=-1)


@pytest.mark.parametrize("shape", [(32, 300, 192), (48, 60, 80), (7, 33, 71), (32, 100, 192),
                                   (9, 300, 192), (3, 2, 16)])
def test_filtering_a_few_slices_at_a_time_changes_no_bit(monkeypatch, shape):
    # BLAS at its default thread count; one whole product is the reference
    data = np.random.Generator(np.random.Philox(shape)).random(shape, dtype=np.float32) - 0.3
    sino = SinogramStack(data, 180.0 / shape[1])
    got = fbp_reconstruct(sino, (12, 10))
    monkeypatch.setattr(tomo, "_FILTER_VALUES", 1 << 40)
    assert got.data.tobytes() == fbp_reconstruct(sino, (12, 10)).data.tobytes()


# measured at jobs=2: 26-30 for projection, 28-33 for FBP (numpy 2.4, scipy 1.17)
BYTES_PER_TAP = 40


def test_projection_transients_are_bounded_by_the_tap_budget(monkeypatch):
    vol = AttenuationVolume(np.ones((2, 64, 64), np.float32), 1.0)
    cfg = AcquisitionConfig(180, 1.0, 96)
    forward_project(vol, cfg)  # scipy's import stays out of the measurement
    monkeypatch.setattr(tomo, "_TAPS_PER_BLOCK", 1 << 13)
    sino, peak = traced_peak(lambda: forward_project(vol, cfg, jobs=2))
    # beyond the blocks of both workers: the output and a pixel-major copy of the input
    held = sino.data.nbytes + vol.data.nbytes
    assert peak - held <= BYTES_PER_TAP * (1 << 13) + (64 << 10)


def test_fbp_transients_are_bounded_by_the_tap_budget(monkeypatch):
    sino = SinogramStack(np.ones((2, 90, 96), np.float32), 2.0)
    fbp_reconstruct(sino, (96, 96))
    monkeypatch.setattr(tomo, "_TAPS_PER_BLOCK", 1 << 13)
    rec, peak = traced_peak(lambda: fbp_reconstruct(sino, (96, 96), jobs=2))
    # beyond the blocks of both workers: the output and the filtered sinogram
    held = rec.data.nbytes + sino.data.nbytes
    assert peak - held <= BYTES_PER_TAP * (1 << 13) + (64 << 10)


def test_fbp_peak_does_not_grow_with_the_angle_count():
    peaks = []
    for n_angles in (90, 180):
        sino = SinogramStack(np.ones((1, n_angles, 96), np.float32), 180.0 / n_angles)
        fbp_reconstruct(sino, (128, 128))
        peaks.append(traced_peak(lambda: fbp_reconstruct(sino, (128, 128), jobs=2))[1])
    assert peaks[1] < 1.25 * peaks[0]


def test_normalize_holds_no_float64_volume():
    vol = AttenuationVolume(np.full((16, 48, 40), 0.5, np.float32), 1.0)
    gray, peak = traced_peak(lambda: normalize_to_u16(vol, (0.0, 1.0)))
    assert peak <= gray.data.nbytes + 3 * 48 * 40 * 8
