"""Volume types, slicing conventions, and raw+sidecar round-trips."""

import json
import os
import sys

import numpy as np
import pytest

from tomoseg.core import (
    CLASS_NAMES,
    AcquisitionConfig,
    AttenuationVolume,
    ClassId,
    GrayVolume,
    LabelVolume,
    ViewAxis,
    extract_slice,
    fork_map,
    load_volume,
    restack,
    save_volume,
    view_stack,
    worker_count,
)
from tomoseg.errors import ConfigError, FormatError


def _gray(nx, ny, nz, seed=0):
    rng = np.random.Generator(np.random.Philox(seed))
    return GrayVolume(rng.integers(0, 65536, size=(nz, ny, nx), dtype=np.uint16), voxel_size_um=2.5)


def test_dims_order():
    vol = _gray(5, 4, 3)
    assert vol.dims == (5, 4, 3)
    assert vol.data.shape == (3, 4, 5)


def test_value_at_matches_data_layout():
    vol = _gray(7, 5, 3, seed=1)
    rng = np.random.Generator(np.random.Philox(2))
    for _ in range(50):
        x = int(rng.integers(0, 7))
        y = int(rng.integers(0, 5))
        z = int(rng.integers(0, 3))
        assert vol.value_at(x, y, z) == vol.data[z, y, x]


def test_volume_data_is_readonly():
    vol = _gray(4, 4, 4)
    with pytest.raises(ValueError):
        vol.data[0, 0, 0] = 1


VOLUME_TYPES = [GrayVolume, LabelVolume, AttenuationVolume]


@pytest.mark.parametrize("cls", VOLUME_TYPES)
@pytest.mark.parametrize("shape", [(4, 4), (2, 3, 4, 5)], ids=["2d", "4d"])
def test_volume_must_be_3d(cls, shape):
    with pytest.raises(FormatError, match="3-dimensional"):
        cls(np.zeros(shape, dtype=cls.dtype))


@pytest.mark.parametrize("cls", VOLUME_TYPES)
@pytest.mark.parametrize("size", [0.0, -1.0, float("nan")], ids=["zero", "negative", "nan"])
def test_volume_voxel_size_must_be_positive(cls, size):
    with pytest.raises(FormatError, match="voxel_size_um"):
        cls(np.zeros((2, 2, 2), dtype=cls.dtype), size)


@pytest.mark.parametrize("cls", VOLUME_TYPES)
def test_volume_data_is_locked_in_the_type_dtype(cls, tmp_path):
    vol = cls(np.arange(24, dtype=np.int64).reshape(2, 3, 4) % 6, 2.0)
    assert vol.data.dtype == cls.dtype
    assert vol.data.flags.c_contiguous and not vol.data.flags.writeable
    with pytest.raises(ValueError):
        vol.data[0, 0, 0] = 1
    save_volume(vol, tmp_path / "v.vol")
    tag = json.loads((tmp_path / "v.vol.json").read_text())["dtype"]
    assert tag == cls.tag
    assert type(load_volume(tmp_path / "v.vol")) is cls


def test_xz_view_shape_example():
    # 3x4x5 volume: the XZ view yields 4 slices of shape (3, 5)
    vol = _gray(3, 4, 5)
    for y in range(4):
        assert extract_slice(vol, ViewAxis.XZ, y).shape == (3, 5)


def test_extract_slice_against_pointwise_indexing():
    vol = _gray(6, 5, 4, seed=3)
    nx, ny, nz = vol.dims
    for z in range(nz):
        s = extract_slice(vol, ViewAxis.XY, z)
        assert s.shape == (nx, ny)
        for x in range(nx):
            for y in range(ny):
                assert s[x, y] == vol.value_at(x, y, z)
    for y in range(ny):
        s = extract_slice(vol, ViewAxis.XZ, y)
        assert s.shape == (nx, nz)
        for x in range(nx):
            for z in range(nz):
                assert s[x, z] == vol.value_at(x, y, z)
    for x in range(nx):
        s = extract_slice(vol, ViewAxis.YZ, x)
        assert s.shape == (ny, nz)
        for y in range(ny):
            for z in range(nz):
                assert s[y, z] == vol.value_at(x, y, z)


def test_extract_slice_index_out_of_range():
    vol = _gray(3, 4, 5)
    for axis, n in [(ViewAxis.XY, 5), (ViewAxis.XZ, 4), (ViewAxis.YZ, 3)]:
        with pytest.raises(IndexError):
            extract_slice(vol, axis, n)
        with pytest.raises(IndexError):
            extract_slice(vol, axis, -1)


@pytest.mark.parametrize("axis", list(ViewAxis))
def test_restack_inverts_extract(axis):
    vol = _gray(6, 5, 4, seed=7)
    n = view_stack(vol.data, axis).shape[0]
    rebuilt = restack([extract_slice(vol, axis, i) for i in range(n)], axis)
    assert rebuilt.dtype == vol.data.dtype
    assert np.array_equal(rebuilt, vol.data)


def test_label_volume_rejects_out_of_table_values():
    bad = np.zeros((2, 2, 2), dtype=np.uint8)
    bad[0, 0, 0] = 6
    with pytest.raises(FormatError):
        LabelVolume(bad)


def test_label_volume_rejects_repeated_class_names():
    with pytest.raises(FormatError, match="repeats a name"):
        LabelVolume(np.zeros((2, 2, 2), dtype=np.uint8), 1.0, ("Background", "Heart", "Heart"))


def test_load_rejects_repeated_class_names(tmp_path):
    p = tmp_path / "dup.vol"
    p.write_bytes(np.zeros((2, 2, 2), dtype=np.uint8).tobytes())
    (tmp_path / "dup.vol.json").write_text(json.dumps({
        "dims": [2, 2, 2], "voxel_size_um": 1.0, "dtype": "uint8",
        "classes": ["Background", "Heart", "Heart"],
    }))
    with pytest.raises(FormatError, match=f"{p}.*repeats a name"):
        load_volume(p)


def test_class_table():
    assert len(CLASS_NAMES) == 6
    assert CLASS_NAMES[0] == "Background"
    assert ClassId.LACUNARY == 5
    assert [c.value for c in ClassId] == [0, 1, 2, 3, 4, 5]


def test_acquisition_config_validation():
    cfg = AcquisitionConfig(n_projections=3600, angular_step_deg=0.1, detector_bins=256)
    assert cfg.arc_deg == pytest.approx(360.0)
    assert cfg.angles_deg()[1] == pytest.approx(0.1)
    with pytest.raises(ConfigError):
        AcquisitionConfig(n_projections=0, angular_step_deg=0.1, detector_bins=256)
    with pytest.raises(ConfigError):
        AcquisitionConfig(n_projections=100, angular_step_deg=4.0, detector_bins=256)
    with pytest.raises(ConfigError):
        AcquisitionConfig(n_projections=10, angular_step_deg=1.0, detector_bins=256,
                          absorption_window=(1.0, 1.0))
    for window in (("a", "b"), (False, True), (0.0, float("inf")), (0.0, 0.5, 1.0)):
        with pytest.raises(ConfigError, match="two finite numbers"):
            AcquisitionConfig(n_projections=10, angular_step_deg=1.0, detector_bins=256,
                              absorption_window=window)
    assert AcquisitionConfig(10, 1.0, 256, (0, 1)).absorption_window == (0, 1)


@pytest.mark.parametrize("make", [
    lambda rng: GrayVolume(rng.integers(0, 65536, size=(3, 4, 5), dtype=np.uint16), 1.5),
    lambda rng: LabelVolume(rng.integers(0, 6, size=(3, 4, 5), dtype=np.uint8), 2.0),
    lambda rng: AttenuationVolume(rng.normal(size=(3, 4, 5)).astype(np.float32), 0.5),
])
def test_save_load_round_trip(tmp_path, make):
    rng = np.random.Generator(np.random.Philox(11))
    vol = make(rng)
    p = tmp_path / "vol.vol"
    save_volume(vol, p)
    back = load_volume(p)
    assert type(back) is type(vol)
    assert back.dims == vol.dims
    assert back.voxel_size_um == vol.voxel_size_um
    assert np.array_equal(back.data, vol.data)


def test_payload_is_little_endian_z_major(tmp_path):
    vol = _gray(2, 2, 2, seed=5)
    p = tmp_path / "v.vol"
    save_volume(vol, p)
    raw = p.read_bytes()
    assert len(raw) == 2 * 2 * 2 * 2
    flat = np.frombuffer(raw, dtype="<u2")
    # first element is (x=0, y=0, z=0), second is (x=1, y=0, z=0)
    assert flat[0] == vol.value_at(0, 0, 0)
    assert flat[1] == vol.value_at(1, 0, 0)
    assert flat[2] == vol.value_at(0, 1, 0)
    assert flat[4] == vol.value_at(0, 0, 1)


def test_sidecar_contents(tmp_path):
    lab = LabelVolume(np.zeros((2, 3, 4), dtype=np.uint8), voxel_size_um=3.0)
    p = tmp_path / "lab.vol"
    save_volume(lab, p)
    meta = json.loads((tmp_path / "lab.vol.json").read_text())
    assert meta["dims"] == [4, 3, 2]
    assert meta["voxel_size_um"] == 3.0
    assert meta["dtype"] == "uint8"
    assert meta["classes"] == list(CLASS_NAMES)


def test_load_rejects_size_mismatch(tmp_path):
    vol = _gray(4, 4, 4)
    p = tmp_path / "v.vol"
    save_volume(vol, p)
    p.write_bytes(p.read_bytes()[:-2])
    with pytest.raises(FormatError):
        load_volume(p)


def test_load_rejects_unknown_dtype(tmp_path):
    vol = _gray(2, 2, 2)
    p = tmp_path / "v.vol"
    save_volume(vol, p)
    meta = json.loads((tmp_path / "v.vol.json").read_text())
    meta["dtype"] = "int64"
    (tmp_path / "v.vol.json").write_text(json.dumps(meta))
    with pytest.raises(FormatError):
        load_volume(p)


def test_load_rejects_bad_label_values(tmp_path):
    arr = np.full((2, 2, 2), 200, dtype=np.uint8)
    p = tmp_path / "bad.vol"
    p.write_bytes(arr.tobytes())
    (tmp_path / "bad.vol.json").write_text(json.dumps({
        "dims": [2, 2, 2], "voxel_size_um": 1.0, "dtype": "uint8",
        "classes": list(CLASS_NAMES),
    }))
    with pytest.raises(FormatError):
        load_volume(p)


@pytest.mark.parametrize("meta", [
    {"dims": [2, 2, 2], "voxel_size_um": 1.0, "dtype": "uint8"},
    {"dims": [2, 2], "voxel_size_um": 1.0, "dtype": "uint8"},
    {"dims": [2, 2, 2], "voxel_size_um": "x", "dtype": "uint8"},
    {"dims": [2, 2, 2], "voxel_size_um": 1.0, "dtype": "uint8", "classes": 5},
    {"dims": [2, 2, 2], "voxel_size_um": 1.0, "dtype": [1]},
    [2, 2, 2],
], ids=["label_range", "two_dims", "voxel_text", "classes_number", "dtype_list", "list"])
def test_load_errors_name_the_file(tmp_path, meta):
    p = tmp_path / "bad.vol"
    p.write_bytes(np.full((2, 2, 2), 200, dtype=np.uint8).tobytes())
    (tmp_path / "bad.vol.json").write_text(json.dumps(meta))
    with pytest.raises(FormatError, match=str(p)):
        load_volume(p)


def test_load_missing_files(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_volume(tmp_path / "absent.vol")
    (tmp_path / "orphan.vol").write_bytes(b"\x00" * 8)
    with pytest.raises(FileNotFoundError):
        load_volume(tmp_path / "orphan.vol")


@pytest.mark.parametrize("kind", ["volume", "sinogram"])
def test_failed_sidecar_write_leaves_no_half_pair(tmp_path, monkeypatch, kind):
    from pathlib import Path

    from tomoseg.tomo import SinogramStack, load_sinogram, save_sinogram

    if kind == "volume":
        save, load, ext = save_volume, load_volume, ".vol"
        old, new = _gray(5, 4, 3, seed=1), _gray(5, 4, 3, seed=2)
    else:
        save, load, ext = save_sinogram, load_sinogram, ".sino"
        old = SinogramStack(np.zeros((2, 4, 5), np.float32), 45.0)
        new = SinogramStack(np.ones((2, 4, 5), np.float32), 45.0)

    def fail(self, *args, **kwargs):
        raise OSError("disk full")

    fresh = tmp_path / f"fresh{ext}"
    kept = tmp_path / f"kept{ext}"
    save(old, kept)
    with monkeypatch.context() as m:
        m.setattr(Path, "write_text", fail)
        with pytest.raises(OSError, match="disk full"):
            save(new, fresh)
        with pytest.raises(OSError, match="disk full"):
            save(new, kept)
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"kept{ext}", f"kept{ext}.json"]
    assert np.array_equal(load(kept).data, old.data)


def test_worker_count_defaults_to_the_usable_cpus(monkeypatch):
    assert worker_count() == len(os.sched_getaffinity(0))
    assert worker_count(3) == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count(None) == 1


@pytest.mark.parametrize("jobs", [0, -3])
def test_worker_count_rejects_fewer_than_one(jobs):
    with pytest.raises(ConfigError, match="jobs"):
        worker_count(jobs)
    for items in ([], [1], [1, 2]):  # fork_map checks jobs whatever its items
        with pytest.raises(ConfigError, match="jobs"):
            fork_map(_pid_and, items, jobs)


def _pid_and(item):
    return item, os.getpid()


def _fail_at_even(item):
    if item and item % 2 == 0:
        raise ConfigError(f"item {item}")
    return item


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("jobs", [1, 2, 3, 4, 9])
def test_fork_map_keeps_the_order_and_runs_the_first_item_here(jobs):
    out = fork_map(_pid_and, range(5), jobs)
    assert [item for item, _ in out] == list(range(5))
    pids = [pid for _, pid in out]
    assert pids[0] == os.getpid()
    assert len(set(pids[1:])) == 1  # the rest run in one process
    assert (pids[1] == os.getpid()) == (jobs == 1)
    _assert_no_child_left()


@pytest.mark.parametrize("jobs", [1, 2, 3, 5])
def test_fork_map_raises_the_first_failing_items_error(jobs):
    # items 2 and 4 fail, here or in the child: item 2's error is raised
    with pytest.raises(ConfigError, match="^item 2$"):
        fork_map(_fail_at_even, range(5), jobs)
    _assert_no_child_left()


class _WritesThenExits:
    """Stands for a child's pipe: writes ``share`` of the payload, then exits 9."""

    share = 1.0

    def __init__(self, fd):
        self.fd = fd

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def write(self, payload):
        os.write(self.fd, payload[:int(len(payload) * self.share)])
        os._exit(9)


def test_fork_map_reports_what_a_child_cannot_send(monkeypatch):
    from tomoseg import core

    with pytest.raises(ChildProcessError, match="pickle"):
        fork_map(lambda item: lambda: item, range(2), 2)
    with pytest.raises(ChildProcessError,
                       match=r"^forked worker \d+ ended with wait status 768 after "
                             r"sending 0 bytes that do not unpickle$"):
        fork_map(lambda item: os._exit(3) if item else item, range(2), 2)
    # a child that dies while it writes: half or all of its payload arrives
    monkeypatch.setattr(core, "open", lambda fd, mode, **kw: _WritesThenExits(fd)
                        if "w" in mode else open(fd, mode, **kw), raising=False)
    for share, tail in ((0.5, " that do not unpickle"), (1.0, "")):
        monkeypatch.setattr(_WritesThenExits, "share", share)
        with pytest.raises(ChildProcessError,
                           match=r"^forked worker \d+ ended with wait status 2304 after "
                                 rf"sending [1-9]\d* bytes{tail}$"):
            fork_map(_pid_and, range(2), 2)
    _assert_no_child_left()


def test_fork_map_forks_only_on_linux(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(sys, "platform", "darwin")
    assert fork_map(_pid_and, range(3), 2) == [(item, os.getpid()) for item in range(3)]
