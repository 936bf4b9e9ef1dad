"""Phantom generation: determinism, geometry invariants, cohort jitter."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest
import scipy.ndimage as ndi
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from tomoseg import phantom
from tomoseg.core import ClassId, rng_for_seed
from tomoseg.errors import SpecError
from tomoseg.phantom import (
    CylinderZ,
    Ellipsoid,
    PhantomSpec,
    _jittered,
    default_spec,
    generate,
    spec_from_dict,
    spec_to_dict,
    split_cohort,
)

FACE = ndi.generate_binary_structure(3, 1)


def test_generate_is_deterministic():
    spec = default_spec(48, seed=7)
    a1, l1 = generate(spec)
    a2, l2 = generate(spec)
    assert np.array_equal(a1.data, a2.data)
    assert np.array_equal(l1.data, l2.data)


def test_zero_lacunae():
    spec = replace(default_spec(48), lacunae_count=(0, 0))
    _, lab = generate(spec)
    assert not (lab.data == ClassId.LACUNARY).any()


def test_default_128_class_fractions():
    _, lab = generate(default_spec(128))
    counts = np.bincount(lab.data.ravel(), minlength=6)
    total = lab.data.size
    for cid in ClassId:
        assert counts[cid] / total > 0.001, f"{cid.name} under 0.1% of voxels"


def test_attenuation_means_match_labels():
    spec = default_spec(128, seed=3)
    att, lab = generate(spec)
    for cid in ClassId:
        sel = lab.data == cid
        n = int(sel.sum())
        assert n > 0
        observed = float(att.data[sel].mean())
        assert abs(observed - spec.attenuation[cid]) < 3 * spec.noise_sigma / np.sqrt(n)


def test_lacunae_enclosed_by_ventricle_complex():
    _, lab = generate(default_spec(64, seed=11))
    lac = lab.data == ClassId.LACUNARY
    assert lac.any()
    ring = ndi.binary_dilation(lac, structure=FACE) & ~lac
    assert np.isin(lab.data[ring], (int(ClassId.VENTRICLE), int(ClassId.COMPACTA))).all()


def test_border_background_never_reaches_lacunae():
    _, lab = generate(default_spec(64, seed=5))
    bg = lab.data == ClassId.BACKGROUND
    comp, _ = ndi.label(bg, structure=FACE)
    border_ids = set()
    for sl in (comp[0], comp[-1], comp[:, 0], comp[:, -1], comp[:, :, 0], comp[:, :, -1]):
        border_ids.update(np.unique(sl))
    border_ids.discard(0)
    border_bg = np.isin(comp, sorted(border_ids))
    near = ndi.binary_dilation(border_bg, structure=FACE)
    assert not (near & (lab.data == ClassId.LACUNARY)).any()


def _interior_is_wall_enclosed(lab) -> bool:
    """True when no spongiosa voxel is reachable from the border without
    crossing the compacta wall."""
    passable = lab.data != ClassId.COMPACTA
    comp, _ = ndi.label(passable, structure=FACE)
    border = set(np.unique(np.concatenate([
        comp[0].ravel(), comp[-1].ravel(), comp[:, 0].ravel(), comp[:, -1].ravel(),
        comp[:, :, 0].ravel(), comp[:, :, -1].ravel()]))) - {0}
    interior = np.isin(lab.data, (int(ClassId.VENTRICLE), int(ClassId.LACUNARY)))
    return not np.isin(comp[interior], list(border)).any()


def test_shell_wraps_interior_except_at_ostia():
    spec = default_spec(64, seed=2)
    _, lab = generate(spec)
    interior = np.isin(lab.data, (int(ClassId.VENTRICLE), int(ClassId.LACUNARY)))
    ring = ndi.binary_dilation(interior, structure=FACE) & ~interior
    ring_labels = lab.data[ring]
    # the wall still dominates the interior boundary ...
    assert (ring_labels == ClassId.COMPACTA).mean() > 0.8
    # ... but the ostia connect the spongiosa to the outside world
    assert not _interior_is_wall_enclosed(lab)


def test_zero_ostium_radius_seals_the_shell():
    spec = replace(default_spec(64, seed=2), ostium_radius_voxels=0.0)
    _, lab = generate(spec)
    interior = np.isin(lab.data, (int(ClassId.VENTRICLE), int(ClassId.LACUNARY)))
    ring = ndi.binary_dilation(interior, structure=FACE) & ~interior
    assert (lab.data[ring] == ClassId.COMPACTA).all()
    assert _interior_is_wall_enclosed(lab)


def test_cohort_interiors_stay_open():
    for _, lab in split_cohort(default_spec(64, seed=3), 3):
        assert not _interior_is_wall_enclosed(lab)


def test_split_cohort_base_case_and_determinism():
    spec = default_spec(48, seed=9)
    cohort = split_cohort(spec, 3)
    assert len(cohort) == 3
    base_att, base_lab = generate(spec)
    assert np.array_equal(cohort[0][0].data, base_att.data)
    assert np.array_equal(cohort[0][1].data, base_lab.data)
    again = split_cohort(spec, 3)
    for (a1, l1), (a2, l2) in zip(cohort, again):
        assert np.array_equal(a1.data, a2.data)
        assert np.array_equal(l1.data, l2.data)


def test_split_cohort_samples_differ():
    cohort = split_cohort(default_spec(48, seed=1), 3)
    counts = [np.bincount(lab.data.ravel(), minlength=6) for _, lab in cohort]
    for i in range(3):
        for j in range(i + 1, 3):
            assert not np.array_equal(counts[i], counts[j])
        # jitter must not lose any class
        assert (counts[i] > 0).all()


def test_split_cohort_rejects_empty():
    with pytest.raises(SpecError):
        split_cohort(default_spec(48), 0)


def test_ellipsoid_must_fit():
    with pytest.raises(SpecError):
        Ellipsoid((0.5, 0.5, 0.5), (0.6, 0.2, 0.2))
    with pytest.raises(SpecError):
        Ellipsoid((0.9, 0.5, 0.5), (0.2, 0.2, 0.2))


def test_cylinder_validation():
    with pytest.raises(SpecError):
        CylinderZ((0.5, 0.5), 0.0, (0.2, 0.8))
    with pytest.raises(SpecError):
        CylinderZ((0.5, 0.5), 0.1, (0.8, 0.2))


def test_spec_validation():
    with pytest.raises(SpecError):
        replace(default_spec(48), attenuation=(0.1, 0.1, 0.5, 0.7, 0.8, 0.2))
    with pytest.raises(SpecError):
        replace(default_spec(48), compacta_shell_voxels=30)
    with pytest.raises(SpecError):
        replace(default_spec(48), lacuna_radius_voxels=(4.0, 40.0))
    with pytest.raises(SpecError):
        replace(default_spec(48), noise_sigma=-0.1)
    with pytest.raises(SpecError):
        replace(default_spec(48), attenuation=(0.1, 0.3, 0.5, 0.7, 1.9, 0.2))


@pytest.mark.parametrize("key,value", [
    ("seed", 5.9), ("seed", "5"), ("seed", True), ("dims", [48.7, 48, 48]),
    ("dims", ["48", 48, 48]), ("lacunae_count", [4, 6.0]), ("lacunae_count", [True, 6]),
], ids=["seed_float", "seed_text", "seed_bool", "dims_float", "dims_text",
        "lacunae_float", "lacunae_bool"])
def test_integer_fields_reject_other_types(key, value):
    d = {**spec_to_dict(default_spec(48)), key: value}
    with pytest.raises(SpecError, match=key):
        spec_from_dict(d)
    with pytest.raises(SpecError, match=key):
        replace(default_spec(48), **{key: value})


def test_spec_json_round_trip():
    # default specs and jittered cohort samples: plain JSON values, read back equal
    for n, seed, i in itertools.product((48, 64, 96, 128), range(3), range(3)):
        spec = default_spec(n, seed) if i == 0 else _jittered(default_spec(n, seed), i)
        d = spec_to_dict(spec)
        assert d == json.loads(json.dumps(d))
        assert spec_from_dict(d) == spec
    spec = default_spec(48, seed=4)
    att1, _ = generate(spec)
    att2, _ = generate(spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))))
    assert np.array_equal(att1.data, att2.data)


def test_spec_from_dict_rejects_unknown_keys():
    d = spec_to_dict(default_spec(48))
    d["extra"] = 1
    with pytest.raises(SpecError):
        spec_from_dict(d)


def test_spec_from_dict_fills_defaults():
    spec = spec_from_dict({"dims": [48, 48, 48], "seed": 5})
    assert spec.dims == (48, 48, 48)
    assert spec.seed == 5
    assert spec.attenuation == PhantomSpec().attenuation


# --- slab-wise generation against the whole-volume formulas ----------------

def reference_generate(spec: PhantomSpec):
    """``generate`` written with whole-volume float64 arrays: the oracle for the box-wise code."""
    nx, ny, nz = spec.dims
    zz, yy, xx = np.ogrid[0:nz, 0:ny, 0:nx]
    ux, uy, uz = (xx + 0.5) / nx, (yy + 0.5) / ny, (zz + 0.5) / nz

    def ellipsoid(e):
        (cx, cy, cz), (sx, sy, sz) = e.center, e.semi_axes
        return ((ux - cx) / sx) ** 2 + ((uy - cy) / sy) ** 2 + ((uz - cz) / sz) ** 2 <= 1.0

    labels = np.zeros((nz, ny, nx), dtype=np.uint8)
    labels[ellipsoid(spec.atrium)] = ClassId.ATRIUM
    (bx, by), (zlo, zhi) = spec.bulbus.center_xy, spec.bulbus.z_range
    rx, ry = (spec.bulbus.radius * min(nx, ny) / m for m in (nx, ny))
    disk = ((ux - bx) / rx) ** 2 + ((uy - by) / ry) ** 2 <= 1.0
    labels[disk & (uz >= zlo) & (uz <= zhi)] = ClassId.BULBUS
    outer = ellipsoid(spec.ventricle)
    inner = ellipsoid(spec.ventricle.shrunk(spec.compacta_shell_voxels, spec.dims))
    shell = outer & ~inner
    labels[shell] = ClassId.COMPACTA
    labels[inner] = ClassId.VENTRICLE
    dims = np.asarray(spec.dims, dtype=float)
    a = np.asarray(spec.ventricle.center) * dims - 0.5
    r = spec.ostium_radius_voxels
    for target in (spec.atrium.center, (bx, by, min(max(spec.ventricle.center[2], zlo), zhi))):
        d = np.asarray(target, dtype=float) * dims - 0.5 - a
        dd = float(d @ d)
        if r <= 0 or dd == 0.0:
            continue
        t = np.clip(((xx - a[0]) * d[0] + (yy - a[1]) * d[1] + (zz - a[2]) * d[2]) / dd, 0.0, 1.0)
        dist2 = ((xx - a[0] - t * d[0]) ** 2 + (yy - a[1] - t * d[1]) ** 2
                 + (zz - a[2] - t * d[2]) ** 2)
        labels[shell & (dist2 <= r * r)] = ClassId.VENTRICLE
    rng = rng_for_seed(spec.seed)
    phantom._place_lacunae(labels, spec, rng)
    atten = np.asarray(spec.attenuation, dtype=np.float32)[labels]
    if spec.noise_sigma > 0:
        atten = atten + rng.normal(0.0, spec.noise_sigma, size=atten.shape).astype(np.float32)
    np.clip(atten, spec.window[0], spec.window[1], out=atten)
    return atten, labels


@settings(max_examples=12, deadline=None)
@given(n=st.integers(48, 72), seed=st.integers(0, 2 ** 16), sample=st.integers(0, 2),
       ostium=st.one_of(st.none(), st.floats(0.0, 14.0)),
       dims=st.one_of(st.none(), st.tuples(*[st.integers(48, 72)] * 3)))
def test_generate_equals_the_whole_volume_formulas(n, seed, sample, ostium, dims):
    spec = default_spec(n, seed)
    if dims is not None:
        # lacuna sizes and counts of the shortest extent, so that they still fit
        spec = replace(default_spec(min(dims), seed), dims=dims)
    if sample:
        spec = phantom._jittered(spec, sample)
    if ostium is not None:
        spec = replace(spec, ostium_radius_voxels=ostium)
    atten, labels = generate(spec)
    want_atten, want_labels = reference_generate(spec)
    assert labels.data.tobytes() == want_labels.tobytes()
    assert atten.data.tobytes() == want_atten.tobytes()


def test_plane_by_plane_noise_equals_one_draw():
    one = rng_for_seed(9).normal(0.0, 0.03, size=(11, 7, 5)).astype(np.float32)
    rng = rng_for_seed(9)
    planes = np.stack([rng.normal(0.0, 0.03, size=(7, 5)).astype(np.float32)
                       for _ in range(11)])
    assert one.tobytes() == planes.tobytes()


def test_generate_allocates_little_beyond_its_outputs():
    spec = default_spec(96)
    generate(spec)  # any first-call allocations stay out of the measurement
    tracemalloc.start()
    try:
        atten, labels = generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = atten.data.nbytes + labels.data.nbytes
    # the outputs plus one primitive's box at a time; one float64 volume alone is 1.6 outputs
    assert peak <= 1.1 * out
