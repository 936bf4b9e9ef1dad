"""Filter primitives against directly computed oracles."""

import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.ndimage as ndi
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tomoseg.core import LabelVolume
from tomoseg.errors import ConfigError, ShapeError
from tomoseg.filters import (
    FilterConfig,
    correlate1d,
    fill_holes_3d,
    gaussian_weights,
    hist_equalize,
    hole_voxels,
    median_stack,
    mode_fuse,
    reflect_pad,
    unsharp_mask,
    unsharp_stack,
    uniform_filter1d,
)


def reference_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Direct 2D convolution with scipy's Gaussian at truncate 3, symmetric padding."""
    radius = int(3.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k1 = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    k1 /= k1.sum()
    k2 = np.outer(k1, k1)
    padded = np.pad(img.astype(np.float64), radius, mode="symmetric")
    out = np.empty(img.shape, dtype=np.float64)
    for i in range(img.shape[0]):
        for j in range(img.shape[1]):
            out[i, j] = (padded[i:i + 2 * radius + 1, j:j + 2 * radius + 1] * k2).sum()
    return out


def bits(x):
    """The raw bits of a float array, so -0.0 and every rounding count."""
    return x.view(f"u{x.itemsize}")


def assert_same_bits(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(bits(got), bits(expected))


# slice stacks whose axes run from one pixel to past the sigma = 8 radius of 24,
# dense or mostly zeros (as a masked stage's crop is)
u16_stacks = st.tuples(st.integers(1, 3), st.integers(1, 30), st.integers(1, 30)).flatmap(
    lambda shape: st.one_of(arrays(np.uint16, shape),
                            arrays(np.uint16, shape, fill=st.just(0))))


def intensity(stack):
    """The feature bank's first map: u16 rescaled to [0, 1] in float32."""
    return stack.astype(np.float32) / np.float32(65535.0)


@settings(max_examples=150, deadline=None)
@given(u16_stacks, st.sampled_from([1.0, 2.0, 4.0, 8.0]), st.sampled_from([0, 1]),
       st.sampled_from([1, 2]))
def test_gaussian_pass_matches_scipy(stack, sigma, order, axis):
    f = intensity(stack)
    expected = ndi.gaussian_filter1d(f, sigma, axis, order, mode="reflect", truncate=3.0)
    assert_same_bits(correlate1d(f, gaussian_weights(sigma, order), axis), expected)


@settings(max_examples=150, deadline=None)
@given(u16_stacks, st.integers(0, 6), st.booleans(), st.sampled_from([0, 1, 2]), st.data())
def test_correlate1d_matches_scipy(stack, radius, symmetric, axis, data):
    w = data.draw(arrays(np.float64, 2 * radius + 1,
                         elements=st.floats(-2.0, 2.0, allow_subnormal=False)))
    w = w + w[::-1] if symmetric else w - w[::-1]
    for x in (intensity(stack), stack.astype(np.float64) - 30000.0):
        assert_same_bits(correlate1d(x, w, axis), ndi.correlate1d(x, w, axis, mode="reflect"))


@settings(max_examples=100, deadline=None)
@given(u16_stacks, st.floats(0.3, 6.0), st.floats(0.0, 3.0))
def test_unsharp_matches_scipy(stack, sigma, amount):
    f = stack.astype(np.float64)
    blur = ndi.gaussian_filter(f, (0, sigma, sigma), mode="reflect", truncate=3.0)
    expected = np.rint(np.clip(f + amount * (f - blur), 0, 65535)).astype(np.uint16)
    assert np.array_equal(unsharp_stack(stack, sigma, amount), expected)


@settings(max_examples=150, deadline=None)
@given(u16_stacks, st.sampled_from([1, 3, 5, 7]), st.sampled_from([1, 2]))
def test_uniform_filter1d_matches_scipy(stack, size, axis):
    f = intensity(stack)
    for x in (f, f * f, stack.astype(np.float64) / 7.0 - 3000.0):
        assert_same_bits(uniform_filter1d(x, size, axis),
                         ndi.uniform_filter1d(x, size, axis, mode="reflect"))


@settings(max_examples=150, deadline=None)
@given(u16_stacks, st.integers(1, 3))
def test_median_matches_scipy(stack, radius):
    size = 2 * radius + 1
    expected = ndi.median_filter(stack, size=(1, size, size), mode="reflect")
    assert np.array_equal(median_stack(stack, radius), expected)


@given(st.integers(1, 9), st.integers(0, 30))
def test_reflect_pad_repeats_the_mirrored_line(n, r):
    line = np.arange(n, dtype=np.float64)
    period = np.concatenate([line, line[::-1]])  # d c b a | a b c d | d c b a ...
    expected = np.take(period, np.arange(-r, n + r), mode="wrap")
    assert np.array_equal(reflect_pad(line, r), expected)


def test_bank_and_filters_run_with_scipy_unimportable(monkeypatch):
    from tomoseg.core import GrayVolume
    from tomoseg.pipeline import StageConfig, _apply_filters, run_full
    from tomoseg.segmodel import N_FEATURES, SoftmaxModel, stack_features

    for name in [m for m in sys.modules if m.split(".")[0] == "scipy"]:
        monkeypatch.setitem(sys.modules, name, None)  # "import scipy..." now raises
    stack = np.arange(2 * 26 * 27, dtype=np.uint16).reshape(2, 26, 27)
    stack_features(stack)
    unsharp_stack(stack)
    unsharp_mask(stack[0])
    median_stack(stack)
    _apply_filters(stack, StageConfig(stage=2, preprocess=("unsharp", "median", "histeq")))
    cube = np.full((5, 5, 5), 2, dtype=np.uint8)
    cube[2, 2, 2] = 0
    assert (fill_holes_3d(_vol(cube)).data == 2).all()
    # a bright shell around a dark core: stage 1 (Ventricle above 0.35 of full
    # scale) leaves the core as a hole that its fill closes, and the binary
    # stages run inside the Ventricle mask it makes
    z, y, x = np.ogrid[:12, :12, :12]
    r2 = (z - 5.5) ** 2 + (y - 5.5) ** 2 + (x - 5.5) ** 2
    gray = np.where((r2 <= 25) & (r2 > 4), 50000, 5000).astype(np.uint16)

    def threshold(k, positive, cut):  # label ``positive`` above cut, else Background
        w = np.zeros((k, N_FEATURES + 1))
        w[1:, -1] = -1000.0
        w[positive, [0, -1]] = 400.0, -400.0 * cut
        return SoftmaxModel(n_classes=k, weights=w)

    models = {1: threshold(4, 2, 0.35), 2: threshold(2, 1, 0.9), 3: threshold(2, 1, 0.6)}
    final, report = run_full(models, GrayVolume(gray, 5.0))
    assert report["label_histograms"]["stage1"]["Background"] == (r2 > 25).sum()
    assert (final.data[r2 <= 4] != 0).all()


def test_filter_stacks_equal_their_slices():
    rng = np.random.Generator(np.random.Philox(9))
    stack = rng.integers(0, 65536, (4, 11, 13), dtype=np.uint16)
    sharp = unsharp_stack(stack, 1.5, 0.8)
    med = median_stack(stack, 2)
    for i, img in enumerate(stack):
        assert np.array_equal(sharp[i], unsharp_mask(img, 1.5, 0.8))
        assert np.array_equal(med[i], median_stack(img[np.newaxis], 2)[0])
    for fn in (unsharp_stack, median_stack):
        with pytest.raises(ShapeError):
            fn(stack[0])


def test_correlate_and_box_reject_what_they_do_not_compute():
    x = np.zeros((4, 5))
    for w in (np.ones(4), np.ones(6), np.array([1.0, 2.0, 3.0])):  # even, or neither
        with pytest.raises(ConfigError):
            correlate1d(x, w)
    with pytest.raises(ConfigError):
        uniform_filter1d(x, 4)


def test_unsharp_constant_unchanged():
    img = np.full((9, 7), 4321, dtype=np.uint16)
    assert np.array_equal(unsharp_mask(img, 2.0, 1.0), img)


def test_unsharp_amount_zero_is_identity():
    rng = np.random.Generator(np.random.Philox(1))
    img = rng.integers(0, 65536, (11, 13), dtype=np.uint16)
    assert np.array_equal(unsharp_mask(img, 1.5, 0.0), img)


def test_unsharp_matches_direct_kernel_evaluation():
    rng = np.random.Generator(np.random.Philox(2))
    img = rng.integers(0, 65536, (12, 10), dtype=np.uint16)
    for sigma, amount in ((1.0, 1.0), (2.0, 0.5), (1.5, 2.0)):
        expected = img + amount * (img - reference_blur(img, sigma))
        expected = np.rint(np.clip(expected, 0, 65535)).astype(np.uint16)
        assert np.array_equal(unsharp_mask(img, sigma, amount), expected)


def test_unsharp_spike_response():
    img = np.full((9, 9), 1000, dtype=np.uint16)
    img[4, 4] = 11000
    out = unsharp_mask(img, 1.0, 1.0)
    assert out[4, 4] > img[4, 4]
    for di, dj in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        assert out[4 + di, 4 + dj] < img[4 + di, 4 + dj]


def test_unsharp_kernel_truncation():
    # scipy's radius int(3*sigma + 0.5): sigma=1.5 keeps 11 taps
    assert gaussian_weights(1.0).size == 7
    assert gaussian_weights(1.5).size == 11
    assert gaussian_weights(2.0).size == 13
    assert gaussian_weights(1.0).sum() == pytest.approx(1.0)


def test_median_constant_unchanged():
    img = np.full((1, 8, 8), 77, dtype=np.uint16)
    assert np.array_equal(median_stack(img, 1), img)


def test_median_removes_salt_pixel():
    img = np.full((1, 7, 7), 100, dtype=np.uint16)
    img[0, 3, 3] = 65535
    out = median_stack(img, 1)
    assert out[0, 3, 3] == 100
    assert (out == 100).all()


def test_median_idempotent_on_cleaned_sparse_noise():
    rng = np.random.Generator(np.random.Philox(3))
    img = np.zeros((1, 32, 32), dtype=np.uint16)
    # isolated salt, pairwise far apart, dies in one pass
    for _ in range(10):
        i, j = rng.integers(2, 30, size=2)
        img[0, i, j] = 65535
    once = median_stack(img, 1)
    twice = median_stack(once, 1)
    assert np.array_equal(once, twice)


def test_histeq_constant_unchanged():
    img = np.full((6, 6), 12345, dtype=np.uint16)
    assert np.array_equal(hist_equalize(img, 256), img)


def test_histeq_two_level_example():
    img = np.zeros((4, 4), dtype=np.uint16)
    img[:2] = 0
    img[2:] = 65535
    out = hist_equalize(img, 256)
    lo, hi = np.unique(out)
    assert abs(int(lo) - 32767) <= 1
    assert hi == 65535


def test_histeq_entropy_does_not_decrease():
    def entropy(img):
        h = np.bincount(((img.astype(np.int64) * 64) >> 16).ravel(), minlength=64)
        p = h[h > 0] / img.size
        return float(-(p * np.log(p)).sum())

    for seed in range(3):
        r = np.random.Generator(np.random.Philox(seed))
        skewed = ((r.random((48, 48)) ** 3) * 65535).astype(np.uint16)
        assert entropy(hist_equalize(skewed, 256)) >= entropy(skewed) - 1e-9


def test_histeq_rejects_bad_bins():
    with pytest.raises(ConfigError):
        hist_equalize(np.zeros((4, 4), dtype=np.uint16), 1)


def test_filters_preserve_shape_and_reject_3d():
    rng = np.random.Generator(np.random.Philox(5))
    img = rng.integers(0, 65536, (9, 14), dtype=np.uint16)
    for fn in (lambda i: unsharp_mask(i, 1.0, 1.0),
               lambda i: hist_equalize(i, 64)):
        out = fn(img)
        assert out.shape == img.shape
        assert out.dtype == np.uint16
        with pytest.raises(ShapeError):
            fn(np.zeros((2, 3, 4), dtype=np.uint16))


def test_filter_config_validation():
    FilterConfig()
    with pytest.raises(ConfigError):
        FilterConfig(unsharp_sigma=0.0)
    with pytest.raises(ConfigError):
        FilterConfig(unsharp_amount=-1.0)
    with pytest.raises(ConfigError):
        FilterConfig(median_radius=0)
    with pytest.raises(ConfigError):
        FilterConfig(histeq_bins=1)


def _vol(arr):
    return LabelVolume(np.asarray(arr, dtype=np.uint8))


def test_mode_fuse_exhaustive_triples():
    ids = np.arange(6, dtype=np.uint8)
    a = np.broadcast_to(ids[:, None, None], (6, 6, 6))
    b = np.broadcast_to(ids[None, :, None], (6, 6, 6))
    c = np.broadcast_to(ids[None, None, :], (6, 6, 6))
    fused = mode_fuse(_vol(a), _vol(b), _vol(c))
    for i in range(6):
        for j in range(6):
            for k in range(6):
                counts = Counter((i, j, k)).most_common()
                expected = counts[0][0] if counts[0][1] >= 2 else i
                assert fused.data[i, j, k] == expected, (i, j, k)


def test_mode_fuse_permutation_invariant_with_majority():
    rng = np.random.Generator(np.random.Philox(6))
    a = rng.integers(0, 6, (5, 5, 5), dtype=np.uint8)
    b = a.copy()
    c = rng.integers(0, 6, (5, 5, 5), dtype=np.uint8)
    ref = mode_fuse(_vol(a), _vol(b), _vol(c)).data
    for pa, pb, pc in ((a, c, b), (c, a, b), (b, c, a)):
        assert np.array_equal(mode_fuse(_vol(pa), _vol(pb), _vol(pc)).data, ref)


def test_mode_fuse_validation():
    a = _vol(np.zeros((2, 2, 2)))
    bad = _vol(np.zeros((2, 2, 3)))
    with pytest.raises(ShapeError):
        mode_fuse(a, a, bad)


def test_fill_holes_single_interior_voxel():
    arr = np.full((5, 5, 5), 2, dtype=np.uint8)
    arr[2, 2, 2] = 0
    out = fill_holes_3d(_vol(arr))
    assert out.data[2, 2, 2] == 2
    assert (out.data == 2).all()


def test_fill_holes_leaves_border_tunnel():
    arr = np.full((5, 5, 5), 2, dtype=np.uint8)
    arr[2, 2, :3] = 0  # tunnel from x=0 border to the center
    out = fill_holes_3d(_vol(arr))
    assert np.array_equal(out.data, arr)


def test_fill_holes_majority_and_tie_rule():
    arr = np.full((3, 3, 3), 4, dtype=np.uint8)
    arr[1, 1, 1] = 0
    # 3 neighbors of class 2, 3 of class 4: tie goes to the lower id
    arr[0, 1, 1] = arr[2, 1, 1] = arr[1, 0, 1] = 2
    out = fill_holes_3d(_vol(arr))
    assert out.data[1, 1, 1] == 2
    # 4 of class 5 vs 2 of class 2: majority wins
    arr2 = np.full((3, 3, 3), 5, dtype=np.uint8)
    arr2[1, 1, 1] = 0
    arr2[0, 1, 1] = arr2[2, 1, 1] = 2
    assert fill_holes_3d(_vol(arr2)).data[1, 1, 1] == 5


def test_fill_holes_fills_large_cavity_inward():
    arr = np.full((9, 9, 9), 3, dtype=np.uint8)
    arr[2:7, 2:7, 2:7] = 0
    out = fill_holes_3d(_vol(arr))
    assert (out.data == 3).all()


def test_fill_holes_idempotent_and_preserving_on_random_volumes():
    for seed in range(5):
        rng = np.random.Generator(np.random.Philox(seed))
        arr = rng.integers(0, 6, (12, 12, 12), dtype=np.uint8)
        vol = _vol(arr)
        once = fill_holes_3d(vol)
        twice = fill_holes_3d(once)
        assert np.array_equal(once.data, twice.data)
        nonbg = arr != 0
        assert np.array_equal(once.data[nonbg], arr[nonbg])


# --- the hole fill against the whole-volume sweep it replaced --------------

_FACE_SHIFTS = ((0, 0, 1), (0, 0, -1), (0, 1, 0), (0, -1, 0), (1, 0, 0), (-1, 0, 0))


def _neighbor_class_counts(labels, n_classes):
    counts = np.zeros((n_classes,) + labels.shape, dtype=np.uint8)
    for dz, dy, dx in _FACE_SHIFTS:
        src = labels[
            slice(max(dz, 0), labels.shape[0] + min(dz, 0)),
            slice(max(dy, 0), labels.shape[1] + min(dy, 0)),
            slice(max(dx, 0), labels.shape[2] + min(dx, 0)),
        ]
        dst = (
            slice(max(-dz, 0), labels.shape[0] + min(-dz, 0)),
            slice(max(-dy, 0), labels.shape[1] + min(-dy, 0)),
            slice(max(-dx, 0), labels.shape[2] + min(-dx, 0)),
        )
        for cid in range(1, n_classes):
            counts[cid][dst] += src == cid
    return counts


def reference_fill_holes(labels: LabelVolume) -> np.ndarray:
    """The fill as one whole-volume sweep per layer of hole depth: every voxel's
    face-neighbour class counts, then the unreached Background voxels that have
    a labelled neighbour take the argmax (ties to the lower class id)."""
    n_classes = len(labels.class_names)
    cur = labels.data.copy()
    bg = cur == 0
    comp, _ = ndi.label(bg, structure=ndi.generate_binary_structure(3, 1))
    border_ids = np.unique(np.concatenate([
        comp[0].ravel(), comp[-1].ravel(),
        comp[:, 0].ravel(), comp[:, -1].ravel(),
        comp[:, :, 0].ravel(), comp[:, :, -1].ravel(),
    ]))
    border_ids = border_ids[border_ids != 0]
    holes = bg & ~np.isin(comp, border_ids)
    while holes.any():
        counts = _neighbor_class_counts(cur, n_classes)[1:]
        filled = counts.max(axis=0) > 0
        best = (np.argmax(counts, axis=0) + 1).astype(np.uint8)
        update = holes & filled
        if not update.any():
            break
        cur[update] = best[update]
        holes &= ~update
    return cur


def _classes(k):
    return tuple(f"class{i}" for i in range(k))


@st.composite
def holey_volumes(draw):
    """Random labels over 2-6 classes with 5-60% Background, in cubes of 1-3
    voxels so that some holes are several voxels deep."""
    k = draw(st.integers(2, 6))
    shape = tuple(draw(st.integers(1, 14)) for _ in range(3))
    share = draw(st.floats(0.05, 0.60))
    block = draw(st.integers(1, 3))
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2 ** 32 - 1))))
    coarse = tuple(-(-n // block) for n in shape)
    labels = rng.integers(1, k, coarse, dtype=np.uint8)
    labels[rng.random(coarse) < share] = 0
    for axis in range(3):
        labels = np.repeat(labels, block, axis=axis)
    return LabelVolume(labels[:shape[0], :shape[1], :shape[2]], class_names=_classes(k))


@settings(max_examples=300, deadline=None)
@given(holey_volumes())
def test_fill_holes_equals_whole_volume_sweep(vol):
    assert fill_holes_3d(vol).data.tobytes() == reference_fill_holes(vol).tobytes()


def test_fill_holes_nested_shells():
    arr = np.zeros((17, 17, 17), dtype=np.uint8)  # open Background around the shells
    arr[1:16, 1:16, 1:16] = 1
    arr[2:15, 2:15, 2:15] = 0  # the outer hole
    arr[6:11, 6:11, 6:11] = 3  # a shell inside the outer hole's bounding box
    arr[7:10, 7:10, 7:10] = 0  # the inner hole
    vol = LabelVolume(arr, class_names=_classes(4))
    out = fill_holes_3d(vol).data
    assert out.tobytes() == reference_fill_holes(vol).tobytes()
    assert (out[7:10, 7:10, 7:10] == 3).all()
    assert (out[1:16, 1:16, 1:16] != 0).all() and (out[0] == 0).all()


def test_fill_holes_deep_cavity_with_tied_lining():
    arr = np.full((12, 12, 12), 5, dtype=np.uint8)
    arr[[1, 10]] = 2  # the cavity's z-lining is class 2, the rest class 5
    arr[2:10, 2:10, 2:10] = 0  # 8 voxels across: four layers deep
    vol = LabelVolume(arr, class_names=_classes(6))
    out = fill_holes_3d(vol).data
    assert out.tobytes() == reference_fill_holes(vol).tobytes()
    assert (out != 0).all()
    # where the z- and y-linings meet, each layer sees one 2 and one 5: ties go to 2
    assert [out[i, i, 5] for i in (2, 3, 4)] == [2, 2, 2]


@pytest.mark.parametrize("shape", [(1, 9, 9), (9, 1, 9), (9, 9, 1)])
def test_fill_holes_one_voxel_thick(shape):
    arr = np.random.Generator(np.random.Philox(3)).integers(0, 4, shape, dtype=np.uint8)
    vol = LabelVolume(arr, class_names=_classes(4))
    out = fill_holes_3d(vol).data
    assert out.tobytes() == arr.tobytes() == reference_fill_holes(vol).tobytes()


def test_fill_holes_memory_per_voxel():
    """The run search, one label copy and the int32 hole indices: at most 8
    bytes a voxel on a 96^3 volume with a cavity and scattered one-voxel
    holes, and at most 10 when a 92^3 cavity fills nearly all of it."""
    n = 96
    z, y, x = np.ogrid[:n, :n, :n]
    r = np.sqrt((z - 47.5) ** 2 + (y - 47.5) ** 2 + (x - 47.5) ** 2)
    shells = ((r < 44).astype(np.uint8) + (r < 30) + (r < 20)).astype(np.uint8)
    shells[r < 10] = 0
    shells[(np.random.Generator(np.random.Philox(5)).random(shells.shape) < 0.02) & (r < 40)] = 0
    cavity = np.ones((n, n, n), dtype=np.uint8)
    cavity[2:-2, 2:-2, 2:-2] = 0
    for arr, filled, bound in ((shells, r < 40, 8), (cavity, np.s_[:], 10)):
        vol = LabelVolume(arr, class_names=_classes(4))
        fill_holes_3d(vol)  # any first-call allocations stay out of the measurement
        tracemalloc.start()
        try:
            out = fill_holes_3d(vol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (out.data[filled] != 0).all()
        assert peak <= bound * arr.size, f"{peak / arr.size:.1f} bytes a voxel"


# --- the hole finder against scipy's component labelling --------------------

def labelled_holes(data: np.ndarray) -> np.ndarray:
    """Flat indices of the Background voxels in 6-connected components of
    Background that touch no face, from ``scipy.ndimage.label``."""
    comp, _ = ndi.label(data == 0, structure=ndi.generate_binary_structure(3, 1))
    open_ids = np.unique(np.concatenate([comp.take((0, -1), axis=a).ravel() for a in range(3)]))
    return np.flatnonzero((comp != 0) & ~np.isin(comp, open_ids))


@st.composite
def background_volumes(draw):
    """Axes of 1-16 voxels; Background on 5-60% of cubes of 1-3 voxels (1 makes
    speckle), or on none or all of the volume."""
    shape = tuple(draw(st.integers(1, 16)) for _ in range(3))
    share = draw(st.one_of(st.floats(0.05, 0.60), st.sampled_from([0.0, 1.0])))
    block = draw(st.integers(1, 3))
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2 ** 32 - 1))))
    coarse = tuple(-(-n // block) for n in shape)
    data = (rng.random(coarse) >= share).astype(np.uint8)
    for axis in range(3):
        data = np.repeat(data, block, axis=axis)
    return np.ascontiguousarray(data[:shape[0], :shape[1], :shape[2]])


@settings(max_examples=300, deadline=None)
@given(background_volumes())
def test_hole_voxels_equal_the_labelled_holes(data):
    assert np.array_equal(hole_voxels(data), labelled_holes(data))


@pytest.mark.parametrize("opened", [True, False])
def test_hole_voxels_follow_a_serpentine_tunnel(opened):
    """A one-voxel tunnel winds along y through 21 columns, each voxel of a
    column its own run: the search needs about 840 levels to cross it."""
    n = 43
    data = np.ones((3, n, n), dtype=np.uint8)
    data[1, 1:-1, 1:-1:2] = 0  # the columns x = 1, 3, ..., 41
    data[1, -2, 2:-2:4] = 0  # joined at alternate ends
    data[1, 1, 4:-2:4] = 0
    tunnel = np.flatnonzero(data == 0)
    data[1, 0, 1] = 0 if opened else 1  # the tunnel's one opening, onto the y = 0 face
    holes = hole_voxels(data)
    assert np.array_equal(holes, labelled_holes(data))
    assert np.array_equal(holes, [] if opened else tunnel)

