"""Feature bank, softmax gradient, training protocol, and prediction tests."""

import json
import os
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.ndimage as ndi
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tomoseg import pipeline, segmodel
from tomoseg.core import GrayVolume, LabelVolume, ViewAxis, extract_slice, restack, \
    rng_for_seed, view_stack
from tomoseg.errors import ConfigError, FormatError, ModelError, ShapeError, TrainingError
from tomoseg.filters import unsharp_mask
from tomoseg.pipeline import StageConfig, predict_view
from tomoseg.segmodel import N_FEATURES, SoftmaxModel, TrainProtocol, extract_features, \
    load_model, predict_slice, save_model, softmax_loss_and_grad, stack_features, train

F_INTENSITY = 0
F_GRAD1 = 5
F_STD = 7


def gray(data):
    return GrayVolume(np.asarray(data, dtype=np.uint16), 5.0)


def labels(data):
    return LabelVolume(np.asarray(data, dtype=np.uint8), 5.0)


def two_class_stack(nz=12, ny=20, nx=20, lo=8000, hi=50000, seed=7):
    """Axial slices alternate between two intensity levels; every selected
    slice (stride 3) is single-valued so the task is linearly separable."""
    rng = rng_for_seed(seed, 991)
    vol = np.empty((nz, ny, nx), dtype=np.uint16)
    lab = np.zeros((nz, ny, nx), dtype=np.uint8)
    for z in range(nz):
        bright = (z // 3) % 2 == 1
        base = hi if bright else lo
        vol[z] = base + rng.integers(-400, 401, size=(ny, nx))
        lab[z] = 1 if bright else 0
    return gray(vol), labels(lab)


def reference_features(img):
    """The feature bank as 2D filters on one slice, the form it was first written in."""
    f = img.astype(np.float32) / np.float32(65535.0)
    feats = [f]
    for sigma in (1.0, 2.0, 4.0, 8.0):
        feats.append(ndi.gaussian_filter(f, sigma, mode="reflect", truncate=3.0))
    for sigma in (1.0, 2.0):
        gx = ndi.gaussian_filter(f, sigma, order=(0, 1), mode="reflect", truncate=3.0)
        gy = ndi.gaussian_filter(f, sigma, order=(1, 0), mode="reflect", truncate=3.0)
        feats.append(np.hypot(gx, gy))
    mean = ndi.uniform_filter(f, 5, mode="reflect")
    mean_sq = ndi.uniform_filter(f * f, 5, mode="reflect")
    feats.append(np.sqrt(np.clip(mean_sq - mean * mean, 0.0, None)))
    feats.append(ndi.median_filter(img, size=5, mode="reflect").astype(np.float32)
                 / np.float32(65535.0))
    return np.stack(feats, axis=-1)


def reference_validation_iou(model, feats, gts, val_pairs):
    """Validation IoU as first written: softmax, argmax and class masks slice by slice."""
    if not val_pairs:
        return float("nan")
    k = model.n_classes
    inter = np.zeros(k, dtype=np.int64)
    union = np.zeros(k, dtype=np.int64)
    gt_count = np.zeros(k, dtype=np.int64)
    for s, j in val_pairs:
        pred = model.predict_proba(feats[s][j].reshape(-1, N_FEATURES)).argmax(axis=1)
        gt = gts[s][j].ravel()
        ok = gt >= 0
        pred, gt = pred[ok], gt[ok]
        for c in range(k):
            p, g = pred == c, gt == c
            inter[c] += int((p & g).sum())
            union[c] += int((p | g).sum())
            gt_count[c] += int(g.sum())
    seen = gt_count > 0
    if not seen.any():
        return float("nan")
    per_class = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
    return float(per_class[seen].mean())


def reference_loss_and_grad(weights, x, y, l2=0.0):
    """The loss as first written: a concatenated bias column and axis=1 reductions."""
    weights = np.asarray(weights, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    n = x.shape[0]
    xb = np.concatenate([x, np.ones((n, 1))], axis=1)
    logits = xb @ weights.T
    logits -= logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(logits).sum(axis=1))
    loss = float((log_z - logits[np.arange(n), y]).mean())
    probs = np.exp(logits - log_z[:, None])
    probs[np.arange(n), y] -= 1.0
    grad = probs.T @ xb / n
    reg = weights.copy()
    reg[:, -1] = 0.0
    loss += 0.5 * l2 * float((reg * reg).sum())
    grad += l2 * reg
    return loss, grad


def reference_train(model, stacks, proto):
    """train() as first written: per step a tile copy, class weights, Generator.choice
    and the concatenating loss; the slice split and validation are train()'s own."""
    class_subset = model.class_subset
    id_to_idx = np.full(256, -1, dtype=np.int64)
    for idx, cid in enumerate(class_subset):
        id_to_idx[cid] = idx
    stride = proto.slice_stride
    feats = [stack_features(view_stack(g.data, ViewAxis.XY)[::stride]) for g, _ in stacks]
    gts = [id_to_idx[view_stack(lab.data, ViewAxis.XY)[::stride]] for _, lab in stacks]
    pairs = [(s, j) for s, gt in enumerate(gts) for j in range(len(gt))]
    order = segmodel.rng_for_seed(proto.seed, 101).permutation(len(pairs))
    n_val = int(round(proto.val_fraction * len(pairs))) if len(pairs) > 1 else 0
    val_pairs = [pairs[i] for i in order[:n_val]]
    train_pairs = [pairs[i] for i in order[n_val:]]
    val_x, val_y = segmodel._validation_set(feats, gts, val_pairs)
    weights = model.weights.copy()
    m = np.zeros_like(weights)
    v = np.zeros_like(weights)
    step = 0
    sampler = segmodel.rng_for_seed(proto.seed, 202)
    history = []
    for epoch in range(model.epochs):
        losses = []
        for s, j in train_pairs:
            gt_idx = gts[s][j]
            h, w = gt_idx.shape
            th, tw = min(proto.tile_size, h), min(proto.tile_size, w)
            for _ in range(proto.tiles_per_slice_per_epoch):
                ti = int(sampler.integers(0, h - th + 1))
                tj = int(sampler.integers(0, w - tw + 1))
                x = feats[s][j, ti:ti + th, tj:tj + tw].reshape(-1, N_FEATURES)
                y = gt_idx[ti:ti + th, tj:tj + tw].ravel()
                valid = np.flatnonzero(y >= 0)
                if valid.size == 0:
                    continue
                x, y = x[valid], y[valid]
                if model.batch_size and model.batch_size < y.size:
                    freq = np.bincount(y, minlength=len(class_subset)).astype(np.float64)
                    cls_w = np.zeros(len(class_subset))
                    nz = freq > 0
                    cls_w[nz] = np.minimum(freq[nz].max() / freq[nz], 10.0)
                    p = cls_w[y]
                    p /= p.sum()
                    pick = sampler.choice(y.size, size=model.batch_size, replace=True, p=p)
                    x, y = x[pick], y[pick]
                loss, grad = reference_loss_and_grad(weights, x, y, model.l2)
                step += 1
                m = 0.9 * m + (1 - 0.9) * grad
                v = 0.999 * v + (1 - 0.999) * grad * grad
                m_hat = m / (1 - 0.9 ** step)
                v_hat = v / (1 - 0.999 ** step)
                weights -= model.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
                losses.append(loss)
        fitted = replace(model, weights=weights.copy())
        history.append({
            "epoch": epoch + 1,
            "train_loss": float(np.mean(losses)) if losses else float("nan"),
            "val_iou": segmodel._validation_iou(fitted, val_x, val_y),
        })
    return replace(model, weights=weights.copy()), history


# uniforms that fall exactly on steps of an equally weighted cdf over 2**k pixels
TIED_UNIFORMS = (0.5, 0.25, 0.75, 0.125)


def tied_sampler(seed, *stream):
    """``rng_for_seed(seed, *stream)`` with its next four uniforms set to TIED_UNIFORMS.

    Philox hands out a buffer of four 64-bit words before it advances its
    counter, and ``random()`` maps a word x to (x >> 11) / 2**53.
    """
    gen = rng_for_seed(seed, *stream)
    state = gen.bit_generator.state
    state["buffer"] = np.array([int(u * 2 ** 53) << 11 for u in TIED_UNIFORMS],
                               dtype=np.uint64)
    state["buffer_pos"] = 0
    gen.bit_generator.state = state
    return gen


def threshold_model(subset=(0, 1), cut=0.5, scale=200.0):
    """Hand-built model that classifies on raw intensity alone."""
    w = np.zeros((len(subset), N_FEATURES + 1))
    w[1, F_INTENSITY] = scale
    w[1, -1] = -scale * cut
    return SoftmaxModel(class_subset=subset, weights=w)


class TestFeatures:
    def test_shape_and_dtype(self):
        img = rng_for_seed(0, 1).integers(0, 65536, size=(20, 31)).astype(np.uint16)
        f = extract_features(img)
        assert f.shape == (20, 31, N_FEATURES)
        assert f.dtype == np.float32
        assert np.isfinite(f).all()

    def test_constant_image(self):
        img = np.full((16, 16), 30000, dtype=np.uint16)
        f = extract_features(img)
        c = 30000 / 65535.0
        for k in (0, 1, 2, 3, 4, 8):  # intensity, blurs, median
            assert np.allclose(f[..., k], c, atol=1e-5)
        for k in (5, 6, 7):  # gradient magnitudes, local std
            assert np.allclose(f[..., k], 0.0, atol=1e-6)

    def test_step_edge_gradient_peaks_on_edge(self):
        img = np.zeros((24, 24), dtype=np.uint16)
        img[:, 12:] = 60000
        f = extract_features(img)
        col_mean = f[..., F_GRAD1].mean(axis=0)
        # finite-difference oracle: the jump sits between columns 11 and 12
        assert int(np.argmax(col_mean)) in (11, 12)
        assert col_mean[[11, 12]].min() > 3 * col_mean[[0, 23]].max()

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            extract_features(np.zeros((4, 4, 4), dtype=np.uint16))

    @pytest.mark.parametrize("axis", list(ViewAxis))
    def test_stack_features_equal_per_slice_features(self, axis):
        vol = gray(rng_for_seed(16, 42).integers(0, 65536, size=(7, 10, 13)))
        got = stack_features(view_stack(vol.data, axis))
        for i in range(view_stack(vol.data, axis).shape[0]):
            img = extract_slice(vol, axis, i)
            assert np.array_equal(got[i], extract_features(img))
            assert np.array_equal(got[i], reference_features(img))

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(st.integers(1, 3), st.integers(1, 30), st.integers(1, 30)).flatmap(
        lambda shape: st.one_of(arrays(np.uint16, shape),
                                arrays(np.uint16, shape, fill=st.just(0)))))
    def test_stack_features_match_scipy_bank(self, stack):
        got = stack_features(stack)
        for i, img in enumerate(stack):
            assert np.array_equal(got[i].view(np.uint32), reference_features(img).view(np.uint32))

    def test_stack_features_write_into_one_bank(self):
        stack = rng_for_seed(17, 42).integers(0, 65536, size=(6, 40, 56)).astype(np.uint16)
        stack_features(stack)  # scipy's import stays out of the measurement
        tracemalloc.start()
        try:
            stack_features(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the bank plus at most five float32 maps in flight (a list and np.stack took 22)
        assert peak <= (N_FEATURES + 5) * stack.size * 4

    def test_stack_features_reject_non_stacks(self):
        for shape in ((4, 4), (2, 4, 4, 1)):
            with pytest.raises(ShapeError):
                stack_features(np.zeros(shape, dtype=np.uint16))


def design(x):
    """The float64 design matrix of a feature matrix: a column of ones appended."""
    return np.concatenate([x, np.ones((len(x), 1))], axis=1, dtype=np.float64)


class TestGradient:
    def test_matches_central_finite_differences(self):
        rng = rng_for_seed(0, 42)
        w = rng.normal(0.0, 0.5, size=(3, N_FEATURES + 1))
        x = design(rng.uniform(0.0, 1.0, size=(5, N_FEATURES)))
        y = np.array([0, 1, 2, 0, 1])
        _, grad = softmax_loss_and_grad(w, x, y, l2=0.01)
        h = 1e-6
        fd = np.zeros_like(w)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                wp, wm = w.copy(), w.copy()
                wp[i, j] += h
                wm[i, j] -= h
                lp, _ = softmax_loss_and_grad(wp, x, y, l2=0.01)
                lm, _ = softmax_loss_and_grad(wm, x, y, l2=0.01)
                fd[i, j] = (lp - lm) / (2 * h)
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel.max() < 1e-4

    def test_l2_adds_exactly_the_penalty_gradient(self):
        rng = rng_for_seed(1, 42)
        w = rng.normal(size=(4, N_FEATURES + 1))
        x = design(rng.uniform(size=(8, N_FEATURES)))
        y = rng.integers(0, 4, size=8)
        l0, g0 = softmax_loss_and_grad(w, x, y, l2=0.0)
        l1, g1 = softmax_loss_and_grad(w, x, y, l2=0.5)
        reg = w.copy()
        reg[:, -1] = 0.0
        assert l1 == pytest.approx(l0 + 0.25 * (reg * reg).sum(), rel=1e-12)
        assert np.allclose(g1 - g0, 0.5 * reg, atol=1e-12)


    @pytest.mark.parametrize("k", [2, 4, 6, 9])
    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e8], ids=["unit", "large", "huge"])
    def test_bit_equal_to_concatenating_formula(self, k, scale):
        rng = rng_for_seed(k, 43)
        for trial in range(40):
            w = rng.normal(0.0, scale, size=(k, N_FEATURES + 1))
            n = int(rng.integers(1, 1100))
            x = rng.uniform(0.0, 1.0, size=(n, N_FEATURES))
            if trial % 2:
                x = x.astype(np.float32)  # the dtype train() passes
            y = rng.integers(0, k, size=n)
            want_loss, want_grad = reference_loss_and_grad(w, x, y, l2=1e-4)
            loss, grad = softmax_loss_and_grad(w, design(x), y, l2=1e-4)
            assert loss == want_loss
            assert np.array_equal(grad, want_grad)

    def test_rejects_a_matrix_of_the_other_form(self):
        w = np.zeros((3, N_FEATURES + 1))
        y = np.zeros(4, dtype=np.int64)
        with pytest.raises(ShapeError, match="design matrix of 10 columns"):
            softmax_loss_and_grad(w, np.ones((4, N_FEATURES)), y)


def generator_state(gen):
    return json.dumps(gen.bit_generator.state, sort_keys=True, default=np.ndarray.tolist)


def assert_samples_like_generator_choice(p, size, seed):
    """Given the cdf numpy builds from p, the sampler makes Generator.choice's
    picks and leaves the generator in the same state."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    want_gen = rng_for_seed(seed, 202)
    want = want_gen.choice(p.size, size=size, replace=True, p=p)
    got_gen = rng_for_seed(seed, 202)
    got = segmodel._choice(got_gen, cdf, size)
    assert np.array_equal(got, want)
    assert generator_state(got_gen) == generator_state(want_gen)


class TestChoice:
    """The sorted-key inverse-CDF sampler against Generator.choice."""

    @settings(max_examples=200, deadline=None)
    @given(class_w=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=1,
                            max_size=6),
           size=st.integers(1, 600), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_same_picks_and_state_as_generator_choice(self, class_w, size, seed, data):
        n = data.draw(st.integers(1, 400), label="n")  # size > n happens as well
        y = data.draw(arrays(np.int64, n, elements=st.integers(0, len(class_w) - 1)))
        p = np.asarray(class_w)[y]
        if not p.any():
            p[0] = 1.0
        p /= p.sum()  # a zero weight repeats a cdf value
        assert_samples_like_generator_choice(p, size, seed)

    @pytest.mark.parametrize("p", [
        [1.0],
        [0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0],
        [0.0] * 40 + [1.0] + [0.0] * 40 + [3.0] + [0.0] * 40,
        [1e-9] * 300 + [1.0],
    ], ids=["single_row", "leading_zeros", "trailing_zeros", "long_runs", "one_heavy_row"])
    def test_single_rows_and_repeated_cdf_values(self, p):
        p = np.asarray(p)
        assert_samples_like_generator_choice(p / p.sum(), 500, 17)

    def test_uniform_on_a_cdf_step_picks_as_generator_choice(self):
        p = np.full(256, 1 / 256)
        cdf = p.cumsum()
        cdf /= cdf[-1]
        assert set(TIED_UNIFORMS) <= set(cdf)
        want = tied_sampler(0, 202).choice(256, size=8, replace=True, p=p)
        got = segmodel._choice(tied_sampler(0, 202), cdf, 8)
        assert np.array_equal(got, want)
        assert want[:4].tolist() == [128, 64, 192, 32]  # the first pixel past each step


class TestSoftmaxModel:
    def test_probabilities_sum_to_one(self):
        rng = rng_for_seed(2, 42)
        model = SoftmaxModel(class_subset=(0, 1, 2, 3),
                             weights=rng.normal(size=(4, N_FEATURES + 1)) * 3)
        p = model.predict_proba(rng.uniform(size=(50, N_FEATURES)))
        assert p.shape == (50, 4)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-6)
        assert (p >= 0).all()

    def test_zero_weights_predict_lowest_index(self):
        img = rng_for_seed(3, 42).integers(0, 65536, size=(9, 9)).astype(np.uint16)
        assert (predict_slice(SoftmaxModel(class_subset=(0, 1, 2)), img) == 0).all()
        # ties resolve to the first listed class id, not literal zero
        assert (predict_slice(SoftmaxModel(class_subset=(2, 5)), img) == 2).all()
        model = SoftmaxModel(class_subset=(3, 1, 0))
        assert (model.predict_index(extract_features(img).reshape(-1, N_FEATURES)) == 0).all()
        vol = gray(np.stack([img] * 4))
        for axis in ViewAxis:
            assert (predict_view(STAGE1, model, vol, axis, jobs=2).data == 3).all()

    def test_nan_weights_raise(self):
        w = np.zeros((2, N_FEATURES + 1))
        w[0, 0] = np.nan
        model = SoftmaxModel(class_subset=(0, 1), weights=w)
        with pytest.raises(ModelError):
            predict_slice(model, np.zeros((4, 4), dtype=np.uint16))
        with pytest.raises(ModelError):
            model.logits(np.zeros((2, N_FEATURES)))
        with pytest.raises(ModelError):
            predict_view(STAGE1, model, gray(np.zeros((3, 4, 5))), ViewAxis.XY, jobs=2)

    def test_validation(self):
        with pytest.raises(ConfigError):
            SoftmaxModel(class_subset=())
        with pytest.raises(ConfigError):
            SoftmaxModel(class_subset=(0, 0))
        for ids in ((0, 6), (0, 300), (-1, 1), (0, 1.7), (0, True), (0, "01"), (0, None)):
            with pytest.raises(ConfigError, match="class_subset"):
                SoftmaxModel(class_subset=ids)
        assert SoftmaxModel(class_subset=np.arange(6, dtype=np.uint8)).class_subset == \
            (0, 1, 2, 3, 4, 5)
        with pytest.raises(ConfigError):
            SoftmaxModel(learning_rate=0.0)
        with pytest.raises(ConfigError):
            SoftmaxModel(epochs=-1)
        with pytest.raises(ConfigError):
            SoftmaxModel(l2=-0.1)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ConfigError, match="learning_rate"):
                SoftmaxModel(learning_rate=bad)
            with pytest.raises(ConfigError, match="l2"):
                SoftmaxModel(l2=bad)
        with pytest.raises(FormatError):
            SoftmaxModel(class_subset=(0, 1), weights=np.zeros((3, N_FEATURES + 1)))

    def test_protocol_validation(self):
        with pytest.raises(ConfigError):
            TrainProtocol(tile_size=0)
        with pytest.raises(ConfigError):
            TrainProtocol(slice_stride=0)
        with pytest.raises(ConfigError):
            TrainProtocol(val_fraction=0.0)
        with pytest.raises(ConfigError):
            TrainProtocol(val_fraction=1.0)
        with pytest.raises(ConfigError):
            TrainProtocol(tiles_per_slice_per_epoch=0)


# bounded so that every logit stays finite: |x . w + b| <= 9e6 + 1e3
_FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


class TestLogits:
    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 6), data=st.data())
    def test_argmax_of_logits_is_argmax_of_probabilities(self, k, data):
        weights = data.draw(arrays(np.float64, (k, N_FEATURES + 1), elements=_FINITE))
        x = data.draw(arrays(np.float64, (8, N_FEATURES), elements=_FINITE))
        model = SoftmaxModel(class_subset=tuple(range(k)), weights=weights)
        pick = model.logits(x).argmax(axis=1)
        p = model.predict_proba(x)
        assert np.array_equal(model.predict_index(x), pick)
        # the top logit maps to exp(0) = 1, no other to more, before one shared division:
        # it keeps the top probability, though rounding may let a near tie share it
        assert np.array_equal(p[np.arange(len(x)), pick], p.max(axis=1))
        # so wherever the top probability is unique both rules pick the same index
        unique = (p == p.max(axis=1, keepdims=True)).sum(axis=1) == 1
        assert np.array_equal(pick[unique], p.argmax(axis=1)[unique])

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_blocked_logits_equal_whole(self, k, seed):
        # predict_index scores rows in blocks; the product must not depend on the cut
        rng = np.random.Generator(np.random.Philox(seed))
        model = SoftmaxModel(class_subset=tuple(range(k)),
                             weights=rng.normal(size=(k, N_FEATURES + 1)))
        x = rng.random((3 * segmodel._PREDICT_ROWS + 5, N_FEATURES), dtype=np.float32)
        whole = model.logits(x)
        cuts = np.sort(rng.choice(np.arange(2, len(x) - 1), 6, replace=False))
        cuts = cuts[np.diff(cuts, prepend=0) >= 2]
        for block, want in zip(np.split(x, cuts), np.split(whole, cuts)):
            assert np.array_equal(model.logits(block).view(np.uint64), want.view(np.uint64))
        assert np.array_equal(model.predict_index(x), whole.argmax(axis=1))

    def test_logits_keep_apart_what_the_softmax_rounds_together(self):
        weights = np.zeros((2, N_FEATURES + 1))
        weights[1, -1] = 1e-220  # class 1 scores higher by far less than one ulp of 1.0
        model = SoftmaxModel(class_subset=(0, 1), weights=weights)
        x = np.ones((3, N_FEATURES))
        assert (model.predict_proba(x) == 0.5).all()
        assert (model.predict_index(x) == 1).all()


class TestTrain:
    def test_separable_data_converges(self):
        stack = two_class_stack()
        model = SoftmaxModel(class_subset=(0, 1), learning_rate=0.05, epochs=60,
                             batch_size=512)
        proto = TrainProtocol(tile_size=20, seed=5)
        fitted, history = train(model, [stack], proto)
        assert len(history) == 60
        assert history[-1]["train_loss"] < 0.1
        assert history[-1]["val_iou"] > 0.95

    def test_heldout_accuracy_after_separable_training(self):
        stack = two_class_stack(seed=7)
        model = SoftmaxModel(class_subset=(0, 1), learning_rate=0.05, epochs=60,
                             batch_size=512)
        fitted, _ = train(model, [stack], TrainProtocol(tile_size=20, seed=5))
        rng = rng_for_seed(8, 42)
        for value, want in ((8000, 0), (50000, 1)):
            img = (value + rng.integers(-400, 401, size=(20, 20))).astype(np.uint16)
            pred = predict_slice(fitted, img)
            assert (pred == want).mean() > 0.95

    def test_zero_epochs_leaves_model_unchanged(self):
        stack = two_class_stack()
        model = SoftmaxModel(class_subset=(0, 1), epochs=0)
        fitted, history = train(model, [stack], TrainProtocol(tile_size=20, seed=5))
        assert history == []
        assert np.array_equal(fitted.weights, model.weights)

    def test_missing_class_named_in_error(self):
        vol = np.full((3, 10, 10), 8000, dtype=np.uint16)
        lab = np.zeros((3, 10, 10), dtype=np.uint8)
        lab[1] = 1  # slice 1 is skipped by the stride-3 schedule
        model = SoftmaxModel(class_subset=(0, 1), epochs=1)
        with pytest.raises(TrainingError, match="class 1"):
            train(model, [(gray(vol), labels(lab))], TrainProtocol(tile_size=10, seed=0))

    def test_missing_class_fails_before_the_feature_bank(self, monkeypatch):
        calls = []

        def counted(stack):
            calls.append(len(stack))
            return stack_features(stack)

        monkeypatch.setattr(segmodel, "stack_features", counted)
        vol = np.full((3, 10, 10), 8000, dtype=np.uint16)
        lab = np.zeros((3, 10, 10), dtype=np.uint8)
        lab[1] = 1  # slice 1 is skipped by the stride-3 schedule
        model = SoftmaxModel(class_subset=(0, 1), epochs=1)
        with pytest.raises(TrainingError, match="class 1"):
            train(model, [(gray(vol), labels(lab))], TrainProtocol(tile_size=10, seed=0))
        assert calls == []
        train(model, [two_class_stack()], TrainProtocol(tile_size=20, seed=0))
        assert calls == [4]

    def test_stride_controls_slice_selection(self):
        vol = np.full((4, 10, 10), 8000, dtype=np.uint16)
        vol[1:3] = 50000
        lab = np.zeros((4, 10, 10), dtype=np.uint8)
        lab[1:3] = 1  # class 1 lives only on slices 1 and 2
        stack = (gray(vol), labels(lab))
        model = SoftmaxModel(class_subset=(0, 1), epochs=1, learning_rate=0.05)
        with pytest.raises(TrainingError, match="class 1"):
            train(model, [stack], TrainProtocol(tile_size=10, slice_stride=3, seed=0))
        fitted, history = train(model, [stack],
                                TrainProtocol(tile_size=10, slice_stride=1, seed=0))
        assert len(history) == 1

    def test_determinism(self):
        stack = two_class_stack()
        def run(seed):
            model = SoftmaxModel(class_subset=(0, 1), learning_rate=0.05, epochs=8,
                                 batch_size=256)
            return train(model, [stack], TrainProtocol(tile_size=16, seed=seed))
        m1, h1 = run(3)
        m2, h2 = run(3)
        assert np.array_equal(m1.weights, m2.weights)
        assert h1 == h2
        m3, _ = run(4)
        assert not np.array_equal(m1.weights, m3.weights)

    def test_full_batch_loss_nonincreasing(self):
        rng = rng_for_seed(11, 42)
        vol = np.empty((3, 16, 16), dtype=np.uint16)
        vol[0] = 8000 + rng.integers(-400, 401, size=(16, 16))
        vol[0, :, 8:] = 50000 + rng.integers(-400, 401, size=(16, 8))
        vol[1:] = 8000
        lab = np.zeros((3, 16, 16), dtype=np.uint8)
        lab[0, :, 8:] = 1
        model = SoftmaxModel(class_subset=(0, 1), learning_rate=0.01, epochs=25,
                             batch_size=0)
        _, history = train(model, [(gray(vol), labels(lab))],
                           TrainProtocol(tile_size=16, seed=0))
        losses = [h["train_loss"] for h in history]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_history_is_well_formed(self):
        stack = two_class_stack()
        model = SoftmaxModel(class_subset=(0, 1), epochs=5, learning_rate=0.01)
        _, history = train(model, [stack], TrainProtocol(tile_size=20, seed=1))
        assert [h["epoch"] for h in history] == [1, 2, 3, 4, 5]
        for h in history:
            assert np.isfinite(h["train_loss"])
            assert 0.0 <= h["val_iou"] <= 1.0

    def test_input_validation(self):
        stack = two_class_stack()
        model = SoftmaxModel(class_subset=(0, 1), epochs=1)
        with pytest.raises(TrainingError):
            train(model, [], TrainProtocol(tile_size=20))
        bad = (stack[0], labels(np.zeros((2, 20, 20), dtype=np.uint8)))
        with pytest.raises(ShapeError):
            train(model, [bad], TrainProtocol(tile_size=20))


def blocky_stack(n_classes, nz=12, n=24, seed=21):
    """Labels in random 4x4 blocks, gray levels per class with overlapping noise."""
    rng = rng_for_seed(seed, 993)
    lab = rng.integers(0, n_classes, size=(nz, n // 4, n // 4)).repeat(4, 1).repeat(4, 2)
    vol = 9000 + 12000 * lab + rng.integers(-7000, 7001, size=lab.shape)
    return vol, lab


def train_with_reference(monkeypatch, model, stacks, proto):
    """Train with the per-slice reference in place of the gathered validation matrix."""
    seen = []

    def slices(feats, gts, val_pairs):
        seen.append([gts[s][j] for s, j in val_pairs])
        return (feats, gts, val_pairs), None

    with monkeypatch.context() as m:
        m.setattr(segmodel, "_validation_set", slices)
        m.setattr(segmodel, "_validation_iou",
                  lambda fitted, val, _: reference_validation_iou(fitted, *val))
        return train(model, stacks, proto), seen[0]


def assert_same_training(got, want):
    (m_got, h_got), (m_want, h_want) = got, want
    assert np.array_equal(m_got.weights, m_want.weights)
    assert [h["epoch"] for h in h_got] == [h["epoch"] for h in h_want]
    for key in ("train_loss", "val_iou"):  # exact; NaN only where the reference has NaN
        np.testing.assert_array_equal([h[key] for h in h_got], [h[key] for h in h_want])


class TestValidationMatchesPerSliceReference:
    """train() histories and weights equal those of the per-slice validation IoU."""

    KW = {"learning_rate": 0.05, "epochs": 6, "batch_size": 256}

    def test_four_classes(self, monkeypatch):
        vol, lab = blocky_stack(4)
        model = SoftmaxModel(class_subset=(0, 1, 2, 3), **self.KW)
        stacks = [(gray(vol), labels(lab))]
        proto = TrainProtocol(tile_size=16, slice_stride=1, seed=3)
        want, _ = train_with_reference(monkeypatch, model, stacks, proto)
        got = train(model, stacks, proto)
        assert_same_training(got, want)
        ious = {h["val_iou"] for h in got[1]}
        assert len(ious) > 1 and all(0.0 < v < 1.0 for v in ious)

    def test_masked_binary_with_excluded_pixels(self, monkeypatch):
        vol, lab = blocky_stack(2, seed=22)
        lab[:, :, :8] = pipeline.EXCLUDED_LABEL  # outside class_subset: never scored
        vol2, lab2 = blocky_stack(2, nz=9, seed=23)
        lab2[:, 16:, :] = pipeline.EXCLUDED_LABEL
        model = SoftmaxModel(class_subset=(0, 1), **self.KW)
        stacks = [(gray(vol), labels(lab)), (gray(vol2), labels(lab2))]
        proto = TrainProtocol(tile_size=16, slice_stride=1, seed=4)
        want, val_slices = train_with_reference(monkeypatch, model, stacks, proto)
        assert any((gt < 0).any() for gt in val_slices)
        assert_same_training(train(model, stacks, proto), want)

    def test_validation_slices_lack_a_class(self, monkeypatch):
        vol, lab = blocky_stack(2, nz=10, seed=24)
        proto = TrainProtocol(tile_size=16, slice_stride=1, seed=5)
        # the slice split of train(): the first round(0.3 * 10) of this permutation validate
        first_training_slice = rng_for_seed(proto.seed, 101).permutation(10)[3]
        lab[first_training_slice, 8:16, 8:16] = 2
        vol[first_training_slice, 8:16, 8:16] = 60000
        model = SoftmaxModel(class_subset=(0, 1, 2), **self.KW)
        stacks = [(gray(vol), labels(lab))]
        want, val_slices = train_with_reference(monkeypatch, model, stacks, proto)
        assert val_slices and not any((gt == 2).any() for gt in val_slices)
        assert_same_training(train(model, stacks, proto), want)

    def test_single_selected_slice_has_no_validation(self, monkeypatch):
        vol, lab = blocky_stack(2, nz=3, seed=25)  # stride 3 selects slice 0 alone
        model = SoftmaxModel(class_subset=(0, 1), **self.KW)
        stacks = [(gray(vol), labels(lab))]
        proto = TrainProtocol(tile_size=16, seed=6)
        want, val_slices = train_with_reference(monkeypatch, model, stacks, proto)
        got = train(model, stacks, proto)
        assert val_slices == []
        assert_same_training(got, want)
        assert all(np.isnan(h["val_iou"]) for h in got[1])


class TestInlineValidation:
    """Each epoch is scored on the calling thread right after its steps."""

    MODEL = SoftmaxModel(class_subset=(0, 1, 2, 3), learning_rate=0.05, epochs=6,
                         batch_size=256)
    PROTO = TrainProtocol(tile_size=16, slice_stride=1, seed=3)

    def stacks(self):
        vol, lab = blocky_stack(4)
        return [(gray(vol), labels(lab))]

    def test_every_epoch_is_scored_on_the_main_thread(self, monkeypatch):
        vol, lab = blocky_stack(4, nz=30, n=64)  # 9 validation slices: 36864 pixels
        sizes, threads = [], []
        score = segmodel._validation_iou

        def recorded(fitted, val_x, val_y):
            sizes.append(len(val_y))
            threads.append((threading.current_thread(), threading.active_count()))
            return score(fitted, val_x, val_y)

        monkeypatch.setattr(segmodel, "_validation_iou", recorded)
        before = threading.active_count()
        _, history = train(replace(self.MODEL, epochs=3), [(gray(vol), labels(lab))],
                           self.PROTO)
        assert sizes[0] >= 1 << 15
        assert threads == [(threading.main_thread(), before)] * 3
        assert threading.active_count() == before
        assert [h["epoch"] for h in history] == [1, 2, 3]

    def test_a_failing_validation_raises_from_train(self, monkeypatch):
        def failing(*_):
            raise ModelError("model weights are not finite")

        monkeypatch.setattr(segmodel, "_validation_iou", failing)
        with pytest.raises(ModelError):
            train(self.MODEL, self.stacks(), self.PROTO)

    def test_a_failing_validation_stops_training_in_its_epoch(self, monkeypatch):
        steps, scored = [], []

        def counted(*args, **kwargs):
            steps.append(1)
            return softmax_loss_and_grad(*args, **kwargs)

        score = segmodel._validation_iou

        def failing_second(*args):
            scored.append(1)
            if len(scored) == 2:
                raise ModelError("model weights are not finite")
            return score(*args)

        monkeypatch.setattr(segmodel, "softmax_loss_and_grad", counted)
        monkeypatch.setattr(segmodel, "_validation_iou", failing_second)
        with pytest.raises(ModelError):
            train(self.MODEL, self.stacks(), self.PROTO)
        assert len(steps) == 2 * 8  # epoch 2 of 8 steps each, and no step of epoch 3
        assert len(scored) == 2


def plain_split(n_pairs, proto):
    """The seeded 70/30 split as first written: permutation order, cut at round(0.3 n)."""
    order = rng_for_seed(proto.seed, 101).permutation(n_pairs)
    n_val = int(round(proto.val_fraction * n_pairs))
    return order[n_val:].tolist(), order[:n_val].tolist()


class TestClassKeepingSplit:
    def test_a_split_that_keeps_every_class_is_the_seeded_split(self):
        _, lab = blocky_stack(3, nz=10, seed=26)
        proto = TrainProtocol(slice_stride=1, seed=5)
        fit, val = segmodel._split([lab.astype(np.int64)], proto, (0, 1, 2))
        want_fit, want_val = plain_split(10, proto)
        assert [j for _, j in fit] == want_fit and [j for _, j in val] == want_val

    def test_validation_slices_move_until_every_class_trains(self):
        proto = TrainProtocol(slice_stride=1, seed=5)
        want_fit, want_val = plain_split(10, proto)
        gt = np.zeros((10, 8, 8), dtype=np.int64)
        gt[want_val[0], :2] = 1  # class 1 only on the first-drawn validation slice
        gt[want_val[1:], 4:] = 2  # class 2 only on the other validation slices
        gt[:, 0, 0] = -1  # excluded pixels hold no class
        fit, val = segmodel._split([gt], proto, (0, 1, 2))
        # class 1 takes its only slice; class 2 the last-drawn slice that holds it
        assert [j for _, j in fit] == [want_val[-1], want_val[0]] + want_fit
        assert [j for _, j in val] == want_val[1:-1]

    def test_training_on_the_moved_split(self):
        vol, lab = blocky_stack(2, nz=10, seed=27)
        proto = TrainProtocol(tile_size=16, slice_stride=1, seed=5)
        _, want_val = plain_split(10, proto)
        lab[:] = 0
        vol[:] = 9000
        lab[want_val[0], 8:16, 8:16] = 1
        vol[want_val[0], 8:16, 8:16] = 60000
        model = SoftmaxModel(class_subset=(0, 1), learning_rate=0.05, epochs=3, batch_size=64)
        fitted, history = train(model, [(gray(vol), labels(lab))], proto)
        assert len(history) == 3 and np.isfinite(fitted.weights).all()

    def test_a_class_no_selected_slice_holds_still_raises(self):
        gt = np.zeros((4, 8, 8), dtype=np.int64)
        with pytest.raises(TrainingError, match="class 1 absent"):
            segmodel._split([gt], TrainProtocol(slice_stride=1), (0, 1))


def checker_stack(nz=6, n=16, seed=31):
    """Two classes in a 4x4 checkerboard: every slice holds 128 pixels of each."""
    rng = rng_for_seed(seed, 994)
    r, c = np.indices((n, n))
    lab = np.broadcast_to((r // 4 + c // 4) % 2, (nz, n, n))
    vol = 9000 + 30000 * lab + rng.integers(-7000, 7001, size=lab.shape)
    return vol, lab


class TestTrainMatchesPerTileReference:
    """train() weights and histories equal those of the per-tile loop it replaced."""

    @pytest.mark.parametrize("n_classes,batch_size,proto_kw", [
        (4, 256, {"tile_size": 24}),
        (4, 64, {"tile_size": 10}),
        (3, 0, {"tile_size": 24}),
        (3, 0, {"tile_size": 10}),
        (2, 24 * 20, {"tile_size": 24}),
        (2, 5000, {"tile_size": 10}),
        (4, 128, {"tile_size": 24, "tiles_per_slice_per_epoch": 2}),
        (4, 32, {"tile_size": 8, "tiles_per_slice_per_epoch": 2}),
    ], ids=["whole_slice", "sub_slice", "batch_0", "batch_0_sub_slice",
            "batch_is_valid_count", "batch_over_valid_count", "two_tiles",
            "two_sub_slice_tiles"])
    def test_unmasked(self, n_classes, batch_size, proto_kw):
        vol, lab = blocky_stack(n_classes)
        vol, lab = vol[:, :, :20], lab[:, :, :20]  # 24 x 20 slices: tile origins differ
        model = SoftmaxModel(class_subset=tuple(range(n_classes)), learning_rate=0.05,
                             epochs=4, batch_size=batch_size)
        stacks = [(gray(vol), labels(lab))]
        proto = TrainProtocol(slice_stride=1, seed=7, **proto_kw)
        assert_same_training(train(model, stacks, proto), reference_train(model, stacks, proto))

    @pytest.mark.parametrize("tile_size", [24, 12], ids=["whole_slice", "sub_slice"])
    def test_masked_binary_with_excluded_pixels(self, tile_size):
        vol, lab = blocky_stack(2, seed=22)
        lab[:, :, :8] = pipeline.EXCLUDED_LABEL
        vol2, lab2 = blocky_stack(2, nz=9, seed=23)
        lab2[:, 12:, :] = pipeline.EXCLUDED_LABEL  # a 12-pixel tile at row 12 has none to draw
        model = SoftmaxModel(class_subset=(0, 1), learning_rate=0.05, epochs=4, batch_size=256)
        stacks = [(gray(vol), labels(lab)), (gray(vol2), labels(lab2))]
        proto = TrainProtocol(tile_size=tile_size, slice_stride=1, seed=8)
        assert_same_training(train(model, stacks, proto), reference_train(model, stacks, proto))

    def test_uniforms_on_cdf_steps(self, monkeypatch):
        def sampler_with_ties(seed, *stream):
            return (tied_sampler if stream == (202,) else rng_for_seed)(seed, *stream)

        monkeypatch.setattr(segmodel, "rng_for_seed", sampler_with_ties)
        vol, lab = checker_stack()  # 256 equally weighted pixels: cdf steps of 1/256
        model = SoftmaxModel(class_subset=(0, 1), learning_rate=0.05, epochs=2, batch_size=64)
        stacks = [(gray(vol), labels(lab))]
        proto = TrainProtocol(tile_size=16, slice_stride=1, seed=9)
        assert_same_training(train(model, stacks, proto), reference_train(model, stacks, proto))


STAGE1 = StageConfig(stage=1)


def count_forks(monkeypatch, in_child=lambda: None) -> list:
    """A list that grows by one a fork; ``in_child`` runs first in every forked child."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if not pid:
            in_child()
        forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestPredictVolume:
    """The slab-wise view predictor against per-slice prediction."""

    def test_constant_volume(self):
        vol = gray(np.full((6, 7, 8), 20000, dtype=np.uint16))
        out = predict_view(STAGE1, threshold_model(), vol, ViewAxis.XY)
        assert out.dims == vol.dims
        assert out.voxel_size_um == vol.voxel_size_um
        assert (out.data == 0).all()

    def test_matches_slice_by_slice_prediction(self):
        rng = rng_for_seed(12, 42)
        vol = gray(rng.integers(0, 65536, size=(5, 9, 11)).astype(np.uint16))
        model = threshold_model()
        got = predict_view(STAGE1, model, vol, ViewAxis.XZ)
        manual = restack(
            [predict_slice(model, extract_slice(vol, ViewAxis.XZ, i)) for i in range(9)],
            ViewAxis.XZ)
        assert np.array_equal(got.data, manual)

    @pytest.mark.parametrize("stage", [1, 2])
    @pytest.mark.parametrize("axis,per_slab", [(ViewAxis.XY, 2), (ViewAxis.XZ, 4),
                                               (ViewAxis.YZ, 4)])
    def test_ragged_slabs_match_per_slice_reference(self, monkeypatch, stage, axis, per_slab):
        rng = rng_for_seed(17, 42)
        vol = gray(rng.integers(0, 65536, size=(5, 9, 11)).astype(np.uint16))
        weights = rng.normal(0.0, 2.0, size=(2, N_FEATURES + 1))
        weights[1, F_INTENSITY] += 40.0  # every feature counts, intensity decides most
        weights[1, -1] -= 20.0
        model = SoftmaxModel(class_subset=(0, 1), weights=weights)
        cfg = StageConfig(stage=stage)
        n, a, b = view_stack(vol.data, axis).shape
        monkeypatch.setattr(pipeline, "_VOXELS_PER_SLAB", per_slab * a * b)
        slabs = []

        def counted(stack, **kw):
            slabs.append(len(stack))
            return stack_features(stack, **kw)

        monkeypatch.setattr(pipeline, "stack_features", counted)
        got = predict_view(cfg, model, vol, axis, jobs=1).data
        assert slabs == [per_slab, per_slab, n - 2 * per_slab]
        assert n - 2 * per_slab not in (0, per_slab)
        # a forked child labels the last slab, and counts it in its own copy of ``slabs``
        forks = count_forks(monkeypatch)
        assert np.array_equal(predict_view(cfg, model, vol, axis, jobs=2).data, got)
        assert len(forks) == 1 and slabs[3:] == [per_slab, per_slab]
        assert_no_child_left()

        def prepared(img):
            if "unsharp" in cfg.preprocess:
                fc = cfg.filter_config
                return unsharp_mask(img, fc.unsharp_sigma, fc.unsharp_amount)
            return img

        manual = restack([predict_slice(model, prepared(extract_slice(vol, axis, i)))
                          for i in range(n)], axis)
        assert np.array_equal(got, manual)
        assert 0 < got.mean() < 1

    def test_picked_slices_match_full_prediction(self, monkeypatch):
        rng = rng_for_seed(18, 42)
        vol = gray(rng.integers(0, 65536, size=(6, 9, 11)).astype(np.uint16))
        model = threshold_model()
        full = predict_view(STAGE1, model, vol, ViewAxis.XZ).data
        monkeypatch.setattr(pipeline, "_VOXELS_PER_SLAB", 1)  # five picked slabs: 3 here, 2 forked
        forks = count_forks(monkeypatch)
        part = predict_view(STAGE1, model, vol, ViewAxis.XZ, jobs=2, slices=slice(2, 7)).data
        assert len(forks) == 1
        assert_no_child_left()
        full_xz, part_xz = view_stack(full, ViewAxis.XZ), view_stack(part, ViewAxis.XZ)
        assert np.array_equal(part_xz[2:7], full_xz[2:7])
        assert not part_xz[:2].any() and not part_xz[7:].any()
        assert full_xz[:2].any()

    def test_per_pixel_rule_is_view_independent(self):
        vol3 = np.full((12, 12, 12), 10000, dtype=np.uint16)
        vol3[:, :, 6:] = 60000
        vol = gray(vol3)
        model = threshold_model()
        outs = [predict_view(STAGE1, model, vol, ax).data for ax in ViewAxis]
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])
        assert (outs[0][:, :, :6] == 0).all() and (outs[0][:, :, 6:] == 1).all()

    def test_parallel_prediction_matches_serial(self, monkeypatch):
        rng = rng_for_seed(13, 42)
        vol = gray(rng.integers(0, 65536, size=(8, 8, 8)).astype(np.uint16))
        monkeypatch.setattr(pipeline, "_VOXELS_PER_SLAB", 2 * 8 * 8)  # four slabs
        forks = count_forks(monkeypatch)
        a = predict_view(STAGE1, threshold_model(), vol, ViewAxis.YZ, jobs=1)
        b = predict_view(STAGE1, threshold_model(), vol, ViewAxis.YZ, jobs=3)
        assert np.array_equal(a.data, b.data)
        assert len(forks) == 1

    def test_a_model_error_in_the_child_reaches_the_caller(self, monkeypatch):
        model = threshold_model()

        def spoil():  # only the child's copy of the weights
            model.weights[0, 0] = np.nan

        monkeypatch.setattr(pipeline, "_VOXELS_PER_SLAB", 1)  # six slabs of one slice
        forks = count_forks(monkeypatch, spoil)
        vol = gray(rng_for_seed(20, 42).integers(0, 65536, size=(6, 4, 5)).astype(np.uint16))
        with pytest.raises(ModelError, match="^model weights are not finite$"):
            predict_view(STAGE1, model, vol, ViewAxis.XY, jobs=2)
        assert len(forks) == 1 and np.isfinite(model.weights).all()
        assert_no_child_left()

    def test_symmetric_phantom_views_agree(self):
        n = 24
        zz, yy, xx = np.ogrid[:n, :n, :n]
        c = (n - 1) / 2.0
        sphere = (xx - c) ** 2 + (yy - c) ** 2 + (zz - c) ** 2 <= 8.0 ** 2
        rng = rng_for_seed(14, 42)
        vol3 = np.where(sphere, 52000, 9000) + rng.integers(-300, 301, size=(n, n, n))
        stack = (gray(vol3.astype(np.uint16)), labels(sphere.astype(np.uint8)))
        model = SoftmaxModel(class_subset=(0, 1), learning_rate=0.05, epochs=40,
                             batch_size=512)
        fitted, _ = train(model, [stack], TrainProtocol(tile_size=n, seed=2))
        xy = predict_view(STAGE1, fitted, stack[0], ViewAxis.XY).data
        xz = predict_view(STAGE1, fitted, stack[0], ViewAxis.XZ).data
        assert (xy == xz).mean() >= 0.90


class TestModelIO:
    def test_round_trip(self, tmp_path):
        rng = rng_for_seed(15, 42)
        model = SoftmaxModel(class_subset=(0, 2, 5), learning_rate=0.02, epochs=77,
                             batch_size=333, l2=0.003,
                             weights=rng.normal(size=(3, N_FEATURES + 1)),
                             metadata={"trained_epochs": 77})
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.class_subset == model.class_subset
        assert np.array_equal(back.weights, model.weights)
        assert (back.learning_rate, back.epochs, back.batch_size, back.l2) == \
            (0.02, 77, 333, 0.003)
        assert back.metadata == {"trained_epochs": 77}

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "nope.json")

    def test_rejects_corrupt_and_foreign_files(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(FormatError):
            load_model(p)
        p.write_bytes(b"\xff\xfe{")
        with pytest.raises(FormatError, match="unreadable"):
            load_model(p)
        p.write_text('{"format": "something-else"}')
        with pytest.raises(FormatError):
            load_model(p)

    def test_rejects_wrong_version_or_shape(self, tmp_path):
        model = SoftmaxModel(class_subset=(0, 1))
        p = tmp_path / "m.json"
        save_model(model, p)
        import json
        doc = json.loads(p.read_text())
        doc["feature_version"] = "fb0"
        p.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_model(p)
        doc["feature_version"] = "fb1"
        doc["weights"] = [[0.0] * 4] * 2
        p.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_model(p)
