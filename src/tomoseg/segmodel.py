"""Per-slice segmenter: fixed convolutional feature bank + softmax classifier.

The feature bank turns a u16 slice into 9 per-pixel features (raw intensity
rescaled to [0,1], Gaussian blurs at sigma 1/2/4/8, gradient magnitude at
sigma 1/2, local standard deviation and median over a radius-2 window).
It runs on a whole (n, a, b) stack of slices at once: every filter has zero
extent along the slice axis, so each slice's features are exactly those of
the slice filtered alone.  A multinomial logistic model over those features
plus a bias is trained with mini-batch Adam on randomly tiled slices.  This
keeps every gradient exactly checkable while exposing the same
train/predict surface a heavier slice model would have.

Training follows a fixed sampling protocol: every ``slice_stride``-th
axial slice participates, the selected slices are split once 70/30 into
train/validation at the slice level, and each epoch draws one random tile
per training slice.  When the seeded split leaves a class without
training pixels, validation slices holding it move to training, so a
stage trains whenever any selected slice holds each of its classes.  The
features of the selected slices are computed once per stack before the
first epoch, after the split has shown that every class has training
pixels.

Pixels within a tile are sampled with inverse class frequency weights
(capped) so rare classes are not drowned out.  A tile's table depends
only on the slice and the tile origin, so a tile that spans its whole
slice builds it once per ``train`` call.  A table with no more labelled
pixels than the batch enters every step whole, as its own float64
design matrix (features plus a bias column of ones), so its steps gather
nothing.  A batch drawn from a larger table looks its uniforms up in
the table's cumulative distribution in sorted order, which makes the
same picks as ``Generator.choice`` and leaves the generator in the same
state.  The picked rows are gathered straight into one float64 batch
buffer per ``train`` call, whose bias column is set once.  The loss's
per-row max and sum run column by column over the few classes, without
``axis=1`` reductions, and Adam updates its moments in place.

Validation is gathered once per ``train`` call as well: the labelled
pixels of the validation slices become one float64 (N, 9) matrix and one
label vector.  Each epoch scores them with one affine map, an argmax over
the logits and one confusion-matrix ``bincount``, on the calling thread
right after that epoch's steps.  In validation and inference alike a
pixel's label is the argmax of its logits (``SoftmaxModel.predict_index``),
ties going to the lower index: the softmax is monotone, so no exponential
is computed to find the most probable class.

The filters of the bank are the exact numpy forms in ``filters``: each
map equals the ``scipy.ndimage`` filter the bank was first written with
(``gaussian_filter``, ``uniform_filter``, ``median_filter``) bit for bit,
so ``FEATURE_VERSION`` is unchanged, and training loads no scipy.
"""

import numbers
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .core import N_CLASSES, ViewAxis, integers, read_json, rng_for_seed, view_stack, \
    write_json
from .errors import ConfigError, FormatError, ModelError, ShapeError, TrainingError
from .filters import CHUNK_VOXELS, _require_2d, _require_stack, correlate_padded, \
    gaussian_weights, median_stack, reflect_pad, slice_chunks, uniform_filter1d

FEATURE_VERSION = "fb1"
N_FEATURES = 9
_BLUR_SIGMAS = (1.0, 2.0, 4.0, 8.0)
_GRAD_SIGMAS = (1.0, 2.0)
_TEXTURE_RADIUS = 2
# Maps of the bank: 0 intensity, 1-4 blurs, 5-6 gradient magnitudes, 7 local
# standard deviation, 8 median.  The weights of each sigma's order-0 and
# order-1 Gaussian passes; the widest sets how far the first pass pads.
_BLUR_MAPS = dict(zip(_BLUR_SIGMAS, range(1, 5)))
_GRAD_MAPS = dict(zip(_GRAD_SIGMAS, range(5, 7)))
_WEIGHTS = {s: (gaussian_weights(s, 0), gaussian_weights(s, 1)) for s in _BLUR_SIGMAS}
_PAD = max(len(w0) for w0, _ in _WEIGHTS.values()) // 2
_WEIGHT_CAP = 10.0
# Rows a prediction scores at once: each takes 8 bytes a feature in float64.
# Blocked, validation scores stage 1's 53k-row set in 1.9 ms an epoch,
# against 3.0 ms scored whole (2-vCPU x86-64 VM, numpy 2.4).
_PREDICT_ROWS = 1 << 12
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
# Training hyperparameters used wherever none are given: SoftmaxModel,
# ``tomoseg train``, an experiment config without a model section and a
# model file without a hyperparameters section.
DEFAULT_HYPERPARAMETERS = MappingProxyType(
    {"learning_rate": 0.05, "epochs": 150, "batch_size": 1024, "l2": 1e-4})


def stack_features(stack: np.ndarray, chunk_voxels: int = CHUNK_VOXELS) -> np.ndarray:
    """Per-pixel features of an (n, a, b) u16 slice stack: (n, a, b, 9), float32.

    Each filter has zero extent along the slice axis (Gaussian sigma
    ``(0, s, s)``, window ``(1, 5, 5)``) and reflects at the slice borders,
    so ``stack_features(s)[i]`` equals ``extract_features(s[i])`` bit for bit.
    The Gaussians and box means run over runs of slices of about
    ``chunk_voxels`` voxels and hold 30-40 bytes a voxel of the run.
    """
    stack = _require_stack(stack)
    feats = np.empty(stack.shape + (N_FEATURES,), dtype=np.float32)
    maps = np.moveaxis(feats, -1, 0)  # each map is written straight into the bank
    np.divide(stack, np.float32(65535.0), out=maps[0], dtype=np.float32)
    if stack.size:
        for chunk in slice_chunks(len(stack), stack[0].size, chunk_voxels):
            _gaussian_maps(maps[:, chunk])
            _local_std(maps[:, chunk])
        np.divide(median_stack(stack, _TEXTURE_RADIUS), np.float32(65535.0), out=maps[8],
                  dtype=np.float32)
    return feats


def _gaussian_maps(maps: np.ndarray) -> None:
    """Maps 1-6 of a chunk of the bank whose map 0 (the intensity) is filled.

    Each Gaussian is ``scipy.ndimage.gaussian_filter(map0, (0, s, s), order,
    truncate=3)``: a pass along axis 1, rounded to float32, then a pass
    along axis 2.  Every first pass reads one padded copy of the intensity.
    The gradient's d/dx shares the blur's first pass; its d/dy first pass
    waits in map 7 or 8, which are filled later.
    """
    _, m, a, b = maps.shape
    work = np.empty((2, m * a * b))  # a float64 sum and its scratch, reused by every pass

    def correlate(padded, weights, dst):
        dst[...] = correlate_padded(padded, weights, *(x.reshape(dst.shape) for x in work))

    def rows(k):  # map k with the axis of the first pass first
        return maps[k].transpose(1, 0, 2)

    def cols(k):
        return maps[k].transpose(2, 0, 1)

    def second_pass(k, *passes):  # the padded copy of map k lives only here
        padded = reflect_pad(cols(k), len(passes[0][1]) // 2)
        for dst, w in passes:
            correlate(padded, w, cols(dst))

    dy = dict(zip(_GRAD_SIGMAS, (7, 8)))
    first = [(k, _WEIGHTS[s][0]) for s, k in _BLUR_MAPS.items()]
    first += [(k, _WEIGHTS[s][1]) for s, k in dy.items()]
    padded = reflect_pad(rows(0), _PAD)
    for k, w in first:
        r = len(w) // 2
        correlate(padded[_PAD - r:_PAD + r + a], w, rows(k))
    del padded
    for s, k in _BLUR_MAPS.items():
        w0, w1 = _WEIGHTS[s]
        second_pass(k, *([(_GRAD_MAPS[s], w1)] if s in _GRAD_MAPS else []), (k, w0))
    for s, k in dy.items():
        second_pass(k, (k, _WEIGHTS[s][0]))
        np.hypot(maps[_GRAD_MAPS[s]], maps[k], out=maps[_GRAD_MAPS[s]])


def _local_std(maps: np.ndarray) -> None:
    """Map 7, the standard deviation over each (1, 5, 5) window, from
    ``scipy.ndimage.uniform_filter`` means of the intensity and its square;
    maps 7 and 8 hold the means on the way."""
    size = 2 * _TEXTURE_RADIUS + 1
    mean, var = maps[7], maps[8]
    np.multiply(maps[0], maps[0], out=var)
    for src, dst in ((maps[0], mean), (var, var)):
        dst[...] = uniform_filter1d(src, size, axis=1)
        dst[...] = uniform_filter1d(dst, size, axis=2)
    var -= np.square(mean, out=mean)
    np.sqrt(np.clip(var, 0.0, None, out=var), out=maps[7])


def extract_features(img: np.ndarray) -> np.ndarray:
    """Per-pixel feature array of shape (H, W, 9), float32, reflected borders."""
    return stack_features(_require_2d(img)[np.newaxis])[0]


@dataclass
class SoftmaxModel:
    """Multinomial logistic model over the feature bank (plus bias column).

    ``class_subset`` lists the label-volume ids this model classifies, in
    output order; predictions return those ids.  ``batch_size`` pixels are
    drawn per tile step (0 means every tile pixel).
    """

    class_subset: tuple[int, ...] = (0, 1, 2, 3, 4, 5)
    learning_rate: float = DEFAULT_HYPERPARAMETERS["learning_rate"]
    epochs: int = DEFAULT_HYPERPARAMETERS["epochs"]
    batch_size: int = DEFAULT_HYPERPARAMETERS["batch_size"]
    l2: float = DEFAULT_HYPERPARAMETERS["l2"]
    weights: np.ndarray = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        subset = tuple(self.class_subset)
        if any(isinstance(c, bool) or not isinstance(c, numbers.Integral)
               or not 0 <= c < N_CLASSES for c in subset):
            raise ConfigError(f"class_subset must hold class ids 0..{N_CLASSES - 1}, "
                              f"got {list(subset)}")
        self.class_subset = tuple(int(c) for c in subset)
        if not self.class_subset:
            raise ConfigError("class_subset must not be empty")
        if len(set(self.class_subset)) != len(self.class_subset):
            raise ConfigError(f"class_subset has duplicates: {self.class_subset}")
        integers((self.epochs, self.batch_size), "epochs and batch_size", ConfigError)
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be positive and finite, "
                              f"got {self.learning_rate}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be non-negative, got {self.epochs}")
        if self.batch_size < 0:
            raise ConfigError(f"batch_size must be non-negative, got {self.batch_size}")
        if not (np.isfinite(self.l2) and self.l2 >= 0):
            raise ConfigError(f"l2 must be non-negative and finite, got {self.l2}")
        if self.weights is None:
            self.weights = np.zeros((len(self.class_subset), N_FEATURES + 1))
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (len(self.class_subset), N_FEATURES + 1):
            raise FormatError(
                f"weights shape {self.weights.shape} != "
                f"({len(self.class_subset)}, {N_FEATURES + 1})"
            )

    @property
    def n_classes(self) -> int:
        return len(self.class_subset)

    def logits(self, features: np.ndarray) -> np.ndarray:
        """Class scores of an (N, 9) feature matrix: (N, n_classes), float64."""
        if not np.isfinite(self.weights).all():
            raise ModelError("model weights are not finite")
        x = np.asarray(features, dtype=np.float64)
        return x @ self.weights[:, :-1].T + self.weights[:, -1]

    def predict_index(self, features: np.ndarray) -> np.ndarray:
        """Index into ``class_subset`` of each row's largest logit, ties to the lower one.

        Rows are scored in even blocks of at most ``_PREDICT_ROWS``, which
        bounds the float64 copy of the features that the product takes.
        The product gives a row the same bits in any block of two or more
        rows (``test_blocked_logits_equal_whole``; a single row goes through
        a matrix-vector path that may round otherwise), and the blocks are
        cut evenly, so none has one row unless the matrix has.
        """
        blocks = np.array_split(features, max(1, -(-len(features) // _PREDICT_ROWS)))
        return np.concatenate([self.logits(x).argmax(axis=1) for x in blocks])

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Softmax probabilities for an (N, 9) feature matrix; rows sum to 1."""
        logits = self.logits(features)
        logits -= logits.max(axis=1, keepdims=True)
        np.exp(logits, out=logits)
        logits /= logits.sum(axis=1, keepdims=True)
        return logits


@dataclass(frozen=True)
class TrainProtocol:
    """Tile-sampling schedule; tiles clamp to the slice extent when larger."""

    tile_size: int = 400
    slice_stride: int = 3
    val_fraction: float = 0.30
    tiles_per_slice_per_epoch: int = 1
    seed: int = 0

    def __post_init__(self):
        integers((self.tile_size, self.slice_stride, self.tiles_per_slice_per_epoch, self.seed),
                 "tile_size, slice_stride, tiles_per_slice_per_epoch and seed", ConfigError)
        if self.tile_size < 1:
            raise ConfigError(f"tile_size must be >= 1, got {self.tile_size}")
        if self.slice_stride < 1:
            raise ConfigError(f"slice_stride must be >= 1, got {self.slice_stride}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        if self.tiles_per_slice_per_epoch < 1:
            raise ConfigError("tiles_per_slice_per_epoch must be >= 1")


def softmax_loss_and_grad(weights: np.ndarray, xb: np.ndarray,
                          y: np.ndarray, l2: float = 0.0) -> tuple[float, np.ndarray]:
    """Mean cross-entropy (+ L2 on non-bias weights) and its exact gradient.

    xb is the (N, n_features+1) float64 design matrix whose last column
    holds ones, the form ``train`` passes so that no step copies its batch;
    y holds class indices, weights is (n_classes, n_features+1) with the
    bias in the last column.  The per-row max and sum run column by column
    over the few classes instead of as ``axis=1`` reductions, which numpy
    pays for per row; the results are bit-identical to those reductions.
    """
    weights = np.asarray(weights, dtype=np.float64)
    xb = np.asarray(xb, dtype=np.float64)
    y = np.asarray(y)
    if xb.ndim != 2 or xb.shape[1] != weights.shape[1]:
        raise ShapeError(f"expected a design matrix of {weights.shape[1]} columns, "
                         f"got shape {xb.shape}")
    n = xb.shape[0]
    logits = xb @ weights.T
    k = logits.shape[1]
    top = logits[:, 0].copy()
    for c in range(1, k):
        np.maximum(top, logits[:, c], out=top)
    logits -= top[:, None]
    log_z = np.log(_row_sums(np.exp(logits)))
    at_y = np.arange(n) * k + y  # flat index of each row's true-class logit
    loss = float((log_z - logits.ravel()[at_y]).sum() / n)  # .mean()'s bits, without its overhead
    logits -= log_z[:, None]
    probs = np.exp(logits, out=logits)
    probs.ravel()[at_y] -= 1.0
    grad = probs.T @ xb
    grad /= n
    reg = weights.copy()
    reg[:, -1] = 0.0  # bias is not penalized
    loss += 0.5 * l2 * float((reg * reg).sum())
    grad += l2 * reg
    return loss, grad


def _row_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` bit for bit: numpy adds rows of fewer than 8 terms in
    order and sums longer ones pairwise, so only short rows go column by column."""
    if a.shape[1] >= 8:
        return a.sum(axis=1)
    total = a[:, 0].copy()
    for c in range(1, a.shape[1]):
        total += a[:, c]
    return total


class _Table(NamedTuple):
    """A tile's labelled pixels, ready for Adam steps.

    ``y`` holds their class indices.  A table whose pixels all enter each
    step holds their float64 design matrix ``x``; a table that a batch is
    drawn from holds their flat ``rows`` of the stack's feature matrix and
    the cumulative distribution ``cdf`` of their sampling weights.
    """

    y: np.ndarray
    x: np.ndarray = None
    rows: np.ndarray = None
    cdf: np.ndarray = None


def _tile_table(features: np.ndarray, gt: np.ndarray, j: int, ti: int, tj: int, th: int,
                tw: int, batch_size: int) -> _Table:
    """Table of the (th, tw) tile at (ti, tj) of slice ``j`` of an (n, h, w) stack.

    ``features`` is the stack's (n*h*w, 9) feature matrix and ``gt`` holds
    its class indices, -1 where a pixel is excluded.  The tile's labelled
    pixels are taken in raster order.  When a batch of ``batch_size`` is
    drawn from them, their sampling weights are the capped inverse class
    frequencies; otherwise every one enters each step.
    """
    _, h, w = gt.shape
    y = gt[j, ti:ti + th, tj:tj + tw].ravel()
    valid = np.flatnonzero(y >= 0)
    y = y[valid]
    r, c = np.divmod(valid, tw)
    rows = (j * h + ti + r) * w + tj + c
    if not (batch_size and batch_size < y.size):
        return _Table(y, x=_design(features, rows))
    freq = np.bincount(y).astype(np.float64)
    cls_w = np.zeros(freq.size)
    nz = freq > 0
    cls_w[nz] = np.minimum(freq[nz].max() / freq[nz], _WEIGHT_CAP)
    p = cls_w[y]
    p /= p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return _Table(y, rows=rows, cdf=cdf)


def _design(features: np.ndarray, rows: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Float64 design matrix of the given rows of a feature matrix: the
    features, then a bias column of ones (already set when ``out`` is given)."""
    if out is None:
        out = np.empty((rows.size, features.shape[1] + 1))
        out[:, -1] = 1.0
    out[:, :-1] = np.take(features, rows, axis=0)
    return out


def _choice(sampler: np.random.Generator, cdf: np.ndarray, size: int) -> np.ndarray:
    """``sampler.choice(len(p), size, replace=True, p=p)`` for the ``cdf`` numpy builds from p.

    numpy looks each of ``size`` uniforms up in the normalised cumulative
    distribution with ``searchsorted(side="right")``.  This draws the same
    uniforms and looks them up in sorted order, which ``searchsorted``
    does about twice as fast, so the picks and the generator's state
    afterwards are those of ``choice``.
    """
    u = sampler.random(size)
    order = u.argsort()
    pick = np.empty(size, dtype=np.intp)
    pick[order] = cdf.searchsorted(u[order], side="right")
    return pick


class _Adam:
    """Adam's moment estimates of one weight array, updated in place.

    Each update rounds as ``m = b1 m + (1 - b1) g``, ``v = b2 v + ((1 - b2) g) g``
    and ``w -= (lr m_hat) / (sqrt(v_hat) + eps)`` do, through two scratch arrays.
    """

    def __init__(self, weights: np.ndarray, learning_rate: float):
        self.lr = learning_rate
        self.steps = 0
        self.m, self.v, self.a, self.b = (np.zeros_like(weights) for _ in range(4))

    def step(self, weights: np.ndarray, grad: np.ndarray) -> None:
        m, v, a, b = self.m, self.v, self.a, self.b
        self.steps += 1
        m *= _ADAM_BETA1
        m += np.multiply(grad, 1 - _ADAM_BETA1, out=a)
        v *= _ADAM_BETA2
        np.multiply(grad, 1 - _ADAM_BETA2, out=a)
        v += np.multiply(a, grad, out=a)
        np.divide(m, 1 - _ADAM_BETA1 ** self.steps, out=a)  # m_hat
        a *= self.lr
        np.divide(v, 1 - _ADAM_BETA2 ** self.steps, out=b)  # v_hat
        np.sqrt(b, out=b)
        b += _ADAM_EPS
        weights -= np.divide(a, b, out=a)


def train(model: SoftmaxModel, stacks, proto: TrainProtocol,
          filters=lambda slices: slices) -> tuple[SoftmaxModel, list[dict]]:
    """Fit the model on (GrayVolume, LabelVolume) stacks; returns (model, history).

    ``filters`` maps each stack's sampled XY slices, an (n, a, b) u16 array,
    to the slices the feature bank sees (by default, the slices as they are).

    History holds one record per epoch: the mean tile loss and the
    validation macro IoU over classes present in the validation labels.
    Pixels whose label is outside the model's ``class_subset`` are excluded
    from sampling (masked stages rely on this).
    """
    if not stacks:
        raise TrainingError("need at least one training stack")
    class_subset = model.class_subset
    for gray, lab in stacks:
        if gray.dims != lab.dims:
            raise ShapeError(f"gray dims {gray.dims} != label dims {lab.dims}")

    id_to_idx = np.full(256, -1, dtype=np.int64)  # labels are u8
    for idx, cid in enumerate(class_subset):
        id_to_idx[cid] = idx
    stride = proto.slice_stride
    gts = [id_to_idx[view_stack(lab.data, ViewAxis.XY)[::stride]] for _, lab in stacks]
    train_pairs, val_pairs = _split(gts, proto, class_subset)

    feats = [stack_features(filters(view_stack(gray.data, ViewAxis.XY)[::stride]))
             for gray, _ in stacks]
    val_x, val_y = _validation_set(feats, gts, val_pairs)
    feature_rows = [f.reshape(-1, N_FEATURES) for f in feats]
    tables = {}  # a tile that spans its slice always starts at (0, 0): one table per slice
    batch = np.empty((model.batch_size, N_FEATURES + 1))  # the design matrix of drawn steps
    batch[:, -1] = 1.0
    trained = {"trained_epochs": model.epochs} if model.epochs else {}
    fitted = replace(model, weights=model.weights.copy(), metadata={**model.metadata, **trained})
    weights = fitted.weights  # Adam steps these in place: each epoch scores the current weights
    adam = _Adam(weights, model.learning_rate)
    sampler = rng_for_seed(proto.seed, 202)
    history = []
    for epoch in range(model.epochs):
        losses = []
        for s, j in train_pairs:
            _, h, w = gts[s].shape
            th, tw = min(proto.tile_size, h), min(proto.tile_size, w)
            for _ in range(proto.tiles_per_slice_per_epoch):
                ti = int(sampler.integers(0, h - th + 1))
                tj = int(sampler.integers(0, w - tw + 1))
                if (th, tw) != (h, w) or not model.batch_size:
                    # batch_size 0 feeds whole slices: their design matrices are not kept
                    table = _tile_table(feature_rows[s], gts[s], j, ti, tj, th, tw,
                                        model.batch_size)
                elif (s, j) in tables:
                    table = tables[s, j]
                else:
                    table = tables[s, j] = _tile_table(feature_rows[s], gts[s], j, 0, 0,
                                                       h, w, model.batch_size)
                if table.y.size == 0:
                    continue
                if table.cdf is None:
                    x, y = table.x, table.y
                else:
                    pick = _choice(sampler, table.cdf, model.batch_size)
                    x = _design(feature_rows[s], table.rows[pick], out=batch)
                    y = table.y[pick]
                loss, grad = softmax_loss_and_grad(weights, x, y, model.l2)
                adam.step(weights, grad)
                losses.append(loss)
        history.append({
            "epoch": epoch + 1,
            "train_loss": float(np.mean(losses)) if losses else float("nan"),
            "val_iou": _validation_iou(fitted, val_x, val_y),
        })
    return fitted, history


def _split(gts, proto: TrainProtocol, class_subset: tuple) -> tuple[list, list]:
    """The seeded slice split into training and validation (slice index pairs).

    The permuted slices' first ``round(val_fraction * n)`` validate.  When
    that leaves a class without training pixels, the last-drawn
    validation slice holding it moves to the head of the training slices;
    a class no selected slice holds raises ``TrainingError``.
    """
    pairs = [(s, j) for s, gt in enumerate(gts) for j in range(len(gt))]
    order = rng_for_seed(proto.seed, 101).permutation(len(pairs))
    n_val = int(round(proto.val_fraction * len(pairs))) if len(pairs) > 1 else 0
    val, fit = [pairs[i] for i in order[:n_val]], [pairs[i] for i in order[n_val:]]
    if not fit:
        raise TrainingError("no training slices left after the validation split")
    k = len(class_subset)
    held = {(s, j): np.bincount(gts[s][j][gts[s][j] >= 0], minlength=k) > 0 for s, j in pairs}
    for idx, cid in enumerate(class_subset):
        if any(held[pair][idx] for pair in fit):
            continue
        holders = [pair for pair in val if held[pair][idx]]
        if not holders:
            raise TrainingError(f"class {cid} absent from all training labels")
        val.remove(holders[-1])
        fit.insert(0, holders[-1])
    return fit, val


def _validation_set(feats, gts, val_pairs) -> tuple[np.ndarray, np.ndarray]:
    """Labelled pixels of the validation slices: an (N, 9) float64 matrix and class indices."""
    if not val_pairs:
        return np.empty((0, N_FEATURES)), np.empty(0, dtype=np.int64)
    rows = [(feats[s][j].reshape(-1, N_FEATURES), gts[s][j].ravel()) for s, j in val_pairs]
    x = np.concatenate([f[gt >= 0] for f, gt in rows], dtype=np.float64)
    y = np.concatenate([gt[gt >= 0] for _, gt in rows])
    return x, y


def _validation_iou(model: SoftmaxModel, val_x: np.ndarray, val_y: np.ndarray) -> float:
    """Macro IoU over the classes present in ``val_y``; NaN when none is."""
    k = model.n_classes
    pred = model.predict_index(val_x)
    confusion = np.bincount(val_y * k + pred, minlength=k * k).reshape(k, k)
    inter = np.diag(confusion)
    gt_count = confusion.sum(axis=1)
    union = gt_count + confusion.sum(axis=0) - inter
    seen = gt_count > 0
    if not seen.any():
        return float("nan")
    per_class = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
    return float(per_class[seen].mean())


def predict_slice(model: SoftmaxModel, img: np.ndarray) -> np.ndarray:
    """Argmax labels for one slice; ties resolve to the lower class index."""
    img = _require_2d(img)
    feats = extract_features(img).reshape(-1, N_FEATURES)
    idx = model.predict_index(feats)
    out = np.asarray(model.class_subset, dtype=np.uint8)[idx]
    return out.reshape(img.shape)


def save_model(model: SoftmaxModel, path) -> None:
    doc = {
        "format": "softmax-featbank",
        "feature_version": FEATURE_VERSION,
        "n_classes": model.n_classes,
        "class_subset": list(model.class_subset),
        "weights": model.weights.tolist(),
        "hyperparameters": {key: getattr(model, key) for key in DEFAULT_HYPERPARAMETERS},
        "metadata": model.metadata,
    }
    write_json(path, doc)


def load_model(path) -> SoftmaxModel:
    doc = read_json(path, FormatError, "model file")
    if not isinstance(doc, dict) or doc.get("format") != "softmax-featbank":
        raise FormatError(f"{path}: not a model file")
    if doc.get("feature_version") != FEATURE_VERSION:
        raise FormatError(f"{path}: unsupported feature version {doc.get('feature_version')!r}")
    try:
        hp = {**DEFAULT_HYPERPARAMETERS, **doc.get("hyperparameters", {})}
        model = SoftmaxModel(
            class_subset=tuple(doc["class_subset"]),
            weights=np.asarray(doc["weights"], dtype=np.float64),
            metadata=dict(doc.get("metadata", {})),
            # each hyperparameter is cast to the type of its default
            **{key: type(value)(hp[key]) for key, value in DEFAULT_HYPERPARAMETERS.items()},
        )
        n_classes = int(doc["n_classes"])
    except KeyError as e:
        raise FormatError(f"{path}: model document lacks key {e}") from e
    except (TypeError, ValueError) as e:
        raise FormatError(f"{path}: malformed model document: {e}") from e
    if model.n_classes != n_classes:
        raise FormatError(f"{path}: n_classes inconsistent with class_subset")
    return model
