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
per training slice.  The features of the selected slices are computed
once per stack before the first epoch, after the split has shown that
every class has training pixels.  Pixels within a tile are sampled with
inverse class frequency weights (capped) so rare classes are not drowned
out.  A tile's sampling table (its labelled pixels as rows of the
feature matrix, their classes and the cumulative distribution of their
weights) depends only on the slice and the tile origin, so a tile that
spans its whole slice builds it once per ``train`` call.  Each Adam step
then draws its batch by an inverse-CDF lookup that makes the same picks
as ``Generator.choice`` and leaves the generator in the same state,
gathers only the picked rows, and computes a loss whose per-row max and
sum run column by column over the few classes, without ``axis=1``
reductions.

Validation is gathered once per ``train`` call as well: the labelled
pixels of the validation slices become one float64 (N, 9) matrix and one
label vector.  Each epoch scores them with one affine map, an argmax over
the logits and one confusion-matrix ``bincount``.  In validation and
inference alike a pixel's label is the argmax of its logits, ties going
to the lower index: the softmax is monotone, so no exponential is
computed to find the most probable class.

``scipy.ndimage`` is imported inside ``stack_features``, its only user, so
the CLI steps that never compute features do not load it.
"""

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .core import ViewAxis, rng_for_seed, view_stack
from .errors import ConfigError, FormatError, ModelError, ShapeError, TrainingError
from .filters import _require_2d

FEATURE_VERSION = "fb1"
N_FEATURES = 9
_BLUR_SIGMAS = (1.0, 2.0, 4.0, 8.0)
_GRAD_SIGMAS = (1.0, 2.0)
_TEXTURE_RADIUS = 2
_WEIGHT_CAP = 10.0
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
# Training hyperparameters used wherever none are given: SoftmaxModel,
# ``tomoseg train``, an experiment config without a model section and a
# model file without a hyperparameters section.
DEFAULT_HYPERPARAMETERS = MappingProxyType(
    {"learning_rate": 0.05, "epochs": 150, "batch_size": 1024, "l2": 1e-4})


def stack_features(stack: np.ndarray) -> np.ndarray:
    """Per-pixel features of an (n, a, b) u16 slice stack: (n, a, b, 9), float32.

    Each filter has zero extent along the slice axis (Gaussian sigma
    ``(0, s, s)``, window ``(1, 5, 5)``) and reflects at the slice borders,
    so ``stack_features(s)[i]`` equals ``extract_features(s[i])`` bit for bit.
    """
    stack = np.asarray(stack)
    if stack.ndim != 3:
        raise ShapeError(f"expected an (n, a, b) slice stack, got shape {stack.shape}")
    import scipy.ndimage as ndi

    f = stack.astype(np.float32) / np.float32(65535.0)
    feats = np.empty(stack.shape + (N_FEATURES,), dtype=np.float32)
    maps = iter(np.moveaxis(feats, -1, 0))  # each map is written straight into the bank
    next(maps)[...] = f
    for sigma in _BLUR_SIGMAS:
        next(maps)[...] = ndi.gaussian_filter(f, (0, sigma, sigma), mode="reflect",
                                              truncate=3.0)
    for sigma in _GRAD_SIGMAS:  # the two derivatives are dropped as soon as they are used
        np.hypot(*(ndi.gaussian_filter(f, (0, sigma, sigma), order=order, mode="reflect",
                                       truncate=3.0) for order in ((0, 0, 1), (0, 1, 0))),
                 out=next(maps))
    size = (1, 2 * _TEXTURE_RADIUS + 1, 2 * _TEXTURE_RADIUS + 1)
    mean = ndi.uniform_filter(f, size, mode="reflect")
    var = ndi.uniform_filter(f * f, size, mode="reflect")
    var -= np.square(mean, out=mean)
    np.sqrt(np.clip(var, 0.0, None, out=var), out=next(maps))
    median = ndi.median_filter(stack, size=size, mode="reflect").astype(np.float32)
    np.divide(median, np.float32(65535.0), out=next(maps))
    return feats


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
    feature_version: str = FEATURE_VERSION
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.class_subset = tuple(int(c) for c in self.class_subset)
        if not self.class_subset:
            raise ConfigError("class_subset must not be empty")
        if len(set(self.class_subset)) != len(self.class_subset):
            raise ConfigError(f"class_subset has duplicates: {self.class_subset}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be positive and finite, "
                              f"got {self.learning_rate}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be non-negative, got {self.epochs}")
        if self.batch_size < 0:
            raise ConfigError(f"batch_size must be non-negative, got {self.batch_size}")
        if not (np.isfinite(self.l2) and self.l2 >= 0):
            raise ConfigError(f"l2 must be non-negative and finite, got {self.l2}")
        if self.feature_version != FEATURE_VERSION:
            raise FormatError(f"unsupported feature version {self.feature_version!r}")
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
        """Index into ``class_subset`` of each row's largest logit, ties to the lower one."""
        return self.logits(features).argmax(axis=1)

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
        if self.tile_size < 1:
            raise ConfigError(f"tile_size must be >= 1, got {self.tile_size}")
        if self.slice_stride < 1:
            raise ConfigError(f"slice_stride must be >= 1, got {self.slice_stride}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        if self.tiles_per_slice_per_epoch < 1:
            raise ConfigError("tiles_per_slice_per_epoch must be >= 1")


def softmax_loss_and_grad(weights: np.ndarray, x: np.ndarray, y: np.ndarray,
                          l2: float = 0.0) -> tuple[float, np.ndarray]:
    """Mean cross-entropy (+ L2 on non-bias weights) and its exact gradient.

    x is (N, n_features), y holds class indices, weights is
    (n_classes, n_features+1) with the bias in the last column.  The
    per-row max and sum run column by column over the few classes instead
    of as ``axis=1`` reductions, which numpy pays for per row; the results
    are bit-identical to those reductions.
    """
    weights = np.asarray(weights, dtype=np.float64)
    x = np.asarray(x)
    y = np.asarray(y)
    n = x.shape[0]
    xb = np.empty((n, x.shape[1] + 1))
    xb[:, :-1] = x
    xb[:, -1] = 1.0
    logits = xb @ weights.T
    k = logits.shape[1]
    top = logits[:, 0].copy()
    for c in range(1, k):
        np.maximum(top, logits[:, c], out=top)
    logits -= top[:, None]
    log_z = np.log(_row_sums(np.exp(logits)))
    at_y = np.arange(n) * k + y  # flat index of each row's true-class logit
    loss = float((log_z - logits.ravel()[at_y]).mean())
    probs = np.exp(logits - log_z[:, None])
    probs.ravel()[at_y] -= 1.0
    grad = probs.T @ xb / n
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


def _tile_table(gt: np.ndarray, j: int, ti: int, tj: int, th: int, tw: int,
                batch_size: int) -> tuple:
    """Sampling table of the (th, tw) tile at (ti, tj) of slice ``j`` of an (n, h, w) stack.

    ``gt`` holds class indices, -1 where a pixel is excluded.  Returns the
    tile's labelled pixels in raster order as flat rows of the stack's
    (n*h*w, 9) feature matrix, their class indices and, when a batch of
    ``batch_size`` is drawn from them, the cumulative distribution of
    their capped inverse class frequency weights (None otherwise).
    """
    _, h, w = gt.shape
    y = gt[j, ti:ti + th, tj:tj + tw].ravel()
    valid = np.flatnonzero(y >= 0)
    y = y[valid]
    r, c = np.divmod(valid, tw)
    rows = (j * h + ti + r) * w + tj + c
    if not (batch_size and batch_size < y.size):
        return rows, y, None
    freq = np.bincount(y).astype(np.float64)
    cls_w = np.zeros(freq.size)
    nz = freq > 0
    cls_w[nz] = np.minimum(freq[nz].max() / freq[nz], _WEIGHT_CAP)
    p = cls_w[y]
    p /= p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return rows, y, cdf


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


def train(model: SoftmaxModel, stacks, proto: TrainProtocol,
          class_subset=None) -> tuple[SoftmaxModel, list[dict]]:
    """Fit the model on (GrayVolume, LabelVolume) stacks; returns (model, history).

    History holds one record per epoch: the mean tile loss and the
    validation macro IoU over classes present in the validation labels.
    Pixels whose label is outside ``class_subset`` are excluded from
    sampling (masked stages rely on this).
    """
    if not stacks:
        raise TrainingError("need at least one training stack")
    if class_subset is None:
        class_subset = model.class_subset
    class_subset = tuple(int(c) for c in class_subset)
    if not class_subset:
        raise TrainingError("class_subset must not be empty")
    if class_subset != model.class_subset:
        raise ConfigError(
            f"class_subset {class_subset} does not match model {model.class_subset}"
        )
    for gray, lab in stacks:
        if gray.dims != lab.dims:
            raise ShapeError(f"gray dims {gray.dims} != label dims {lab.dims}")

    id_to_idx = np.full(256, -1, dtype=np.int64)  # labels are u8
    for idx, cid in enumerate(class_subset):
        id_to_idx[cid] = idx
    stride = proto.slice_stride
    gts = [id_to_idx[view_stack(lab.data, ViewAxis.XY)[::stride]] for _, lab in stacks]
    pairs = [(s, j) for s, gt in enumerate(gts) for j in range(len(gt))]
    rng = rng_for_seed(proto.seed, 101)
    order = rng.permutation(len(pairs))
    n_val = int(round(proto.val_fraction * len(pairs))) if len(pairs) > 1 else 0
    val_pairs = [pairs[i] for i in order[:n_val]]
    train_pairs = [pairs[i] for i in order[n_val:]]
    if not train_pairs:
        raise TrainingError("no training slices left after the validation split")

    present = np.zeros(len(class_subset), dtype=np.int64)
    for s, j in train_pairs:
        gt_idx = gts[s][j]
        present += np.bincount(gt_idx[gt_idx >= 0].ravel(), minlength=len(class_subset))
    for idx, cid in enumerate(class_subset):
        if present[idx] == 0:
            raise TrainingError(f"class {cid} absent from all training labels")

    feats = [stack_features(view_stack(gray.data, ViewAxis.XY)[::stride]) for gray, _ in stacks]
    val_x, val_y = _validation_set(feats, gts, val_pairs)
    feature_rows = [f.reshape(-1, N_FEATURES) for f in feats]
    tables = {}  # a tile that spans its slice always starts at (0, 0): one table per slice
    weights = model.weights.copy()
    m = np.zeros_like(weights)
    v = np.zeros_like(weights)
    step = 0
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
                if (th, tw) != (h, w):
                    table = _tile_table(gts[s], j, ti, tj, th, tw, model.batch_size)
                elif (s, j) in tables:
                    table = tables[s, j]
                else:
                    table = tables[s, j] = _tile_table(gts[s], j, 0, 0, h, w,
                                                       model.batch_size)
                rows, y, cdf = table
                if rows.size == 0:
                    continue
                if cdf is not None:
                    pick = _choice(sampler, cdf, model.batch_size)
                    rows, y = rows[pick], y[pick]
                loss, grad = softmax_loss_and_grad(weights, feature_rows[s][rows], y, model.l2)
                step += 1
                m *= _ADAM_BETA1
                m += (1 - _ADAM_BETA1) * grad
                v *= _ADAM_BETA2
                v += (1 - _ADAM_BETA2) * grad * grad
                m_hat = m / (1 - _ADAM_BETA1 ** step)
                v_hat = v / (1 - _ADAM_BETA2 ** step)
                weights -= model.learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
                losses.append(loss)
        fitted = replace(model, weights=weights.copy(),
                         metadata={**model.metadata, "trained_epochs": epoch + 1})
        history.append({
            "epoch": epoch + 1,
            "train_loss": float(np.mean(losses)) if losses else float("nan"),
            "val_iou": _validation_iou(fitted, val_x, val_y),
        })
    if model.epochs == 0:
        return replace(model, weights=weights.copy()), history
    return fitted, history


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
        "feature_version": model.feature_version,
        "n_classes": model.n_classes,
        "class_subset": list(model.class_subset),
        "weights": model.weights.tolist(),
        "hyperparameters": {
            "learning_rate": model.learning_rate,
            "epochs": model.epochs,
            "batch_size": model.batch_size,
            "l2": model.l2,
        },
        "metadata": model.metadata,
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def load_model(path) -> SoftmaxModel:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise FormatError(f"unreadable model file {path}: {e}") from e
    if not isinstance(doc, dict) or doc.get("format") != "softmax-featbank":
        raise FormatError(f"{path}: not a model file")
    if doc.get("feature_version") != FEATURE_VERSION:
        raise FormatError(f"{path}: unsupported feature version {doc.get('feature_version')!r}")
    try:
        hp = {**DEFAULT_HYPERPARAMETERS, **doc.get("hyperparameters", {})}
        model = SoftmaxModel(
            class_subset=tuple(doc["class_subset"]),
            learning_rate=float(hp["learning_rate"]),
            epochs=int(hp["epochs"]),
            batch_size=int(hp["batch_size"]),
            l2=float(hp["l2"]),
            weights=np.asarray(doc["weights"], dtype=np.float64),
            metadata=dict(doc.get("metadata", {})),
        )
        n_classes = int(doc["n_classes"])
    except KeyError as e:
        raise FormatError(f"{path}: model document lacks key {e}") from e
    except (TypeError, ValueError) as e:
        raise FormatError(f"{path}: malformed model document: {e}") from e
    if model.n_classes != n_classes:
        raise FormatError(f"{path}: n_classes inconsistent with class_subset")
    return model
