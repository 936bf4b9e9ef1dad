"""Three-stage segmentation orchestration.

Stage 1 labels the gross anatomy (Background/Atrium/Ventricle/Bulbus,
with the compacta and lacunary voxels folded into Ventricle).  Stages 2
and 3 are binary specialists for the lacunary spaces and the compacta
that see only the ventricle image part: the stage-1 ventricle mask is
cropped to its bounding box (dilated for context), everything outside
the mask is zeroed, and out-of-mask voxels are forced to Background in
the output.  Each stage predicts on all three orthogonal views and fuses
them by per-voxel mode with the XY view breaking ties.  Stage 1 then
fills enclosed Background cavities.  The binary stages fill nothing: their
label 0 means "not the target class", not Background, so a closed
compacta shell encloses Ventricle lumen, not a cavity.  A view is
predicted slab by slab: its slice stack is cut into contiguous runs of
slices of a fixed voxel budget, and each slab takes one feature-bank call
and one argmax over the model's logits.  With two or more jobs on Linux,
one forked child labels the second half of a view's slabs while this
process labels the first (``core.fork_map``, as for training).  A fixed
rule table then merges the three stage outputs into the final six-class
volume: Atrium beats everything, Bulbus beats the binary classes,
Compacta beats Lacunary, Lacunary beats Ventricle, and stage-1
Background always stays Background.
"""

import time
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .core import CLASS_NAMES, ClassId, GrayVolume, LabelVolume, ViewAxis, fork_map, \
    from_json_fields, integers, json_fields, view_stack
from .errors import ConfigError, FormatError, ShapeError, TrainingError
from .filters import FilterConfig, fill_holes_3d, hist_equalize, median_stack, mode_fuse, \
    unsharp_stack
from .segmodel import N_FEATURES, SoftmaxModel, TrainProtocol, stack_features, train

MASK_DILATION_VOXELS = 8
EXCLUDED_LABEL = 2  # training-only sentinel outside the binary stages' mask
# Voxels per slab of the view predictor, to the nearest whole slice.  A
# process labelling slabs (this one, and the forked child at two or more
# jobs) holds one slab's feature bank and its float64 temporaries, about 70
# bytes a voxel, so this bounds what inference adds to its peak memory; the
# logits are taken a block of rows at a time.
_VOXELS_PER_SLAB = 1 << 14

VENTRICLE_COMPLEX = (int(ClassId.VENTRICLE), int(ClassId.COMPACTA), int(ClassId.LACUNARY))

# Each stage: the stage label of each of the six classes (by class id), the
# stage's label names, and its default tile size and filters.  Stage 1 folds
# Compacta and Lacunary into Ventricle; stages 2 and 3 each keep one class of
# the ventricle interior against everything else.
_Stage = namedtuple("_Stage", "labels names tile_size preprocess")
_STAGES = {
    1: _Stage((0, 1, 2, 3, 2, 2), ("Background", "Atrium", "Ventricle", "Bulbus"), 400, ()),
    2: _Stage((0, 0, 0, 0, 0, 1), ("Background", "Lacunary"), 224, ("unsharp",)),
    3: _Stage((0, 0, 0, 0, 1, 0), ("Background", "Compacta"), 224, ()),
}

# Each stage filter of an (n, a, b) stack, by the name ``preprocess`` gives it.
_FILTERS = {
    "unsharp": lambda stack, fc: unsharp_stack(stack, fc.unsharp_sigma, fc.unsharp_amount),
    "median": lambda stack, fc: median_stack(stack, fc.median_radius),
    "histeq": lambda stack, fc: np.stack([hist_equalize(img, fc.histeq_bins) for img in stack]),
}


@dataclass(frozen=True)
class StageConfig:
    """One stage's class set, tile size, preprocessing, and masking rule."""

    stage: int
    tile_size: int = None
    preprocess: tuple = None
    filter_config: FilterConfig = field(default_factory=FilterConfig)

    def __post_init__(self):
        if self.stage not in _STAGES:
            raise ConfigError(f"stage must be 1, 2 or 3, got {self.stage}")
        if self.tile_size is None:
            object.__setattr__(self, "tile_size", _STAGES[self.stage].tile_size)
        integers((self.tile_size,), "tile_size", ConfigError)
        if self.tile_size < 1:
            raise ConfigError(f"tile_size must be >= 1, got {self.tile_size}")
        if self.preprocess is None:
            object.__setattr__(self, "preprocess", _STAGES[self.stage].preprocess)
        if not isinstance(self.preprocess, (list, tuple)):
            raise ConfigError(f"preprocess must be a list of filter names, got {self.preprocess!r}")
        object.__setattr__(self, "preprocess", tuple(self.preprocess))
        for name in self.preprocess:
            if name not in _FILTERS:
                raise ConfigError(f"unknown preprocessing filter {name!r}")

    @property
    def mask_to_ventricle(self) -> bool:
        """Stage 1 produces the ventricle mask; stages 2 and 3 see only its inside."""
        return self.stage != 1

    @property
    def class_subset(self) -> tuple:
        return tuple(range(len(self.output_names)))

    @property
    def output_names(self) -> tuple:
        return _STAGES[self.stage].names


def default_stage_configs(filter_config: FilterConfig = FilterConfig()) -> dict:
    """Every stage's default config, all three sharing ``filter_config``."""
    return {s: StageConfig(stage=s, filter_config=filter_config) for s in (1, 2, 3)}


def stage_gt(cfg: StageConfig, gt: LabelVolume) -> np.ndarray:
    """Remap six-class ground truth to the stage's label space."""
    return np.asarray(_STAGES[cfg.stage].labels, dtype=np.uint8)[gt.data]


def ventricle_mask_from_stage1(stage1: LabelVolume) -> LabelVolume:
    mask = (stage1.data == ClassId.VENTRICLE).astype(np.uint8)
    return LabelVolume(mask, stage1.voxel_size_um, ("Background", "Ventricle"))


def _apply_filters(stack: np.ndarray, cfg: StageConfig) -> np.ndarray:
    """The stage's 2D filters on every slice of an (n, a, b) stack."""
    for name in cfg.preprocess:
        stack = _FILTERS[name](stack, cfg.filter_config)
    return stack


def _crop_to_mask(data: np.ndarray, mask: np.ndarray) -> tuple:
    """(crop, box): ``data`` cut to ``mask``'s bounding box dilated by
    ``MASK_DILATION_VOXELS`` and zeroed outside the mask.  Training and
    inference both crop here."""
    box = tuple(
        slice(max(int(ax.min()) - MASK_DILATION_VOXELS, 0),
              min(int(ax.max()) + 1 + MASK_DILATION_VOXELS, n))
        for ax, n in zip(np.nonzero(mask), mask.shape)
    )
    sub = data[box].copy()
    sub[~mask[box]] = 0
    return sub, box


def predict_view(cfg: StageConfig, model: SoftmaxModel, vol: GrayVolume, axis: ViewAxis,
                 jobs: int = 1, slices: slice = None) -> LabelVolume:
    """Label the ``axis`` slices of ``vol`` with the stage's class names.

    ``slices`` picks the slices to label (default all); the others are
    labelled Background.  They are walked in contiguous slabs of the whole
    number of slices nearest ``_VOXELS_PER_SLAB`` voxels (at least one), so a
    slab of 9k-voxel slices holds two.  Each slab takes one call per stage filter,
    one feature-bank call over the whole slab and one ``predict_index`` call
    (the argmax of the logits), and its labels are written straight into the
    output.  With ``jobs`` of 2 or more, this process labels the first half
    of the slabs while one forked child labels the second half and sends
    back only their labels (``core.fork_map``, which runs both halves here
    for one slab, one job, a platform other than Linux or a live second
    thread).  The labels are the same either way.
    """
    stack = view_stack(vol.data, axis)
    n, a, b = stack.shape
    start, stop, _ = (slices or slice(None)).indices(n)
    per_slab = max(1, round(_VOXELS_PER_SLAB / (a * b)))
    labels = np.zeros(vol.data.shape, dtype=np.uint8)
    out = view_stack(labels, axis)
    classes = np.asarray(model.class_subset, dtype=np.uint8)

    def label(run: slice):
        for first in range(run.start, run.stop, per_slab):
            last = min(first + per_slab, run.stop)
            imgs = _apply_filters(stack[first:last], cfg)
            feats = stack_features(imgs, chunk_voxels=imgs.size).reshape(-1, N_FEATURES)
            out[first:last] = classes[model.predict_index(feats)].reshape(imgs.shape)
        return out[run]  # a forked child writes into its own copy of ``labels``

    firsts = range(start, stop, per_slab)
    cut = firsts[(len(firsts) + 1) // 2] if len(firsts) > 1 else stop
    runs = [run for run in (slice(start, cut), slice(cut, stop)) if run.start < run.stop]
    for run, sent in zip(runs, fork_map(label, runs, jobs)):
        out[run] = sent
    return LabelVolume(labels, vol.voxel_size_um, cfg.output_names)


def _occupied(mask: np.ndarray, axis: ViewAxis) -> slice:
    """The run of ``axis`` slices from the first to the last that holds a mask voxel."""
    held = np.flatnonzero(view_stack(mask, axis).any(axis=(1, 2)))
    return slice(int(held[0]), int(held[-1]) + 1)


def recorded_config(cfg: StageConfig, model) -> StageConfig:
    """``cfg`` with the preprocessing that ``model`` records: the filter names
    in ``metadata["preprocess"]`` and the ``FilterConfig`` fields in
    ``metadata["filters"]``, as ``train_stage`` writes them.  What the model
    does not record keeps ``cfg``'s value.  A malformed record raises
    ``FormatError`` naming the stage."""
    try:
        fc = model.metadata.get("filters", json_fields(cfg.filter_config))
        return replace(cfg, preprocess=model.metadata.get("preprocess", cfg.preprocess),
                       filter_config=from_json_fields(FilterConfig, fc, "filters", ConfigError))
    except (ConfigError, TypeError) as err:
        raise FormatError(f"stage {cfg.stage} model records malformed preprocessing: "
                          f"{err}") from err


def _check_model(cfg: StageConfig, model) -> None:
    """Raise ``ConfigError`` for a model of other classes than the stage's, one
    whose ``metadata["stage"]`` names another stage, or one that records other
    preprocessing than ``cfg``'s (``recorded_config``)."""
    if model.class_subset != cfg.class_subset:
        raise ConfigError(f"stage {cfg.stage} needs a model of classes {cfg.class_subset}, "
                          f"got one of {model.class_subset}")
    trained_for = model.metadata.get("stage", cfg.stage)  # train_stage's models name it
    if trained_for != cfg.stage:
        raise ConfigError(f"stage {cfg.stage} got a model trained for stage {trained_for!r}")
    if (recorded := recorded_config(cfg, model)) != cfg:
        raise ConfigError(f"stage {cfg.stage} runs {cfg}, its model was trained for {recorded}")


def run_stage(cfg: StageConfig, model, vol: GrayVolume,
              ventricle_mask: LabelVolume = None, jobs: int = 1) -> LabelVolume:
    """Tri-view inference for one stage: predict per view, fuse, and for
    stage 1 fill holes.

    Masked stages crop to the mask's bounding box (dilated by
    ``MASK_DILATION_VOXELS``), zero the voxels outside the mask, and force
    them to Background in the output.  So each view labels only the slices
    from its first to its last one holding a mask voxel: the voxels of the
    others end as Background whatever their label.  They fill no holes
    (see the module docstring).  A model of other classes, one whose
    ``metadata["stage"]`` names another stage, or one that records other
    preprocessing than ``cfg``'s raises ``ConfigError`` (``_check_model``).
    """
    _check_model(cfg, model)
    names = cfg.output_names
    if cfg.mask_to_ventricle:
        if ventricle_mask is None:
            raise ConfigError(f"stage {cfg.stage} requires a ventricle mask")
        if ventricle_mask.dims != vol.dims:
            raise ShapeError(
                f"mask dims {ventricle_mask.dims} != volume dims {vol.dims}")
        mask = ventricle_mask.data != 0
        if not mask.any():
            return LabelVolume(np.zeros(vol.data.shape, dtype=np.uint8),
                               vol.voxel_size_um, names)
        sub, box = _crop_to_mask(vol.data, mask)
        work = GrayVolume(sub, vol.voxel_size_um)
        spans = [_occupied(mask[box], ax) for ax in ViewAxis]
    elif ventricle_mask is not None:
        raise ConfigError(f"stage {cfg.stage} does not take a ventricle mask")
    else:
        work, spans = vol, [None] * len(ViewAxis)

    views = [predict_view(cfg, model, work, ax, jobs, span) for ax, span in zip(ViewAxis, spans)]
    fused = mode_fuse(*views)
    if not cfg.mask_to_ventricle:
        return fill_holes_3d(fused)
    full = np.zeros(vol.data.shape, dtype=np.uint8)
    full[box] = np.where(mask[box], fused.data, 0)
    return LabelVolume(full, vol.voxel_size_um, names)


def ensemble(stage1: LabelVolume, lacunary: LabelVolume,
             compacta: LabelVolume) -> LabelVolume:
    """Merge the stage outputs by the fixed priority rules.

    Atrium and Bulbus from stage 1 override the binary stages; inside the
    stage-1 Ventricle region Compacta beats Lacunary beats Ventricle;
    stage-1 Background is final.
    """
    if not (stage1.dims == lacunary.dims == compacta.dims):
        raise ShapeError(
            f"dims mismatch: {stage1.dims} vs {lacunary.dims} vs {compacta.dims}")
    out = stage1.data.copy()
    ventricle = out == ClassId.VENTRICLE
    out[ventricle & (lacunary.data != 0)] = ClassId.LACUNARY
    out[ventricle & (compacta.data != 0)] = ClassId.COMPACTA
    return LabelVolume(out, stage1.voxel_size_um, CLASS_NAMES)


def _histogram(vol: LabelVolume) -> dict:
    counts = np.bincount(vol.data.ravel(), minlength=len(vol.class_names))
    return {vol.class_names[i]: int(counts[i]) for i in range(len(vol.class_names))}


def run_full(models: dict, vol: GrayVolume, jobs: int = 1,
             config_snapshot: dict = None) -> tuple:
    """Stage 1 -> ventricle mask -> stages 2 and 3 -> ensemble.

    Each stage preprocesses its slices as its model records
    (``recorded_config``); a model that records nothing gets the stage
    default.  Returns the final six-class volume and a report dict with
    label histograms and per-stage timings.  Strip the timings (see
    ``canonical_report``) before comparing reports across runs.  All three
    models are read and checked against their stages before stage 1 runs.
    """
    cfgs = {stage: recorded_config(StageConfig(stage), models[stage]) for stage in (1, 2, 3)}
    for stage in (1, 2, 3):
        _check_model(cfgs[stage], models[stage])
    timings = {}

    def timed(key, fn):
        t0 = time.perf_counter()
        out = fn()
        timings[key] = time.perf_counter() - t0
        return out

    stage1 = timed("stage1", lambda: run_stage(cfgs[1], models[1], vol, None, jobs))
    mask = ventricle_mask_from_stage1(stage1)
    lacunary = timed("stage2", lambda: run_stage(cfgs[2], models[2], vol, mask, jobs))
    compacta = timed("stage3", lambda: run_stage(cfgs[3], models[3], vol, mask, jobs))
    final = timed("ensemble", lambda: ensemble(stage1, lacunary, compacta))
    report = {
        "label_histograms": {
            "stage1": _histogram(stage1),
            "stage2": _histogram(lacunary),
            "stage3": _histogram(compacta),
            "final": _histogram(final),
        },
        "config": config_snapshot or {},
        "timings": timings,
    }
    return final, report


def canonical_report(report: dict) -> dict:
    """Report with wall-clock timings removed, safe for byte comparison."""
    return {k: v for k, v in report.items() if k != "timings"}


def stage_training_stacks(cfg: StageConfig, cohort) -> list:
    """Remap a (gray, gt) cohort into the stage's training space.

    Masked stages crop to the ground-truth ventricle complex, zero the
    gray values outside it, and mark out-of-mask labels with a sentinel
    the trainer skips.  The gray volumes are not filtered: ``train_stage``
    has the trainer filter the slices it samples, as inference filters each
    slab (``_apply_filters``).
    """
    stacks = []
    for gray, gt in cohort:
        if gray.dims != gt.dims:
            raise ShapeError(f"gray dims {gray.dims} != gt dims {gt.dims}")
        target, names = stage_gt(cfg, gt), cfg.output_names
        if cfg.mask_to_ventricle:
            mask = np.isin(gt.data, VENTRICLE_COMPLEX)
            if not mask.any():
                continue
            sub, box = _crop_to_mask(gray.data, mask)
            gray = GrayVolume(sub, gray.voxel_size_um)
            target = np.where(mask[box], target[box], np.uint8(EXCLUDED_LABEL))
            names += ("Excluded",)
        stacks.append((gray, LabelVolume(target, gt.voxel_size_um, names)))
    return stacks


def train_stage(cfg: StageConfig, cohort, seed: int = 0, protocol: dict = None,
                **model_kw) -> tuple:
    """Train one stage's model on a (gray, gt) cohort; returns (model, history).

    The tiles are sampled by a ``TrainProtocol`` of the stage's tile size,
    ``seed`` and the shared ``protocol`` keys (slice stride, validation
    fraction, tiles per slice per epoch).  The trainer runs the stage's
    filters (``_apply_filters``) on the slices it samples, just before their
    feature bank.  Extra keywords configure the SoftmaxModel.  The model's
    metadata records the ``stage``, so ``run_full`` refuses it at another
    stage, and the ``preprocess`` filter names and the ``filters`` fields,
    so ``run_full`` preprocesses its slices as here.
    """
    proto = TrainProtocol(tile_size=cfg.tile_size, seed=seed, **(protocol or {}))
    model = SoftmaxModel(class_subset=cfg.class_subset, metadata={
        "stage": cfg.stage, "preprocess": list(cfg.preprocess),
        "filters": json_fields(cfg.filter_config)}, **model_kw)
    stacks = stage_training_stacks(cfg, cohort)
    if not stacks:
        raise TrainingError(f"no training stack contains the stage {cfg.stage} mask")
    return train(model, stacks, proto, lambda stack: _apply_filters(stack, cfg))


def train_all_stages(cohort, cfgs: dict = None, protocol: dict = None, seed: int = 0,
                     jobs: int = None, **model_kw) -> tuple:
    """Train the three stage models; returns ({stage: model}, {stage: history}).

    Stage ``s`` trains by ``train_stage`` with the seed ``seed + s`` and the
    shared ``protocol`` keys; extra keywords configure every SoftmaxModel.
    Each stage trains on the ground truth alone, so the stages run side by
    side: with ``jobs`` of 2 or more (None means every available CPU),
    this process trains stage 1, the longest, while one forked child
    trains stages 2 and 3 (``core.fork_map``).  The fork is made on Linux
    only; elsewhere, and for ``jobs=1``, the stages train one after
    another in this process.  The models and histories are the same,
    bit for bit, either way.
    """
    cfgs = cfgs or default_stage_configs()

    def fit(stage):
        return train_stage(cfgs[stage], cohort, seed + stage, protocol, **model_kw)

    fitted = dict(zip((1, 2, 3), fork_map(fit, (1, 2, 3), jobs)))
    return ({s: model for s, (model, _) in fitted.items()},
            {s: history for s, (_, history) in fitted.items()})
