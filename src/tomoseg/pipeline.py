"""Three-stage segmentation orchestration.

Stage 1 labels the gross anatomy (Background/Atrium/Ventricle/Bulbus,
with the compacta and lacunary voxels folded into Ventricle).  Stages 2
and 3 are binary specialists for the lacunary spaces and the compacta
that see only the ventricle image part: the stage-1 ventricle mask is
cropped to its bounding box (dilated for context), everything outside
the mask is zeroed, and out-of-mask voxels are forced to Background in
the output.  Each stage predicts on all three orthogonal views, fuses
them by per-voxel mode with the XY view breaking ties, and fills
enclosed background cavities.  A view is predicted slab by slab: its
slice stack is cut into contiguous runs of slices of a fixed voxel
budget, and each slab takes one feature-bank call and one argmax over the
model's logits on a shared pool of worker threads.  A fixed rule table
then merges the three stage outputs into the final six-class volume:
Atrium beats everything, Bulbus beats the binary classes, Compacta beats
Lacunary, Lacunary beats Ventricle, and stage-1 Background always stays
Background.
"""

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import CLASS_NAMES, ClassId, GrayVolume, LabelVolume, ViewAxis, fork_map, \
    view_stack, worker_count
from .errors import ConfigError, ShapeError, TrainingError
from .filters import FilterConfig, fill_holes_3d, hist_equalize, median_stack, mode_fuse, \
    unsharp_stack
from .segmodel import N_FEATURES, SoftmaxModel, TrainProtocol, stack_features, train

MASK_DILATION_VOXELS = 8
EXCLUDED_LABEL = 2  # training-only sentinel outside the binary stages' mask
# Voxels per slab of the view predictor, to the nearest whole slice.  Every
# worker thread holds one slab's feature bank and its float64 temporaries,
# about 70 bytes a voxel, so this bounds what inference adds to the peak
# memory; the logits are taken a block of rows at a time.
_VOXELS_PER_SLAB = 1 << 14

STAGE1_NAMES = ("Background", "Atrium", "Ventricle", "Bulbus")
STAGE_TARGETS = {2: ClassId.LACUNARY, 3: ClassId.COMPACTA}
VENTRICLE_COMPLEX = (int(ClassId.VENTRICLE), int(ClassId.COMPACTA), int(ClassId.LACUNARY))
_FILTER_NAMES = ("unsharp", "median", "histeq")

# stage-1 ground truth folds the ventricle interior classes into Ventricle
_STAGE1_LUT = np.array([0, 1, 2, 3, 2, 2], dtype=np.uint8)


@dataclass(frozen=True)
class StageConfig:
    """One stage's class set, tile size, preprocessing, and masking rule."""

    stage: int
    tile_size: int = None
    preprocess: tuple = None
    mask_to_ventricle: bool = None
    filter_config: FilterConfig = field(default_factory=FilterConfig)

    def __post_init__(self):
        if self.stage not in (1, 2, 3):
            raise ConfigError(f"stage must be 1, 2 or 3, got {self.stage}")
        if self.tile_size is None:
            object.__setattr__(self, "tile_size", 400 if self.stage == 1 else 224)
        if self.tile_size < 1:
            raise ConfigError(f"tile_size must be >= 1, got {self.tile_size}")
        if self.preprocess is None:
            object.__setattr__(self, "preprocess",
                               ("unsharp",) if self.stage == 2 else ())
        object.__setattr__(self, "preprocess", tuple(self.preprocess))
        for name in self.preprocess:
            if name not in _FILTER_NAMES:
                raise ConfigError(f"unknown preprocessing filter {name!r}")
        if self.mask_to_ventricle is None:
            object.__setattr__(self, "mask_to_ventricle", self.stage != 1)
        if self.stage in (2, 3) and not self.mask_to_ventricle:
            raise ConfigError(f"stage {self.stage} requires mask_to_ventricle")
        if self.stage == 1 and self.mask_to_ventricle:
            raise ConfigError("stage 1 produces the mask and cannot consume one")

    @property
    def class_subset(self) -> tuple:
        return (0, 1, 2, 3) if self.stage == 1 else (0, 1)

    @property
    def output_names(self) -> tuple:
        if self.stage == 1:
            return STAGE1_NAMES
        return ("Background", CLASS_NAMES[STAGE_TARGETS[self.stage]])


def default_stage_configs(filter_config: FilterConfig = FilterConfig()) -> dict:
    """Every stage's default config, all three sharing ``filter_config``."""
    return {s: StageConfig(stage=s, filter_config=filter_config) for s in (1, 2, 3)}


def stage_gt(cfg: StageConfig, gt: LabelVolume) -> np.ndarray:
    """Remap six-class ground truth to the stage's label space."""
    if cfg.stage == 1:
        return _STAGE1_LUT[gt.data]
    return (gt.data == STAGE_TARGETS[cfg.stage]).astype(np.uint8)


def ventricle_mask_from_gt(gt: LabelVolume) -> LabelVolume:
    """Binary mask of the ventricle complex (ventricle + compacta + lacunary)."""
    mask = np.isin(gt.data, VENTRICLE_COMPLEX).astype(np.uint8)
    return LabelVolume(mask, gt.voxel_size_um, ("Background", "Ventricle"))


def ventricle_mask_from_stage1(stage1: LabelVolume) -> LabelVolume:
    mask = (stage1.data == ClassId.VENTRICLE).astype(np.uint8)
    return LabelVolume(mask, stage1.voxel_size_um, ("Background", "Ventricle"))


def _apply_filters(stack: np.ndarray, names, fc: FilterConfig) -> np.ndarray:
    """The stage's 2D filters on every slice of an (n, a, b) stack."""
    for name in names:
        if name == "unsharp":
            stack = unsharp_stack(stack, fc.unsharp_sigma, fc.unsharp_amount)
        elif name == "median":
            stack = median_stack(stack, fc.median_radius)
        elif name == "histeq":
            stack = np.stack([hist_equalize(img, fc.histeq_bins) for img in stack])
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


def preprocess_volume(vol: GrayVolume, names, fc: FilterConfig) -> GrayVolume:
    """Apply the stage's 2D filters to every axial slice."""
    if not names:
        return vol
    data = np.empty_like(vol.data)
    view_stack(data, ViewAxis.XY)[...] = _apply_filters(view_stack(vol.data, ViewAxis.XY),
                                                        names, fc)
    return GrayVolume(data, vol.voxel_size_um)


def predict_view(cfg: StageConfig, model: SoftmaxModel, vol: GrayVolume, axis: ViewAxis,
                 jobs: int = 1, slices: slice = None) -> LabelVolume:
    """Label the ``axis`` slices of ``vol`` with the stage's class names.

    ``slices`` picks the slices to label (default all); the others are
    labelled Background.  They are walked in contiguous slabs of the whole
    number of slices nearest ``_VOXELS_PER_SLAB`` voxels (at least one), so a
    slab of 9k-voxel slices holds two.  Each slab takes one call per stage filter,
    one feature-bank call and one ``predict_index`` call (the argmax of the
    logits), and its labels are written straight into the output.  ``jobs``
    worker threads share the slabs.  The bank takes a slab in one chunk:
    the slab size already bounds its memory, and fewer, longer numpy calls
    wait less on the other thread for the GIL.
    """
    stack = view_stack(vol.data, axis)
    n, a, b = stack.shape
    start, stop, _ = (slices or slice(None)).indices(n)
    per_slab = max(1, round(_VOXELS_PER_SLAB / (a * b)))
    labels = np.zeros(vol.data.shape, dtype=np.uint8)
    out = view_stack(labels, axis)
    classes = np.asarray(model.class_subset, dtype=np.uint8)

    def slab(first: int) -> None:
        last = min(first + per_slab, stop)
        imgs = _apply_filters(stack[first:last], cfg.preprocess, cfg.filter_config)
        feats = stack_features(imgs, chunk_voxels=imgs.size).reshape(-1, N_FEATURES)
        out[first:last] = classes[model.predict_index(feats)].reshape(imgs.shape)

    with ThreadPoolExecutor(max_workers=worker_count(jobs)) as pool:
        list(pool.map(slab, range(start, stop, per_slab)))
    return LabelVolume(labels, vol.voxel_size_um, cfg.output_names)


def _occupied(mask: np.ndarray, axis: ViewAxis) -> slice:
    """The run of ``axis`` slices from the first to the last that holds a mask voxel."""
    held = np.flatnonzero(view_stack(mask, axis).any(axis=(1, 2)))
    return slice(int(held[0]), int(held[-1]) + 1)


def run_stage(cfg: StageConfig, model, vol: GrayVolume,
              ventricle_mask: LabelVolume = None, jobs: int = 1) -> LabelVolume:
    """Tri-view inference for one stage: predict per view, fuse, fill holes.

    Masked stages crop to the mask's bounding box (dilated by
    ``MASK_DILATION_VOXELS``), zero the voxels outside the mask, and force
    them to Background in the output.  So each view labels only the slices
    from its first to its last one holding a mask voxel: the voxels of the
    others end as Background whatever their label.
    """
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
    inside = mask[box]
    filled = fill_holes_3d(LabelVolume(np.where(inside, fused.data, 0), vol.voxel_size_um, names))
    full = np.zeros(vol.data.shape, dtype=np.uint8)
    full[box] = np.where(inside, filled.data, 0)
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
    s1 = stage1.data
    lac = lacunary.data != 0
    comp = compacta.data != 0
    inner = np.where(comp, np.uint8(ClassId.COMPACTA),
                     np.where(lac, np.uint8(ClassId.LACUNARY),
                              np.uint8(ClassId.VENTRICLE)))
    out = np.where(s1 == ClassId.VENTRICLE, inner, s1).astype(np.uint8)
    return LabelVolume(out, stage1.voxel_size_um, CLASS_NAMES)


def _histogram(vol: LabelVolume) -> dict:
    counts = np.bincount(vol.data.ravel(), minlength=len(vol.class_names))
    return {vol.class_names[i]: int(counts[i]) for i in range(len(vol.class_names))}


def run_full(models: dict, vol: GrayVolume, cfgs: dict = None, jobs: int = 1,
             config_snapshot: dict = None) -> tuple:
    """Stage 1 -> ventricle mask -> stages 2 and 3 -> ensemble.

    Returns the final six-class volume and a report dict with label
    histograms and per-stage timings.  Strip the timings (see
    ``canonical_report``) before comparing reports across runs.
    """
    cfgs = cfgs or default_stage_configs()
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
    the trainer skips.  Preprocessing matches inference.
    """
    stacks = []
    for gray, gt in cohort:
        if gray.dims != gt.dims:
            raise ShapeError(f"gray dims {gray.dims} != gt dims {gt.dims}")
        target = stage_gt(cfg, gt)
        if cfg.mask_to_ventricle:
            mask = np.isin(gt.data, VENTRICLE_COMPLEX)
            if not mask.any():
                continue
            sub, box = _crop_to_mask(gray.data, mask)
            labels = np.where(mask[box], target[box], np.uint8(EXCLUDED_LABEL))
            vol = preprocess_volume(GrayVolume(sub, gray.voxel_size_um),
                                    cfg.preprocess, cfg.filter_config)
            stacks.append((vol, LabelVolume(labels, gt.voxel_size_um,
                                            cfg.output_names + ("Excluded",))))
        else:
            vol = preprocess_volume(gray, cfg.preprocess, cfg.filter_config)
            stacks.append((vol, LabelVolume(target, gt.voxel_size_um, cfg.output_names)))
    return stacks


def train_stage(cfg: StageConfig, cohort, proto: TrainProtocol = None,
                **model_kw) -> tuple:
    """Train one stage's model; extra keywords configure the SoftmaxModel."""
    if proto is None:
        proto = TrainProtocol(tile_size=cfg.tile_size)
    model = SoftmaxModel(class_subset=cfg.class_subset, **model_kw)
    stacks = stage_training_stacks(cfg, cohort)
    if not stacks:
        raise TrainingError(f"no training stack contains the stage {cfg.stage} mask")
    return train(model, stacks, proto)


def train_all_stages(cohort, cfgs: dict = None, protos: dict = None, seed: int = 0,
                     jobs: int = None, **model_kw) -> tuple:
    """Train the three stage models; returns ({stage: model}, {stage: history}).

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
        proto = (protos or {}).get(stage)
        if proto is None:
            proto = TrainProtocol(tile_size=cfgs[stage].tile_size, seed=seed + stage)
        return train_stage(cfgs[stage], cohort, proto, **model_kw)

    fitted = dict(zip((1, 2, 3), fork_map(fit, (1, 2, 3), jobs)))
    return ({s: model for s, (model, _) in fitted.items()},
            {s: history for s, (_, history) in fitted.items()})
