"""IoU metrics, cross-validation, and the dose-ablation matrix.

The headline number everywhere is the frequency-weighted IoU: per-class
Jaccard scores weighted by how often each class occurs in the ground
truth.  Background is excluded from the weighting by default since it
dominates the volume and would mask errors on the small classes; a flag
restores it.  Fold spreads are sample standard deviations (n-1).
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import LabelVolume, write_json
from .errors import ConfigError, DataError, MetricError, ShapeError

TRAIN_ROWS = (("D1",), ("D2",), ("D3",), ("D1", "D2"))
TEST_DOSES = ("D1", "D2", "D3")


def _check_dims(pred: LabelVolume, gt: LabelVolume) -> None:
    if pred.dims != gt.dims:
        raise ShapeError(f"pred dims {pred.dims} != gt dims {gt.dims}")


def iou(pred: LabelVolume, gt: LabelVolume, class_id: int) -> float:
    """Jaccard index of one class's voxel sets; 1.0 when both are empty."""
    _check_dims(pred, gt)
    p = pred.data == class_id
    g = gt.data == class_id
    union = int(np.logical_or(p, g).sum())
    if union == 0:
        return 1.0
    return int(np.logical_and(p, g).sum()) / union


def class_frequencies(gt: LabelVolume, include_background: bool = False) -> dict[int, float]:
    """Fraction of gt voxels per present class; sums to 1 over included classes."""
    counts = np.bincount(gt.data.ravel())
    freqs = {}
    for cid in np.flatnonzero(counts):
        if cid == 0 and not include_background:
            continue
        freqs[int(cid)] = int(counts[cid])
    total = sum(freqs.values())
    if total == 0:
        raise MetricError("no included class present in the ground truth")
    return {cid: n / total for cid, n in freqs.items()}


def per_class_iou(pred: LabelVolume, gt: LabelVolume,
                  class_ids=None) -> dict[int, float]:
    _check_dims(pred, gt)
    if class_ids is None:
        class_ids = sorted(set(np.unique(pred.data)) | set(np.unique(gt.data)))
    return {int(c): iou(pred, gt, int(c)) for c in class_ids}


def weighted_iou(pred: LabelVolume, gt: LabelVolume,
                 include_background: bool = False) -> float:
    """Sum of per-class IoU weighted by gt class frequency."""
    return evaluate_volumes(pred, gt, include_background).weighted_iou


@dataclass(frozen=True)
class FoldScores:
    """Per-fold scores with their mean and sample standard deviation."""

    scores: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.scores))

    @property
    def std(self) -> float:
        if len(self.scores) < 2:
            return 0.0
        return float(np.std(self.scores, ddof=1))

    def __str__(self):
        return f"{self.mean:.3f}±{self.std:.3f}"


def kfold_cv(cohort, k: int, train_fn, eval_fn) -> FoldScores:
    """Leave-one-stack-out cross-validation; k must equal the cohort size.

    ``train_fn(stacks)`` fits on k-1 stacks; ``eval_fn(fitted, stack)``
    scores the held-out stack.  Fold assignment follows cohort order.
    """
    if k != len(cohort):
        raise ConfigError(f"k={k} must equal the cohort size {len(cohort)}")
    if k < 1:
        raise ConfigError("cohort must not be empty")
    scores = []
    for i in range(k):
        fitted = train_fn([cohort[j] for j in range(k) if j != i])
        scores.append(float(eval_fn(fitted, cohort[i])))
    return FoldScores(tuple(scores))


@dataclass(frozen=True)
class DoseMatrix:
    """Weighted-IoU grid: training dose sets (rows) x test doses (columns)."""

    rows: tuple[tuple[str, ...], ...]
    cols: tuple[str, ...]
    cells: dict

    @staticmethod
    def row_label(row) -> str:
        return "+".join(row)

    def cell(self, row, col) -> FoldScores:
        return self.cells[(self.row_label(row) if not isinstance(row, str) else row, col)]

    def to_dict(self) -> dict:
        return {
            "rows": [self.row_label(r) for r in self.rows],
            "cols": list(self.cols),
            "cells": {
                f"{r}->{c}": {"scores": list(fs.scores), "mean": fs.mean, "std": fs.std}
                for (r, c), fs in sorted(self.cells.items())
            },
        }

    def format_table(self) -> str:
        width = max(12, *(len(self.row_label(r)) for r in self.rows)) + 2
        out = ["train\\test".ljust(width) + "".join(c.rjust(14) for c in self.cols)]
        for r in self.rows:
            label = self.row_label(r)
            cells = "".join(str(self.cells[(label, c)]).rjust(14) for c in self.cols)
            out.append(label.ljust(width) + cells)
        return "\n".join(out)


def dose_matrix(recons: dict, gts, train_fn, eval_fn,
                train_rows=TRAIN_ROWS, test_doses=TEST_DOSES) -> DoseMatrix:
    """Cross-validated weighted IoU for every (train dose set, test dose) pair.

    ``recons`` maps dose names to per-stack reconstructions aligned with
    ``gts``.  One model per (row, fold) is trained on the union of the
    row's doses over the k-1 training stacks, then scored on the held-out
    stack at each test dose.
    """
    needed = {d for row in train_rows for d in row} | set(test_doses)
    for dose in sorted(needed):
        if dose not in recons:
            raise DataError(f"missing reconstructions for dose {dose}")
        if len(recons[dose]) != len(gts):
            raise DataError(
                f"dose {dose} has {len(recons[dose])} stacks, expected {len(gts)}")
    k = len(gts)
    if k < 2:
        raise ConfigError("dose matrix needs at least 2 stacks for cross-validation")
    cells = {(DoseMatrix.row_label(row), col): [] for row in train_rows for col in test_doses}
    for row in train_rows:
        label = DoseMatrix.row_label(row)
        for i in range(k):
            stacks = [(recons[d][j], gts[j]) for d in row for j in range(k) if j != i]
            fitted = train_fn(stacks)
            for col in test_doses:
                cells[(label, col)].append(float(eval_fn(fitted, recons[col][i], gts[i])))
    return DoseMatrix(
        rows=tuple(tuple(r) for r in train_rows),
        cols=tuple(test_doses),
        cells={key: FoldScores(tuple(v)) for key, v in cells.items()},
    )


@dataclass
class RunReport:
    """Evaluation summary for one segmentation run.

    It holds no wall-clock figures, so reports from identical
    configurations compare byte-for-byte.
    """

    weighted_iou: float
    per_class_iou: dict
    class_frequencies: dict

    def __post_init__(self):
        if not (0.0 <= self.weighted_iou <= 1.0) and not math.isnan(self.weighted_iou):
            raise MetricError(f"weighted IoU {self.weighted_iou} outside [0, 1]")
        total = sum(self.class_frequencies.values())
        if self.class_frequencies and abs(total - 1.0) > 1e-9:
            raise MetricError(f"class frequencies sum to {total}, expected 1")

    def to_dict(self) -> dict:
        return {
            "weighted_iou": self.weighted_iou,
            "per_class_iou": {str(k): v for k, v in sorted(self.per_class_iou.items())},
            "class_frequencies": {str(k): v
                                  for k, v in sorted(self.class_frequencies.items())},
        }

    def save(self, path) -> None:
        write_json(path, self.to_dict())


def evaluate_volumes(pred: LabelVolume, gt: LabelVolume,
                     include_background: bool = False) -> RunReport:
    """Score a prediction against ground truth and package the result.

    Each included class is scored once; the weighted IoU sums those scores.
    """
    freqs = class_frequencies(gt, include_background)
    scores = {cid: iou(pred, gt, cid) for cid in freqs}
    return RunReport(
        weighted_iou=sum(f * scores[cid] for cid, f in freqs.items()),
        per_class_iou={gt.class_names[cid]: scores[cid] for cid in freqs},
        class_frequencies={gt.class_names[cid]: f for cid, f in freqs.items()},
    )


def reconstruct_cohort(cfg, log=None, jobs: int = None):
    """Generate the phantom cohort and reconstruct it at every dose.

    Projection and FBP run on ``jobs`` threads (None: every available CPU).
    Returns (recons, gts): dose name -> per-stack GrayVolumes, plus the
    aligned ground-truth volumes.
    """
    from .phantom import split_cohort
    from .tomo import DoseLevel, fbp_reconstruct, forward_project, normalize_to_u16, \
        subsample_dose

    say = log or (lambda msg: None)
    cohort = split_cohort(cfg.phantom, cfg.cohort_size)
    gts = [gt for _, gt in cohort]
    recons = {f"D{k}": [] for k in cfg.doses}
    for i, (atten, _) in enumerate(cohort):
        sino = forward_project(atten, cfg.acquisition, jobs)
        for k in cfg.doses:
            rec = fbp_reconstruct(subsample_dose(sino, DoseLevel(k)),
                                  cfg.phantom.dims, cfg.recon_filter, jobs)
            recons[f"D{k}"].append(
                normalize_to_u16(rec, cfg.acquisition.absorption_window))
            say(f"stack {i}: dose D{k} reconstructed")
    return recons, gts


def run_dose_ablation(cfg, jobs: int = 1, log=None):
    """Train/test over dose combinations; the experiment behind the
    stability claim that mixed-dose training generalizes across doses.

    Returns (DoseMatrix, recons, gts).  Training rows are the single
    doses plus D1+D2 when both are configured.  Projection and FBP run on
    ``jobs`` threads; with ``jobs`` of 2 or more, stage training and each
    predicted view fork one child on Linux (``train_all_stages``,
    ``predict_view``).
    """
    from .pipeline import run_full, train_all_stages

    say = log or (lambda msg: None)
    recons, gts = reconstruct_cohort(cfg, log, jobs)
    cols = tuple(f"D{k}" for k in cfg.doses)
    rows = tuple((c,) for c in cols)
    if {"D1", "D2"} <= set(cols):
        rows += (("D1", "D2"),)

    def train_fn(stacks):
        models, _ = train_all_stages(stacks, cfg.stages, protocol=cfg.protocol,
                                     seed=cfg.seed, jobs=jobs, **cfg.model)
        return models

    def eval_fn(models, gray, gt):
        final, _ = run_full(models, gray, jobs)
        return weighted_iou(final, gt, cfg.include_background)

    matrix = dose_matrix(recons, gts, train_fn, eval_fn, rows, cols)
    say("dose matrix complete")
    return matrix, recons, gts
