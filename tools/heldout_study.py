"""Held-out segmentation study: train on two phantoms, segment a third.

For each seed s, the cohort is ``split_cohort(default_spec(64, s), 3)``,
scanned at 90 angles x 2 degrees x 96 bins and reconstructed at each dose.
At every dose, ``train_all_stages(seed=s, epochs=150, learning_rate=0.05,
batch_size=1024)`` fits the three stages on samples 0 and 1, and
``run_full`` segments sample 2.

    PYTHONPATH=src python3 tools/heldout_study.py [--seeds 0-26,40] [--doses 1,2,3]
                                                  [--jobs N]

prints one JSON line per seed and dose: the weighted IoU against sample
2's ground truth and the IoU of each of its classes, the share of its
stage-1 Ventricle labelled Compacta (near 1 when a closed compacta shell
swallows the lumen) and the sha256 of the final volume, so two versions
of the code can be compared volume by volume.  Each seed and dose takes a few seconds on two CPUs.
"""

import argparse
import hashlib
import json

import numpy as np

from tomoseg.config import ExperimentConfig
from tomoseg.core import AcquisitionConfig, ClassId
from tomoseg.evaluate import evaluate_volumes, reconstruct_cohort
from tomoseg.phantom import default_spec
from tomoseg.pipeline import VENTRICLE_COMPLEX, run_full, train_all_stages

N = 64
ACQUISITION = AcquisitionConfig(n_projections=90, angular_step_deg=2.0, detector_bins=96)
MODEL = {"epochs": 150, "learning_rate": 0.05, "batch_size": 1024}


def _numbers(text: str) -> list:
    """``"0-3,7"`` -> [0, 1, 2, 3, 7]."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def study_seed(seed: int, doses, jobs: int = None):
    """Yield one result dict per dose for the cohort of ``seed``."""
    cfg = ExperimentConfig(seed=seed, cohort_size=3, doses=tuple(doses),
                           phantom=default_spec(N, seed), acquisition=ACQUISITION)
    recons, gts = reconstruct_cohort(cfg, jobs=jobs)
    for dose in doses:
        grays = recons[f"D{dose}"]
        models, _ = train_all_stages(list(zip(grays[:2], gts[:2])), seed=seed, jobs=jobs,
                                     **MODEL)
        final, _ = run_full(models, grays[2], jobs=jobs)
        scores = evaluate_volumes(final, gts[2])
        ventricle = np.isin(final.data, VENTRICLE_COMPLEX)
        compacta = float((final.data == ClassId.COMPACTA).sum() / max(ventricle.sum(), 1))
        yield {"seed": seed, "dose": f"D{dose}",
               "weighted_iou": round(scores.weighted_iou, 6),
               "per_class_iou": {name: round(v, 6) for name, v in scores.per_class_iou.items()},
               "compacta_share": round(compacta, 4),
               "sha256": hashlib.sha256(final.data.tobytes()).hexdigest()}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-26,40", help="seeds, e.g. 0-26,40")
    parser.add_argument("--doses", default="1,2,3", help="doses, e.g. 1,3")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes and threads (default: every CPU)")
    args = parser.parse_args(argv)
    for seed in _numbers(args.seeds):
        for row in study_seed(seed, _numbers(args.doses), args.jobs):
            print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
