"""Held-out segmentation: train on two phantoms, segment a third.

``tools/heldout_study.py`` runs the study; it is loaded by file path, since
``tools`` is not a package.  At seed 10 stage 3 predicts the compacta shell
closed over both ostia.  When the binary stages still filled holes, that
fill labelled the whole ventricle lumen Compacta (weighted IoU 0.27, about
98% of the Ventricle labelled Compacta).
"""

import importlib.util
from pathlib import Path

STUDY = Path(__file__).resolve().parents[1] / "tools" / "heldout_study.py"


def _study():
    spec = importlib.util.spec_from_file_location("heldout_study", STUDY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_held_out_sample_of_seed_10_is_not_flooded():
    (row,) = _study().study_seed(10, [1], jobs=2)
    assert row["weighted_iou"] >= 0.90, row
    assert row["compacta_share"] < 0.5, row
