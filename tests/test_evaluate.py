"""Metric oracles, CV harness structure, and dose-matrix plumbing tests."""

import json

import numpy as np
import pytest

from tomoseg.core import GrayVolume, LabelVolume, rng_for_seed
from tomoseg.errors import ConfigError, DataError, MetricError, ShapeError
from tomoseg.evaluate import DoseMatrix, FoldScores, RunReport, class_frequencies, \
    dose_matrix, evaluate_volumes, iou, kfold_cv, per_class_iou, weighted_iou


def lab(data):
    return LabelVolume(np.asarray(data, dtype=np.uint8), 5.0)


def lab_from_flat(flat, shape=(4, 5, 5)):
    return lab(np.asarray(flat, dtype=np.uint8).reshape(shape))


def set_iou(a, b, cid):
    """Independent oracle: Jaccard on python sets of flat indices."""
    sa = set(np.flatnonzero(a.data.ravel() == cid))
    sb = set(np.flatnonzero(b.data.ravel() == cid))
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


class TestIoU:
    def test_identical_is_one(self):
        v = lab(np.ones((3, 3, 3)))
        assert iou(v, v, 1) == 1.0

    def test_disjoint_is_zero(self):
        a = np.zeros((2, 2, 2), dtype=np.uint8)
        b = np.zeros((2, 2, 2), dtype=np.uint8)
        a[0, 0, 0] = 1
        b[1, 1, 1] = 1
        assert iou(lab(a), lab(b), 1) == 0.0

    def test_two_vs_two_overlap_one(self):
        # pred {p1,p2}, gt {p2,p3}: intersection 1, union 3
        a = np.zeros((1, 1, 4), dtype=np.uint8)
        b = np.zeros((1, 1, 4), dtype=np.uint8)
        a[0, 0, 0] = a[0, 0, 1] = 1
        b[0, 0, 1] = b[0, 0, 2] = 1
        assert iou(lab(a), lab(b), 1) == pytest.approx(1 / 3, abs=1e-15)

    def test_both_empty_is_one(self):
        v = lab(np.zeros((2, 2, 2)))
        assert iou(v, v, 5) == 1.0

    def test_dims_mismatch(self):
        with pytest.raises(ShapeError):
            iou(lab(np.zeros((2, 2, 2))), lab(np.zeros((2, 2, 3))), 0)

    def test_symmetry_and_set_oracle_on_random_volumes(self):
        rng = rng_for_seed(0, 7)
        for trial in range(100):
            a = lab(rng.integers(0, 6, size=(16, 16, 16)))
            b = lab(rng.integers(0, 6, size=(16, 16, 16)))
            for cid in (0, 2, 5):
                got = iou(a, b, cid)
                assert got == pytest.approx(set_iou(a, b, cid), abs=1e-12)
                assert got == iou(b, a, cid)


class TestWeightedIoU:
    def test_hand_example(self):
        # gt: 75 voxels of class 1, 25 of class 2 -> weights 0.75 / 0.25
        gt = lab_from_flat([1] * 75 + [2] * 25)
        # class 1: 60 hits out of union 75 -> IoU 0.8
        # class 2: 10 hits out of union 25 -> IoU 0.4
        pred = lab_from_flat([1] * 60 + [0] * 15 + [2] * 10 + [0] * 15)
        assert weighted_iou(pred, gt) == pytest.approx(0.75 * 0.8 + 0.25 * 0.4, abs=1e-12)
        assert weighted_iou(pred, gt) == pytest.approx(0.7, abs=1e-12)

    def test_perfect_prediction(self):
        gt = lab(rng_for_seed(1, 7).integers(0, 6, size=(8, 8, 8)))
        assert weighted_iou(gt, gt) == pytest.approx(1.0, abs=1e-12)

    def test_single_class_gt_equals_that_iou(self):
        gt = lab(np.full((4, 4, 4), 3))
        pred3 = np.full((4, 4, 4), 3, dtype=np.uint8)
        pred3[0] = 0
        pred = lab(pred3)
        assert weighted_iou(pred, gt) == pytest.approx(iou(pred, gt, 3), abs=1e-15)

    def test_uniform_frequencies_equal_macro_mean(self):
        gt = lab_from_flat([1] * 50 + [2] * 50)
        pred = lab_from_flat([1] * 40 + [0] * 10 + [2] * 30 + [1] * 20)
        macro = (iou(pred, gt, 1) + iou(pred, gt, 2)) / 2
        assert weighted_iou(pred, gt) == pytest.approx(macro, abs=1e-12)

    def test_background_excluded_by_default(self):
        gt = lab_from_flat([0] * 96 + [1] * 4)
        pred = lab_from_flat([0] * 100)  # nails background, misses class 1
        assert weighted_iou(pred, gt) == 0.0
        with_bg = weighted_iou(pred, gt, include_background=True)
        assert with_bg == pytest.approx(0.96 * (96 / 100), abs=1e-12)

    def test_all_background_gt_raises(self):
        gt = lab(np.zeros((3, 3, 3)))
        with pytest.raises(MetricError):
            weighted_iou(gt, gt)
        assert weighted_iou(gt, gt, include_background=True) == 1.0

    def test_weights_come_from_gt_not_pred(self):
        a = lab_from_flat([1] * 90 + [2] * 10)
        b = lab_from_flat([1] * 50 + [2] * 50)
        assert weighted_iou(a, b) != pytest.approx(weighted_iou(b, a), abs=1e-6)

    def test_frequencies_sum_to_one(self):
        gt = lab(rng_for_seed(2, 7).integers(0, 6, size=(9, 9, 9)))
        for include in (False, True):
            freqs = class_frequencies(gt, include)
            assert sum(freqs.values()) == pytest.approx(1.0, abs=1e-12)
            assert (0 in freqs) == include

    def test_per_class_iou_covers_union_of_label_sets(self):
        a = lab_from_flat([0] * 50 + [1] * 50)
        b = lab_from_flat([0] * 50 + [2] * 50)
        table = per_class_iou(a, b)
        assert set(table) == {0, 1, 2}
        assert table[0] == 1.0 and table[1] == 0.0 and table[2] == 0.0


class TestKFold:
    def test_k_must_match_cohort(self):
        with pytest.raises(ConfigError):
            kfold_cv([1, 2, 3], 2, lambda s: None, lambda m, s: 0.0)

    def test_constant_eval(self):
        fs = kfold_cv([1, 2, 3], 3, lambda s: None, lambda m, s: 0.5)
        assert fs.scores == (0.5, 0.5, 0.5)
        assert fs.mean == 0.5 and fs.std == 0.0

    def test_leave_one_out_structure(self):
        seen = []
        def train_fn(stacks):
            seen.append(tuple(stacks))
            return tuple(stacks)
        def eval_fn(model, stack):
            assert stack not in model
            return float(stack)
        fs = kfold_cv([10, 20, 30], 3, train_fn, eval_fn)
        assert seen == [(20, 30), (10, 30), (10, 20)]
        assert fs.scores == (10.0, 20.0, 30.0)

    def test_sample_std(self):
        fs = FoldScores((0.4, 0.5, 0.6))
        assert fs.mean == pytest.approx(0.5, abs=1e-15)
        assert fs.std == pytest.approx(0.1, abs=1e-12)  # n-1 denominator
        assert str(fs) == "0.500±0.100"


def tagged_volume(value):
    return GrayVolume(np.full((2, 2, 2), value, dtype=np.uint16), 5.0)


class TestDoseMatrix:
    def make_inputs(self, n=3):
        recons = {f"D{d}": [tagged_volume(1000 * d + j) for j in range(n)]
                  for d in (1, 2, 3)}
        gts = [lab(np.full((2, 2, 2), 1)) for _ in range(n)]
        return recons, gts

    def test_structure_and_fold_content(self):
        recons, gts = self.make_inputs()
        def train_fn(stacks):
            return tuple(sorted(int(g.data[0, 0, 0]) for g, _ in stacks))
        def eval_fn(model, gray, gt):
            return (sum(model) % 97 + int(gray.data[0, 0, 0]) % 89) / 1000.0
        mat = dose_matrix(recons, gts, train_fn, eval_fn)
        assert mat.rows == (("D1",), ("D2",), ("D3",), ("D1", "D2"))
        assert mat.cols == ("D1", "D2", "D3")
        assert len(mat.cells) == 12
        # recompute one cell by hand: row D1+D2, test D3, fold i
        for i in range(3):
            model = tuple(sorted(1000 * d + j for d in (1, 2) for j in range(3) if j != i))
            want = (sum(model) % 97 + (3000 + i) % 89) / 1000.0
            assert mat.cell("D1+D2", "D3").scores[i] == pytest.approx(want, abs=1e-15)

    def test_one_model_per_row_and_fold(self):
        recons, gts = self.make_inputs()
        calls = []
        def train_fn(stacks):
            calls.append(1)
            return None
        mat = dose_matrix(recons, gts, train_fn, lambda m, g, t: 0.5)
        assert sum(calls) == 4 * 3  # rows x folds, not rows x folds x test doses
        assert all(fs.mean == 0.5 for fs in mat.cells.values())

    def test_missing_dose_raises(self):
        recons, gts = self.make_inputs()
        del recons["D3"]
        with pytest.raises(DataError, match="D3"):
            dose_matrix(recons, gts, lambda s: None, lambda m, g, t: 0.5)

    def test_misaligned_stack_count_raises(self):
        recons, gts = self.make_inputs()
        recons["D2"] = recons["D2"][:2]
        with pytest.raises(DataError, match="D2"):
            dose_matrix(recons, gts, lambda s: None, lambda m, g, t: 0.5)

    def test_table_and_dict_rendering(self):
        recons, gts = self.make_inputs()
        mat = dose_matrix(recons, gts, lambda s: None, lambda m, g, t: 0.25)
        text = mat.format_table()
        lines = text.splitlines()
        assert len(lines) == 5
        assert "D1+D2" in lines[4]
        assert text.count("0.250±0.000") == 12
        doc = mat.to_dict()
        assert doc["rows"] == ["D1", "D2", "D3", "D1+D2"]
        assert doc["cells"]["D1->D2"]["mean"] == 0.25


class TestRunReport:
    def test_evaluate_volumes_names_and_scores(self):
        gt = lab_from_flat([1] * 75 + [2] * 25)
        pred = lab_from_flat([1] * 60 + [0] * 15 + [2] * 10 + [0] * 15)
        rep = evaluate_volumes(pred, gt, seed=3, dose="D1")
        assert rep.weighted_iou == pytest.approx(0.7, abs=1e-12)
        assert rep.per_class_iou == {"Atrium": pytest.approx(0.8),
                                     "Ventricle": pytest.approx(0.4)}
        assert rep.class_frequencies == {"Atrium": 0.75, "Ventricle": 0.25}
        assert rep.dose == "D1" and rep.seed == 3

    def test_each_class_is_scored_once(self, monkeypatch):
        from tomoseg import evaluate

        calls = []

        def counted(pred, gt, class_id):
            calls.append(class_id)
            return iou(pred, gt, class_id)

        monkeypatch.setattr(evaluate, "iou", counted)
        gt = lab_from_flat([0] * 20 + [1] * 50 + [2] * 25 + [4] * 5)
        pred = lab_from_flat([1] * 60 + [0] * 15 + [2] * 10 + [0] * 15)
        evaluate_volumes(pred, gt)
        assert calls == [1, 2, 4]
        calls.clear()
        evaluate_volumes(pred, gt, include_background=True)
        assert calls == [0, 1, 2, 4]

    @pytest.mark.parametrize("include_background", [False, True])
    def test_weighted_iou_is_the_report_score(self, include_background):
        rng = rng_for_seed(13)
        for _ in range(20):
            gt = lab(rng.integers(0, 6, size=(4, 5, 6)))
            pred = lab(rng.integers(0, 6, size=(4, 5, 6)))
            rep = evaluate_volumes(pred, gt, include_background)
            assert weighted_iou(pred, gt, include_background) == rep.weighted_iou
            freqs = class_frequencies(gt, include_background)
            assert rep.weighted_iou == sum(f * iou(pred, gt, c) for c, f in freqs.items())

    def test_invariants_enforced(self):
        with pytest.raises(MetricError):
            RunReport(1.2, {}, {})
        with pytest.raises(MetricError):
            RunReport(0.5, {}, {"atrium": 0.4, "ventricle": 0.4})

    def test_save_is_stable(self, tmp_path):
        rep = RunReport(0.5, {"atrium": 0.5}, {"atrium": 1.0},
                        config={"seed": 1})
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        rep.save(p1)
        rep.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        doc = json.loads(p1.read_text())
        assert doc["weighted_iou"] == 0.5 and "timings" not in doc


def test_the_dose_study_forwards_jobs_to_the_operators(monkeypatch):
    from tomoseg import evaluate, tomo
    from tomoseg.config import ExperimentConfig
    from tomoseg.core import AcquisitionConfig
    from tomoseg.phantom import default_spec

    seen = []

    def recording(op):
        def call(*args):
            seen.append((op.__name__, args[-1]))
            return op(*args)
        return call

    for name in ("forward_project", "fbp_reconstruct"):
        monkeypatch.setattr(tomo, name, recording(getattr(tomo, name)))
    cfg = ExperimentConfig(cohort_size=1, phantom=default_spec(n=48, seed=7),
                           acquisition=AcquisitionConfig(20, 9.0, 70), doses=(1, 2))
    recons, _ = evaluate.reconstruct_cohort(cfg, jobs=1)
    assert sorted(recons) == ["D1", "D2"]
    assert seen == [("forward_project", 1), ("fbp_reconstruct", 1), ("fbp_reconstruct", 1)]

    def stop(cfg, log, jobs):
        raise RuntimeError(jobs)

    monkeypatch.setattr(evaluate, "reconstruct_cohort", stop)
    with pytest.raises(RuntimeError, match="^1$"):
        evaluate.run_dose_ablation(cfg, jobs=1)
