"""Stage orchestration, masking semantics, and ensemble rule tests."""

import json
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tomoseg import pipeline, segmodel
from tomoseg.core import ClassId, GrayVolume, LabelVolume, ViewAxis, json_fields, \
    rng_for_seed, view_stack
from tomoseg.errors import ConfigError, FormatError, ShapeError, TrainingError
from tomoseg.filters import FilterConfig, fill_holes_3d, unsharp_stack
from tomoseg.pipeline import EXCLUDED_LABEL, MASK_DILATION_VOXELS, VENTRICLE_COMPLEX, \
    StageConfig, canonical_report, default_stage_configs, ensemble, predict_view, run_full, \
    run_stage, stage_gt, stage_training_stacks, train_all_stages, train_stage, \
    ventricle_mask_from_stage1
from tomoseg.segmodel import N_FEATURES, SoftmaxModel

BG, ATR, VEN, BUL, COM, LAC = range(6)


def gray(data):
    return GrayVolume(np.asarray(data, dtype=np.uint16), 5.0)


def lab(data, names=None):
    kw = {} if names is None else {"class_names": names}
    return LabelVolume(np.asarray(data, dtype=np.uint8), 5.0, **kw)


def binary_threshold_model(cut=0.5, scale=400.0):
    """Labels a pixel 1 iff its raw intensity exceeds cut (per-pixel rule)."""
    w = np.zeros((2, N_FEATURES + 1))
    w[1, 0] = scale
    w[1, -1] = -scale * cut
    return SoftmaxModel(n_classes=2, weights=w)


def stage1_threshold_model(cut=0.5, scale=400.0):
    """Four-class model that only ever emits Background or Ventricle."""
    w = np.zeros((4, N_FEATURES + 1))
    w[VEN, 0] = scale
    w[VEN, -1] = -scale * cut
    w[ATR, -1] = w[BUL, -1] = -1000.0
    return SoftmaxModel(n_classes=4, weights=w)


class TestStageConfig:
    def test_defaults(self):
        cfgs = default_stage_configs()
        assert (cfgs[1].tile_size, cfgs[1].preprocess, cfgs[1].mask_to_ventricle) == \
            (400, (), False)
        assert (cfgs[2].tile_size, cfgs[2].preprocess, cfgs[2].mask_to_ventricle) == \
            (224, ("unsharp",), True)
        assert (cfgs[3].tile_size, cfgs[3].preprocess, cfgs[3].mask_to_ventricle) == \
            (224, (), True)
        assert (cfgs[1].n_classes, cfgs[2].n_classes, cfgs[3].n_classes) == (4, 2, 2)

    def test_validation(self):
        with pytest.raises(ConfigError):
            StageConfig(stage=4)
        with pytest.raises(ConfigError):
            StageConfig(stage=1, preprocess=("sharpen",))
        with pytest.raises(ConfigError):
            StageConfig(stage=1, tile_size=0)
        with pytest.raises(ConfigError, match="list of filter names"):
            StageConfig(stage=2, preprocess={"unsharp": 1})


class TestStageGroundTruth:
    def test_stage1_folds_interior_classes_into_ventricle(self):
        gt = lab(np.arange(6).reshape(1, 2, 3))
        out = stage_gt(StageConfig(stage=1), gt)
        assert out.tolist() == [[[0, 1, 2], [3, 2, 2]]]

    def test_binary_targets(self):
        gt = lab(np.arange(6).reshape(1, 2, 3))
        lac = stage_gt(StageConfig(stage=2), gt)
        com = stage_gt(StageConfig(stage=3), gt)
        assert lac.tolist() == [[[0, 0, 0], [0, 0, 1]]]
        assert com.tolist() == [[[0, 0, 0], [0, 1, 0]]]

    @pytest.mark.parametrize("stage, oracle", [
        (1, lambda c: VEN if c in (COM, LAC) else c),
        (2, lambda c: int(c == LAC)),
        (3, lambda c: int(c == COM)),
    ])
    def test_every_class_maps_for_every_stage(self, stage, oracle):
        cfg = StageConfig(stage=stage)
        out = stage_gt(cfg, lab(np.arange(6).reshape(1, 1, 6)))
        assert out.dtype == np.uint8
        assert out.ravel().tolist() == [oracle(c) for c in range(6)]
        assert cfg.n_classes == len(cfg.output_names)
        assert cfg.output_names == {1: ("Background", "Atrium", "Ventricle", "Bulbus"),
                                    2: ("Background", "Lacunary"),
                                    3: ("Background", "Compacta")}[stage]

    def test_ventricle_complex_mask(self):
        mask = np.isin(np.arange(6).reshape(1, 2, 3), VENTRICLE_COMPLEX)
        assert mask.astype(int).tolist() == [[[0, 0, 1], [0, 1, 1]]]

    def test_mask_from_stage1_prediction(self):
        s1 = lab(np.array([[[0, 1, 2, 3]]]), ("Background", "Atrium", "Ventricle",
                                              "Bulbus"))
        assert ventricle_mask_from_stage1(s1).data.tolist() == [[[0, 0, 1, 0]]]


def rule_oracle(s1, lac_bit, com_bit):
    """Priority rules, written independently of the implementation."""
    if s1 == ATR:
        return ATR
    if s1 == BUL:
        return BUL
    if s1 == BG:
        return BG
    if com_bit:
        return COM
    if lac_bit:
        return LAC
    return VEN


class TestEnsemble:
    def test_exhaustive_rule_table(self):
        combos = [(s1, l, c) for s1 in (BG, ATR, VEN, BUL) for l in (0, 1)
                  for c in (0, 1)]
        s1 = lab(np.array([c[0] for c in combos]).reshape(1, 4, 4))
        lac = lab(np.array([c[1] for c in combos]).reshape(1, 4, 4),
                  ("Background", "Lacunary"))
        com = lab(np.array([c[2] for c in combos]).reshape(1, 4, 4),
                  ("Background", "Compacta"))
        want = [rule_oracle(*c) for c in combos]
        got = ensemble(s1, lac, com).data.ravel().tolist()
        assert got == want

    def test_named_examples(self):
        one = lambda s, l, c: int(ensemble(
            lab([[[s]]]), lab([[[l]]], ("Background", "Lacunary")),
            lab([[[c]]], ("Background", "Compacta"))).data[0, 0, 0])
        assert one(ATR, 1, 1) == ATR       # Atrium always wins
        assert one(VEN, 1, 1) == COM       # Compacta preferred over Lacunary
        assert one(VEN, 0, 0) == VEN       # no rule fires
        assert one(BG, 1, 1) == BG         # Background is final
        assert one(BUL, 1, 0) == BUL

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.uint8, (3, 4, 5), elements=st.integers(0, 3)),
           arrays(np.uint8, (3, 4, 5), elements=st.integers(0, 1)),
           arrays(np.uint8, (3, 4, 5), elements=st.integers(0, 1)))
    def test_matches_the_nested_where_rule(self, s1, lac, com):
        want = np.where(s1 == VEN, np.where(com != 0, np.uint8(COM),
                                            np.where(lac != 0, np.uint8(LAC), np.uint8(VEN))),
                        s1).astype(np.uint8)
        got = ensemble(lab(s1), lab(lac, ("Background", "Lacunary")),
                       lab(com, ("Background", "Compacta")))
        assert got.data.dtype == np.uint8
        assert np.array_equal(got.data, want)

    def test_dims_mismatch(self):
        with pytest.raises(ShapeError):
            ensemble(lab(np.zeros((2, 2, 2))), lab(np.zeros((2, 2, 3))),
                     lab(np.zeros((2, 2, 2))))


class TestRunStage:
    def ball_volume(self, n=20, r=6.0, lo=10000, hi=60000):
        zz, yy, xx = np.ogrid[:n, :n, :n]
        c = (n - 1) / 2.0
        ball = (xx - c) ** 2 + (yy - c) ** 2 + (zz - c) ** 2 <= r * r
        return gray(np.where(ball, hi, lo)), ball

    def test_unmasked_stage_unanimous_views(self):
        vol, ball = self.ball_volume()
        out = run_stage(StageConfig(stage=1), stage1_threshold_model(), vol)
        # a per-pixel rule gives identical views, so fusion keeps them;
        # a solid ball has no cavities, so hole-filling changes nothing
        assert np.array_equal(out.data, np.where(ball, VEN, BG))
        assert set(np.unique(out.data)) <= {0, 1, 2, 3}

    def test_masked_stage_requires_mask(self):
        vol, _ = self.ball_volume()
        with pytest.raises(ConfigError):
            run_stage(StageConfig(stage=2), binary_threshold_model(), vol)
        with pytest.raises(ConfigError):
            run_stage(StageConfig(stage=1), stage1_threshold_model(), vol,
                      lab(np.ones((20, 20, 20)), ("Background", "Ventricle")))

    def test_mask_dims_checked(self):
        vol, _ = self.ball_volume()
        bad = lab(np.ones((4, 4, 4)), ("Background", "Ventricle"))
        with pytest.raises(ShapeError):
            run_stage(StageConfig(stage=2), binary_threshold_model(), vol, bad)

    def test_empty_mask_gives_all_background(self):
        vol, _ = self.ball_volume()
        empty = lab(np.zeros((20, 20, 20)), ("Background", "Ventricle"))
        out = run_stage(StageConfig(stage=2), binary_threshold_model(), vol, empty)
        assert (out.data == 0).all()
        assert out.dims == vol.dims

    def test_out_of_mask_forced_to_background(self):
        # bright voxels everywhere; mask covers only the central ball
        vol = gray(np.full((20, 20, 20), 60000, dtype=np.uint16))
        _, ball = self.ball_volume()
        mask = lab(ball.astype(np.uint8), ("Background", "Ventricle"))
        out = run_stage(StageConfig(stage=2, preprocess=()),
                        binary_threshold_model(), vol, mask)
        assert np.array_equal(out.data != 0, ball)

    def test_masked_stage_labels_only_slices_holding_the_mask(self, monkeypatch):
        # a model that labels the zeroed out-of-mask voxels 1, so skipped slices would show
        rng = rng_for_seed(19, 42)
        vol = gray(rng.integers(0, 65536, size=(20, 20, 20)))
        _, ball = self.ball_volume(r=4.0)
        mask = lab(ball.astype(np.uint8), ("Background", "Ventricle"))
        model = binary_threshold_model(cut=0.2, scale=-400.0)
        cfg = StageConfig(stage=2)
        got = run_stage(cfg, model, vol, mask)
        picked = []

        def every_slice(cfg, model, vol, axis, jobs=1, slices=None):
            picked.append(slices)
            return predict_view(cfg, model, vol, axis, jobs)

        monkeypatch.setattr(pipeline, "predict_view", every_slice)
        assert np.array_equal(run_stage(cfg, model, vol, mask).data, got.data)
        # the ball spans voxels 6-13 of every axis; the crop starts at 6 - 8 < 0, so at 0
        assert picked == [slice(6, 14)] * 3
        assert got.data[ball].any() and not got.data[~ball].any()

    def test_monotone_masking_for_pixelwise_rule(self):
        vol, ball = self.ball_volume()
        zz, yy, xx = np.ogrid[:20, :20, :20]
        c = (20 - 1) / 2.0
        small = (xx - c) ** 2 + (yy - c) ** 2 + (zz - c) ** 2 <= 4.0 ** 2
        cfg = StageConfig(stage=2, preprocess=())  # keep the rule per-pixel
        model = binary_threshold_model()
        big_out = run_stage(cfg, model, vol, lab(ball.astype(np.uint8),
                                                 ("Background", "Ventricle")))
        small_out = run_stage(cfg, model, vol, lab(small.astype(np.uint8),
                                                   ("Background", "Ventricle")))
        assert (small_out.data != 0).sum() <= (big_out.data != 0).sum()
        assert not small_out.data[~small].any()

    def test_hole_filling_applied_and_idempotent(self):
        # bright shell with a dim cavity: the cavity must be filled
        n = 21
        zz, yy, xx = np.ogrid[:n, :n, :n]
        c = (n - 1) / 2.0
        r2 = (xx - c) ** 2 + (yy - c) ** 2 + (zz - c) ** 2
        shell = (r2 <= 8.0 ** 2) & (r2 > 4.0 ** 2)
        vol = gray(np.where(shell, 60000, 10000))
        out = run_stage(StageConfig(stage=1), stage1_threshold_model(), vol)
        assert (out.data[r2 <= 4.0 ** 2] == VEN).all()
        again = fill_holes_3d(out)
        assert np.array_equal(again.data, out.data)

    def test_masked_stage_leaves_enclosed_lumen_unfilled(self):
        # stage 3 sees a closed bright shell around a dim lumen, both inside
        # the mask: label 0 there means "not Compacta", so the lumen stays 0
        n = 21
        zz, yy, xx = np.ogrid[:n, :n, :n]
        c = (n - 1) / 2.0
        r2 = (xx - c) ** 2 + (yy - c) ** 2 + (zz - c) ** 2
        shell, lumen = (r2 <= 8.0 ** 2) & (r2 > 4.0 ** 2), r2 <= 4.0 ** 2
        vol = gray(np.where(shell, 60000, 10000))
        mask = lab((r2 <= 8.0 ** 2).astype(np.uint8), ("Background", "Ventricle"))
        out = run_stage(StageConfig(stage=3, preprocess=()), binary_threshold_model(),
                        vol, mask)
        assert np.array_equal(out.data != 0, shell)
        assert not out.data[lumen].any()

    def test_a_model_recording_other_preprocessing_is_refused(self):
        vol, ball = self.ball_volume()
        mask = lab(ball.astype(np.uint8), ("Background", "Ventricle"))
        model = binary_threshold_model()
        model.metadata.update(stage=2, preprocess=[], filters=json_fields(FilterConfig()))
        run_stage(StageConfig(stage=2, preprocess=()), model, vol, mask)  # as recorded
        for cfg in (StageConfig(stage=2),
                    StageConfig(stage=2, preprocess=(),
                                filter_config=FilterConfig(unsharp_sigma=3.0))):
            with pytest.raises(ConfigError, match="its model was trained for"):
                run_stage(cfg, model, vol, mask)
        # what a model does not record, it does not constrain
        del model.metadata["filters"]
        run_stage(StageConfig(stage=2, preprocess=(),
                              filter_config=FilterConfig(unsharp_sigma=3.0)), model, vol, mask)


class TestTrainingStacks:
    def make_cohort(self):
        rng = rng_for_seed(21, 5)
        gt = np.zeros((12, 16, 16), dtype=np.uint8)
        gt[2:10, 4:12, 4:12] = VEN
        gt[4:8, 6:10, 6:10] = COM
        gt[5:7, 7:9, 7:9] = LAC
        gt[2:4, 2:4, 2:4] = ATR
        gt[9:11, 12:14, 12:14] = BUL
        vol = (10000 + 8000 * gt.astype(np.int64)
               + rng.integers(-200, 201, size=gt.shape)).astype(np.uint16)
        return [(gray(vol), lab(gt))]

    def test_stage1_stacks_full_extent(self):
        cohort = self.make_cohort()
        (vol, labels), = stage_training_stacks(StageConfig(stage=1), cohort)
        assert vol.dims == cohort[0][0].dims
        assert set(np.unique(labels.data)) == {0, 1, 2, 3}
        assert np.array_equal(vol.data, cohort[0][0].data)  # no stage-1 filters

    def test_masked_stage_stacks_cropped_and_marked(self):
        cohort = self.make_cohort()
        (vol, labels), = stage_training_stacks(StageConfig(stage=3), cohort)
        complex_mask = np.isin(cohort[0][1].data, (VEN, COM, LAC))
        # crop dims: complex bbox plus the dilation margin, clipped
        assert vol.dims[2] == min(10 + MASK_DILATION_VOXELS, 12) - max(
            2 - MASK_DILATION_VOXELS, 0)
        assert EXCLUDED_LABEL in labels.data
        inside = labels.data != EXCLUDED_LABEL
        assert set(np.unique(labels.data[inside])) == {0, 1}
        # gray is zeroed exactly outside the complex
        box_mask = complex_mask[2:12 if MASK_DILATION_VOXELS >= 2 else None]
        assert (vol.data[labels.data == EXCLUDED_LABEL] == 0).all()
        assert (vol.data[inside] != 0).all()

    def banks_built_from(self, monkeypatch, cfg, stride=1):
        """The slice stacks ``train_stage`` builds its feature banks from."""
        seen, bank = [], segmodel.stack_features
        monkeypatch.setattr(segmodel, "stack_features",
                            lambda stack: seen.append(stack.copy()) or bank(stack))
        train_stage(cfg, self.make_cohort(), protocol={"slice_stride": stride}, epochs=1,
                    batch_size=64)
        return seen

    def test_stage2_preprocessing_changes_gray(self, monkeypatch):
        (crop, _), = stage_training_stacks(StageConfig(stage=2), self.make_cohort())
        plain = view_stack(crop.data, ViewAxis.XY)
        sharp, = self.banks_built_from(monkeypatch, StageConfig(stage=2))
        assert np.array_equal(sharp, unsharp_stack(plain))
        assert not np.array_equal(sharp, plain)
        unfiltered, = self.banks_built_from(monkeypatch, StageConfig(stage=2, preprocess=()))
        assert np.array_equal(unfiltered, plain)

    def test_stage2_filters_only_the_sampled_slices(self, monkeypatch):
        (crop, _), = stage_training_stacks(StageConfig(stage=2), self.make_cohort())
        n = len(view_stack(crop.data, ViewAxis.XY))
        filtered, unsharp = [], pipeline.unsharp_stack
        monkeypatch.setattr(pipeline, "unsharp_stack",
                            lambda stack, *a: filtered.append(len(stack)) or unsharp(stack, *a))
        self.banks_built_from(monkeypatch, StageConfig(stage=2), stride=3)
        assert filtered == [len(range(0, n, 3))] != [n]

    def test_stack_without_mask_is_skipped(self):
        empty = [(gray(np.zeros((6, 6, 6))), lab(np.zeros((6, 6, 6))))]
        assert stage_training_stacks(StageConfig(stage=2), empty) == []
        with pytest.raises(TrainingError):
            train_stage(StageConfig(stage=2), empty)


class TestRunFull:
    def toy_models(self):
        # stage 1 splits fore/background at 0.5; binaries split inside at 0.8
        return {1: stage1_threshold_model(cut=0.35),
                2: binary_threshold_model(cut=0.75),
                3: binary_threshold_model(cut=0.60)}

    def toy_volume(self):
        n = 20
        zz, yy, xx = np.ogrid[:n, :n, :n]
        c = (n - 1) / 2.0
        r2 = (xx - c) ** 2 + (yy - c) ** 2 + (zz - c) ** 2
        vol = np.full((n, n, n), 5000, dtype=np.uint16)
        vol[r2 <= 8.0 ** 2] = 30000   # ventricle band
        vol[r2 <= 5.0 ** 2] = 45000   # compacta band
        vol[r2 <= 2.0 ** 2] = 60000   # lacunary core
        return gray(vol)

    def test_end_to_end_structure(self):
        final, report = run_full(self.toy_models(), self.toy_volume(),
                                 config_snapshot={"seed": 0})
        assert set(np.unique(final.data)) <= set(range(6))
        s1_hist = report["label_histograms"]["stage1"]
        assert sum(s1_hist.values()) == 20 ** 3
        assert set(report["timings"]) == {"stage1", "stage2", "stage3", "ensemble"}
        assert report["config"] == {"seed": 0}
        canon = canonical_report(report)
        assert "timings" not in canon and "label_histograms" in canon

    def test_binary_positives_confined_to_ventricle_region(self):
        final, _ = run_full(self.toy_models(), self.toy_volume())
        s1 = run_stage(default_stage_configs()[1], self.toy_models()[1],
                       self.toy_volume())
        for cls in (COM, LAC):
            assert (s1.data[final.data == cls] == VEN).all()

    def test_stage_order_independence_and_determinism(self):
        models, vol = self.toy_models(), self.toy_volume()
        cfgs = default_stage_configs()
        s1 = run_stage(cfgs[1], models[1], vol)
        mask = ventricle_mask_from_stage1(s1)
        lac_first = run_stage(cfgs[2], models[2], vol, mask)
        com_then = run_stage(cfgs[3], models[3], vol, mask)
        com_first = run_stage(cfgs[3], models[3], vol, mask)
        lac_then = run_stage(cfgs[2], models[2], vol, mask)
        a = ensemble(s1, lac_first, com_then)
        b = ensemble(s1, lac_then, com_first)
        assert np.array_equal(a.data, b.data)
        f1, r1 = run_full(models, vol)
        f2, r2 = run_full(models, vol)
        assert np.array_equal(f1.data, f2.data)
        assert canonical_report(r1) == canonical_report(r2)

    def test_each_stage_preprocesses_as_its_model_records(self):
        models, vol = self.toy_models(), self.toy_volume()
        models[2].metadata["preprocess"] = ["median"]
        models[3].metadata.update(preprocess=["unsharp"],
                                  filters=json_fields(FilterConfig(unsharp_sigma=1.0)))
        cfgs = {1: StageConfig(stage=1), 2: StageConfig(stage=2, preprocess=("median",)),
                3: StageConfig(stage=3, preprocess=("unsharp",),
                               filter_config=FilterConfig(unsharp_sigma=1.0))}
        s1 = run_stage(cfgs[1], models[1], vol)
        mask = ventricle_mask_from_stage1(s1)
        want = ensemble(s1, run_stage(cfgs[2], models[2], vol, mask),
                        run_stage(cfgs[3], models[3], vol, mask))
        assert np.array_equal(run_full(models, vol)[0].data, want.data)

    @pytest.mark.parametrize("key,value", [("preprocess", ["bogus"]), ("filters", {"x": 1})])
    def test_a_malformed_record_raises_before_any_stage_runs(self, monkeypatch, key, value):
        models = self.toy_models()
        models[3].metadata[key] = value
        calls, predict = [], pipeline.predict_view
        monkeypatch.setattr(pipeline, "predict_view",
                            lambda *a, **k: calls.append(1) or predict(*a, **k))
        with pytest.raises(FormatError, match="stage 3"):
            run_full(models, self.toy_volume())
        assert not calls

    def test_only_stage1_fills_holes(self, monkeypatch):
        calls, fill = [], pipeline.fill_holes_3d
        monkeypatch.setattr(pipeline, "fill_holes_3d",
                            lambda labels: calls.append(labels.class_names) or fill(labels))
        run_full(self.toy_models(), self.toy_volume())
        assert calls == [StageConfig(stage=1).output_names]

    def test_parallel_jobs_match_serial(self, monkeypatch):
        # three 20x20 slices a slab, so that every view of every stage forks
        monkeypatch.setattr(pipeline, "_VOXELS_PER_SLAB", 3 * 20 * 20)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        models, vol = self.toy_models(), self.toy_volume()
        f1, _ = run_full(models, vol, jobs=1)
        assert not forks
        f4, _ = run_full(models, vol, jobs=4)
        assert len(forks) == 9  # one child for each view of each stage
        assert np.array_equal(f1.data, f4.data)

    def test_swapped_stage_models_raise_before_any_stage_runs(self, monkeypatch):
        models = self.toy_models()
        for stage, model in models.items():
            model.metadata["stage"] = stage
        calls, predict = [], pipeline.predict_view
        monkeypatch.setattr(pipeline, "predict_view",
                            lambda *a, **k: calls.append(1) or predict(*a, **k))
        with pytest.raises(ConfigError, match="stage 2 got a model trained for stage 3"):
            run_full({1: models[1], 2: models[3], 3: models[2]}, self.toy_volume())
        assert not calls


class TestTrainAllStages:
    def test_smoke_on_synthetic_cohort(self):
        cohort = TestTrainingStacks().make_cohort() * 2
        models, histories = train_all_stages(
            cohort, seed=1, epochs=3, learning_rate=0.05, batch_size=256)
        assert set(models) == {1, 2, 3}
        assert (models[1].n_classes, models[2].n_classes, models[3].n_classes) == (4, 2, 2)
        assert all(len(histories[s]) == 3 for s in (1, 2, 3))
        final, report = run_full(models, cohort[0][0])
        assert final.dims == cohort[0][0].dims

    def test_api_trained_models_name_their_stage(self):
        cohort = TestTrainingStacks().make_cohort() * 2
        models, _ = train_all_stages(cohort, seed=1, jobs=1, epochs=1, batch_size=256)
        assert {s: m.metadata["stage"] for s, m in models.items()} == {1: 1, 2: 2, 3: 3}
        assert {s: m.metadata["preprocess"] for s, m in models.items()} == \
            {1: [], 2: ["unsharp"], 3: []}
        assert all(m.metadata["filters"] == json_fields(FilterConfig()) for m in models.values())
        with pytest.raises(ConfigError, match="stage 2 got a model trained for stage 3"):
            run_full({1: models[1], 2: models[3], 3: models[2]}, cohort[0][0])

    def test_stage_protocol_offsets_seed(self, monkeypatch):
        """Stage s samples tiles with the seed ``seed + s``, its own tile size
        and the shared protocol keys."""
        protos = []

        def record(model, stacks, proto, filters):
            protos.append(proto)
            return model, []

        monkeypatch.setattr(pipeline, "train", record)
        cfgs = default_stage_configs()
        cfgs[3] = StageConfig(stage=3, tile_size=64)
        train_all_stages(TestTrainingStacks().make_cohort(), cfgs, protocol={"slice_stride": 2},
                         seed=10, jobs=1)
        assert [(p.seed, p.tile_size, p.slice_stride) for p in protos] == \
            [(11, 400, 2), (12, 224, 2), (13, 64, 2)]

    @staticmethod
    def one_slice_cohort():
        """One 1x16x16 sample holding every class: each stage trains on its
        one slice and validates on none, so every val_iou is NaN."""
        gt = np.zeros((1, 16, 16), dtype=np.uint8)
        gt[0, 4:12, 4:12] = VEN
        gt[0, 6:10, 6:9] = COM
        gt[0, 7:9, 9:11] = LAC
        gt[0, 1:3, 1:3] = ATR
        gt[0, 13:15, 13:15] = BUL
        vol = (10000 + 8000 * gt.astype(np.int64)).astype(np.uint16)
        return [(gray(vol), lab(gt))]

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def train(self, cohort, jobs):
        """The models and histories of ``train_all_stages``, in a form whose
        == compares every float bit for bit, NaN included."""
        models, histories = train_all_stages(cohort, seed=1, jobs=jobs, epochs=3,
                                             learning_rate=0.05, batch_size=256)
        return ([vars(m) | {"weights": m.weights.tobytes()} for m in models.values()],
                json.dumps(histories))

    @pytest.mark.parametrize("name", ["smoke", "one_slice"])
    def test_jobs_give_bitwise_equal_models_and_histories(self, monkeypatch, name):
        cohort = (TestTrainingStacks().make_cohort() * 2 if name == "smoke"
                  else self.one_slice_cohort())
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        runs, forked = {}, {}
        for jobs in (1, 2, 3):
            before = len(forks)
            runs[jobs] = self.train(cohort, jobs)
            forked[jobs] = len(forks) - before
        assert runs[1] == runs[2] == runs[3]
        assert forked == {1: 0, 2: 1, 3: 1}  # none, then one child for stages 2-3
        self.assert_no_child_left()
        scores = [r["val_iou"] for h in json.loads(runs[2][1]).values() for r in h]
        assert all(np.isnan(scores)) == (name == "one_slice")

    @pytest.mark.parametrize("strip, message", [
        ((VEN, COM, LAC), "class 2 absent"),  # no ventricle: stage 1 fails in this process
        ((COM, LAC), "class 1 absent"),  # stages 2 and 3 fail in the child
    ])
    def test_a_failing_stage_raises_as_in_the_loop(self, strip, message):
        (vol, gt), = TestTrainingStacks().make_cohort()
        cohort = [(vol, lab(np.where(np.isin(gt.data, strip), BG, gt.data)))]
        for jobs in (1, 2, 3):
            with pytest.raises(TrainingError) as err:
                self.train(cohort, jobs)
            assert (type(err.value), str(err.value)) == \
                (TrainingError, f"{message} from all training labels")
            self.assert_no_child_left()

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_the_parents_stage_failing_kills_the_child(self, monkeypatch, error):
        # stage 1 fails here while the child would sleep for a minute
        def fake_train_stage(cfg, *args, **kw):
            if cfg.stage == 1:
                raise error("stage 1 failed")
            time.sleep(60)

        monkeypatch.setattr(pipeline, "train_stage", fake_train_stage)
        t0 = time.perf_counter()
        with pytest.raises(error, match="stage 1 failed"):
            self.train([], 2)
        assert time.perf_counter() - t0 < 30
        self.assert_no_child_left()

    def test_one_job_or_a_live_thread_trains_in_process(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        cohort = TestTrainingStacks().make_cohort()
        expected = self.train(cohort, 2)
        monkeypatch.setattr(os, "fork", no_fork)
        assert self.train(cohort, 1) == expected
        release = threading.Event()
        helper = threading.Thread(target=release.wait, args=(60,))
        helper.start()
        try:
            assert self.train(cohort, 2) == expected
        finally:
            release.set()
            helper.join(10)
        assert not helper.is_alive()
