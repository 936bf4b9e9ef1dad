"""End-to-end command-line coverage on a small cohort.

A session fixture runs the whole chain once (phantom -> project ->
reconstruct -> train x3 -> infer -> evaluate -> export-slices) and the
tests pick over the produced files.  Error paths assert the exit code
contract: 2 config, 3 a file that cannot be read or written, 4 computation.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomoseg.cli import main
from tomoseg.config import ExperimentConfig, config_from_dict
from tomoseg.core import AcquisitionConfig, AttenuationVolume, GrayVolume, LabelVolume, \
    ViewAxis, extract_slice, json_fields, load_volume, save_volume
from tomoseg.errors import FormatError, SchemaError
from tomoseg.filters import FilterConfig
from tomoseg.pgm import label_to_8bit, read_pgm
from tomoseg.phantom import default_spec, spec_to_dict
from tomoseg.pipeline import StageConfig, default_stage_configs, ensemble, run_full, run_stage, \
    ventricle_mask_from_stage1
from tomoseg.segmodel import SoftmaxModel, load_model, save_model
from tomoseg.tomo import SinogramStack, load_sinogram, save_sinogram

TRAIN_FLAGS = ["--epochs", "6", "--lr", "0.05", "--batch", "512",
               "--tile", "48", "--stride", "1", "--seed", "1"]


def run(*argv) -> int:
    return main([str(a) for a in argv])


def expect_error(code: int, stderr: str, exit_code: int, error: str) -> dict:
    """Assert a failed run: its exit code, and a stderr that is one JSON error
    line carrying that exit code and the error class.  Returns the line."""
    assert code == exit_code
    line = json.loads(stderr.strip())
    assert line["exit_code"] == exit_code
    assert line["error"] == error
    return line


@pytest.fixture(scope="session")
def chain(tmp_path_factory):
    """Artifacts of one full CLI pass over a 48-voxel cohort of two."""
    root = tmp_path_factory.mktemp("cli_chain")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(spec_to_dict(default_spec(n=48, seed=7))))
    assert run("phantom", "--spec", spec_path, "--out", root / "ph",
               "--cohort", 2) == 0
    for i in (0, 1):
        assert run("project", "--input", root / f"ph/atten_{i:03d}.vol",
                   "--out", root / f"s{i}.sino",
                   "--angles", 60, "--step", 3.0, "--bins", 80) == 0
        assert run("reconstruct", "--input", root / f"s{i}.sino",
                   "--out", root / f"recon{i}.vol", "--size", 48, 48) == 0
    for stage in (1, 2, 3):
        assert run("train", "--stage", stage,
                   "--gray", root / "recon0.vol", "--labels", root / "ph/gt_000.vol",
                   "--out", root / f"m{stage}.json", *TRAIN_FLAGS) == 0
    assert run("infer", "--input", root / "recon1.vol",
               "--models", root / "m1.json", root / "m2.json", root / "m3.json",
               "--out", root / "seg.vol", "--report", root / "report.json",
               "--jobs", 2) == 0
    assert run("evaluate", "--pred", root / "seg.vol", "--gt", root / "ph/gt_001.vol",
               "--report", root / "eval.json") == 0
    assert run("export-slices", "--input", root / "ph/gt_001.vol", "--axis", "xy",
               "--index", 24, "--out", root / "gt.pgm") == 0
    assert run("export-slices", "--input", root / "recon1.vol", "--axis", "xz",
               "--index", 24, "--out", root / "gray.pgm") == 0
    return root


class TestChainArtifacts:
    def test_phantom_manifest(self, chain):
        doc = json.loads((chain / "ph/manifest.json").read_text())
        assert doc["spec"]["seed"] == 7
        assert [s["attenuation"] for s in doc["samples"]] == \
            ["atten_000.vol", "atten_001.vol"]
        for s in doc["samples"]:
            assert (chain / "ph" / s["ground_truth"]).exists()

    def test_reconstruction_resembles_phantom(self, chain):
        recon = load_volume(chain / "recon0.vol")
        gt = load_volume(chain / "ph/gt_000.vol")
        assert recon.dims == (48, 48, 48)
        inside = recon.data[gt.data > 0].mean()
        outside = recon.data[gt.data == 0].mean()
        assert inside > 1.5 * outside

    def test_trained_models_carry_history(self, chain):
        for stage in (1, 2, 3):
            doc = json.loads((chain / f"m{stage}.json").read_text())
            assert doc["metadata"]["stage"] == stage
            assert len(doc["metadata"]["history"]) == 6
            assert doc["metadata"]["preprocess"] == list(StageConfig(stage).preprocess)
            assert doc["metadata"]["filters"] == json_fields(FilterConfig())

    def test_segmentation_and_report(self, chain):
        seg = load_volume(chain / "seg.vol")
        assert isinstance(seg, LabelVolume)
        assert seg.dims == (48, 48, 48)
        report = json.loads((chain / "report.json").read_text())
        assert "timings" not in report
        assert set(report["label_histograms"]) == \
            {"stage1", "stage2", "stage3", "final"}
        assert report["config"]["input"].endswith("recon1.vol")

    def test_eval_report_scores(self, chain):
        doc = json.loads((chain / "eval.json").read_text())
        assert 0.0 <= doc["weighted_iou"] <= 1.0
        assert "Background" not in doc["per_class_iou"]
        assert doc["per_class_iou"]["Atrium"] >= 0.0

    def test_exported_label_slice_uses_palette(self, chain):
        img = read_pgm(chain / "gt.pgm")
        gt = load_volume(chain / "ph/gt_001.vol")
        assert np.array_equal(img, label_to_8bit(extract_slice(gt, ViewAxis.XY, 24)))

    def test_exported_gray_slice(self, chain):
        img = read_pgm(chain / "gray.pgm")
        assert img.dtype == np.uint8
        assert img.shape == (48, 48)
        assert img.max() > img.min()

    def test_reconstruct_is_deterministic(self, chain, tmp_path):
        out = tmp_path / "again.vol"
        assert run("reconstruct", "--input", chain / "s0.sino", "--out", out,
                   "--size", 48, 48) == 0
        assert out.read_bytes() == (chain / "recon0.vol").read_bytes()
        assert (tmp_path / "again.vol.json").read_bytes() == \
            (chain / "recon0.vol.json").read_bytes()

    def test_retraining_is_deterministic(self, chain, tmp_path):
        out = tmp_path / "m1.json"
        assert run("train", "--stage", 1, "--gray", chain / "recon0.vol",
                   "--labels", chain / "ph/gt_000.vol", "--out", out,
                   *TRAIN_FLAGS) == 0
        assert out.read_bytes() == (chain / "m1.json").read_bytes()


@pytest.fixture(scope="module")
def plain_stage2(chain, tmp_path_factory):
    """A stage-2 model trained on the chain's sample by ``train --preprocess`` with
    no filter names, so its slices skip the unsharp mask.  At 20 epochs it labels
    Lacunary voxels, which the chain's 6 do not."""
    path = tmp_path_factory.mktemp("plain") / "m2.json"
    assert run("train", "--stage", 2, "--gray", chain / "recon0.vol",
               "--labels", chain / "ph/gt_000.vol", "--out", path, *TRAIN_FLAGS,
               "--epochs", 20, "--preprocess") == 0
    return path


def staged(models: dict, vol, cfgs: dict):
    """The final volume of ``run_stage`` per stage under ``cfgs``, then ``ensemble``."""
    stage1 = run_stage(cfgs[1], models[1], vol)
    mask = ventricle_mask_from_stage1(stage1)
    return ensemble(stage1, run_stage(cfgs[2], models[2], vol, mask),
                    run_stage(cfgs[3], models[3], vol, mask))


class TestRecordedPreprocessing:
    """A model records the preprocessing it was trained with, and ``infer``
    preprocesses each stage's slices as its model records."""

    def test_infer_preprocesses_as_each_model_was_trained(self, chain, plain_stage2, tmp_path):
        paths = (chain / "m1.json", plain_stage2, chain / "m3.json")
        assert json.loads(plain_stage2.read_text())["metadata"]["preprocess"] == []
        assert run("infer", "--input", chain / "recon1.vol", "--models", *paths,
                   "--out", tmp_path / "seg.vol", "--jobs", 1) == 0
        models = {stage: load_model(path) for stage, path in zip((1, 2, 3), paths)}
        vol = load_volume(chain / "recon1.vol")
        plain = staged(models, vol, {1: StageConfig(1), 2: StageConfig(2, preprocess=()),
                                     3: StageConfig(3)})
        assert np.array_equal(load_volume(tmp_path / "seg.vol").data, plain.data)
        assert np.array_equal(run_full(models, vol)[0].data, plain.data)
        # stage 2's default unsharp mask would give another segmentation here
        bare = {stage: replace(model, metadata={}) for stage, model in models.items()}
        assert not np.array_equal(staged(bare, vol, default_stage_configs()).data, plain.data)

    def test_models_recording_nothing_get_the_stage_defaults(self, chain, plain_stage2,
                                                             tmp_path):
        for name, paths in (("chain", (chain / "m1.json", chain / "m2.json", chain / "m3.json")),
                            ("plain", (chain / "m1.json", plain_stage2, chain / "m3.json"))):
            stripped = []
            for stage, path in zip((1, 2, 3), paths):
                doc = json.loads(path.read_text())
                del doc["metadata"]["preprocess"], doc["metadata"]["filters"]
                stripped.append(tmp_path / f"{name}{stage}.json")
                stripped[-1].write_text(json.dumps(doc))
            assert run("infer", "--input", chain / "recon1.vol", "--models", *stripped,
                       "--out", tmp_path / f"{name}.vol", "--jobs", 2) == 0
        # the chain's models, trained with the defaults, infer as they did with their record
        for suffix in ("", ".json"):
            assert (tmp_path / f"chain.vol{suffix}").read_bytes() == \
                (chain / f"seg.vol{suffix}").read_bytes()
        models = {stage: replace(load_model(path), metadata={})
                  for stage, path in zip((1, 2, 3), (chain / "m1.json", plain_stage2,
                                                     chain / "m3.json"))}
        want = staged(models, load_volume(chain / "recon1.vol"), default_stage_configs())
        assert np.array_equal(load_volume(tmp_path / "plain.vol").data, want.data)

    @pytest.mark.parametrize("key,value", [
        ("preprocess", ["bogus"]),
        ("preprocess", 5),
        ("filters", {"x": 1}),
        ("filters", {"unsharp_sigma": -1}),
        ("filters", [1]),
        # json writes these as Infinity and NaN, and reads them back as floats
        ("filters", {"unsharp_sigma": float("inf")}),
        ("filters", {"unsharp_amount": float("nan")}),
    ], ids=["unknown_filter", "preprocess_number", "unknown_filters_key", "negative_sigma",
            "filters_list", "infinite_sigma", "nan_amount"])
    def test_a_malformed_record_exits_4(self, chain, tmp_path, capsys, key, value):
        doc = json.loads((chain / "m2.json").read_text())
        doc["metadata"][key] = value
        (tmp_path / "m2.json").write_text(json.dumps(doc))
        line = expect_error(run("infer", "--input", chain / "recon1.vol", "--models",
                                chain / "m1.json", tmp_path / "m2.json", chain / "m3.json",
                                "--out", tmp_path / "seg.vol"),
                            capsys.readouterr().err, 4, "FormatError")
        assert line["message"].startswith("stage 2 model records malformed preprocessing")
        assert not (tmp_path / "seg.vol").exists()


class TestDoseAblation:
    def test_matrix_outputs(self, chain, tmp_path, capsys):
        cfg = ExperimentConfig(
            seed=7, cohort_size=2, doses=(1, 2),
            phantom=default_spec(n=48, seed=7),
            acquisition=AcquisitionConfig(60, 3.0, 80),
            protocol={"slice_stride": 2},
            model={"epochs": 4, "learning_rate": 0.05, "batch_size": 512})
        cfg_doc = cfg.to_dict()
        for body in cfg_doc["stages"].values():
            body["tile_size"] = 48
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg_doc))
        assert run("ablate-dose", "--config", cfg_path, "--out", tmp_path / "abl",
                   "--jobs", 2) == 0
        doc = json.loads((tmp_path / "abl/dose_matrix.json").read_text())
        cells = doc["matrix"]["cells"]
        assert set(cells) == {"D1->D1", "D1->D2", "D2->D1", "D2->D2",
                              "D1+D2->D1", "D1+D2->D2"}
        for cell in cells.values():
            assert 0.0 <= cell["mean"] <= 1.0
            assert len(cell["scores"]) == 2
        table = (tmp_path / "abl/dose_matrix.txt").read_text()
        assert "D1+D2" in table
        assert table.rstrip("\n") in capsys.readouterr().out

    @pytest.mark.parametrize("file_doc, flags, doc", [
        (None, ["--seed", 5, "--cohort", 2, "--epochs", 4, "--lr", 0.02],
         {"seed": 5, "cohort_size": 2, "model": {"epochs": 4, "learning_rate": 0.02}}),
        ({"seed": 1, "cohort_size": 4, "model": {"epochs": 9, "batch_size": 64}},
         ["--seed", 5, "--epochs", 4],
         {"seed": 5, "cohort_size": 4, "model": {"epochs": 4, "batch_size": 64}}),
    ], ids=["flags_only", "flags_over_file"])
    def test_flags_mean_their_config_keys(self, tmp_path, monkeypatch, file_doc, flags, doc):
        """Each flag hands the dose ablation the config that a document
        holding its key gives, the phantom seed included."""
        from tomoseg import cli

        class Recorded(Exception):
            pass

        def record(cfg, **_):
            raise Recorded(cfg.to_dict())

        monkeypatch.setattr(cli, "run_dose_ablation", record)
        configs = []
        for name, argv in (("file", flags), ("doc", [])):
            body = file_doc if name == "file" else doc
            if body is not None:
                (tmp_path / f"{name}.json").write_text(json.dumps(body))
                argv = [*argv, "--config", tmp_path / f"{name}.json"]
            with pytest.raises(Recorded) as got:
                run("ablate-dose", "--out", tmp_path / "abl", *argv)
            configs.append(got.value.args[0])
        assert configs[0] == configs[1]
        assert configs[0]["phantom"]["seed"] == doc["seed"]


def test_parser_defaults_and_choices_follow_their_definitions(capsys):
    import inspect

    from tomoseg.cli import build_parser
    from tomoseg.segmodel import DEFAULT_HYPERPARAMETERS, TrainProtocol
    from tomoseg.tomo import RECON_FILTERS, fbp_reconstruct

    parser = build_parser()
    train = parser.parse_args(["train", "--stage", "1", "--gray", "g", "--labels", "l",
                               "--out", "m"])
    assert (train.stride, train.val_fraction, train.seed) == \
        (TrainProtocol.slice_stride, TrainProtocol.val_fraction, TrainProtocol.seed)
    assert {"epochs": train.epochs, "learning_rate": train.lr, "batch_size": train.batch,
            "l2": train.l2} == dict(DEFAULT_HYPERPARAMETERS)
    recon = ["reconstruct", "--input", "s", "--out", "v"]
    assert parser.parse_args(recon).filter == \
        inspect.signature(fbp_reconstruct).parameters["filter_name"].default
    assert parser.parse_args(recon).window == AcquisitionConfig.absorption_window
    for name in RECON_FILTERS:
        assert parser.parse_args([*recon, "--filter", name]).filter == name
    with pytest.raises(SystemExit):
        parser.parse_args([*recon, "--filter", "shepp"])
    assert "shepp" in capsys.readouterr().err


class TestErrorPaths:
    def test_missing_input_exits_3(self, tmp_path, capsys):
        expect_error(run("project", "--input", tmp_path / "none.vol",
                         "--out", tmp_path / "s.sino",
                         "--angles", 10, "--step", 1.0, "--bins", 8),
                     capsys.readouterr().err, 3, "FileNotFoundError")

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        err = expect_error(run("ablate-dose", "--config", cfg, "--out", tmp_path),
                           capsys.readouterr().err, 2, "SchemaError")
        assert "bogus" in err["message"]

    def test_a_fractional_cohort_size_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"cohort_size": 2.5}))
        err = expect_error(run("ablate-dose", "--config", cfg, "--out", tmp_path),
                           capsys.readouterr().err, 2, "SchemaError")
        assert "cohort_size" in err["message"]

    @pytest.mark.parametrize("doc", [[1, 2], {"model": 3}], ids=["list", "model_number"])
    def test_flags_over_a_non_object_config_exit_2(self, tmp_path, capsys, doc):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        expect_error(run("ablate-dose", "--config", cfg, "--out", tmp_path, "--seed", 1,
                         "--epochs", 3),
                     capsys.readouterr().err, 2, "SchemaError")

    @pytest.mark.parametrize("jobs", [0, -3])
    @pytest.mark.parametrize("command", ["infer", "ablate-dose"])
    def test_jobs_below_one_exits_2(self, chain, tmp_path, capsys, command, jobs):
        argv = {"infer": ["--input", chain / "recon0.vol", "--models", *(chain / "m1.json",) * 3,
                          "--out", tmp_path / "seg.vol"],
                "ablate-dose": ["--out", tmp_path]}[command]
        err = expect_error(run(command, *argv, "--jobs", jobs), capsys.readouterr().err, 2,
                           "ConfigError")
        assert "jobs" in err["message"]
        assert not (tmp_path / "seg.vol").exists()

    def test_a_model_of_the_wrong_stage_exits_2(self, chain, tmp_path, capsys):
        line = expect_error(run("infer", "--input", chain / "recon0.vol", "--models",
                                chain / "m2.json", chain / "m1.json", chain / "m3.json",
                                "--out", tmp_path / "seg.vol"),
                            capsys.readouterr().err, 2, "ConfigError")
        assert "stage 1" in line["message"]
        assert not (tmp_path / "seg.vol").exists()

    def test_swapped_binary_stage_models_exit_2(self, chain, tmp_path, capsys):
        # stages 2 and 3 share classes (0, 1): only the models' stage metadata tells them apart
        line = expect_error(run("infer", "--input", chain / "recon0.vol", "--models",
                                chain / "m1.json", chain / "m3.json", chain / "m2.json",
                                "--out", tmp_path / "seg.vol"),
                            capsys.readouterr().err, 2, "ConfigError")
        assert line["message"] == "stage 2 got a model trained for stage 3"
        assert not (tmp_path / "seg.vol").exists()

    def test_wrong_volume_kind_exits_4(self, chain, tmp_path, capsys):
        expect_error(run("project", "--input", chain / "ph/gt_000.vol",
                         "--out", tmp_path / "s.sino",
                         "--angles", 10, "--step", 1.0, "--bins", 8),
                     capsys.readouterr().err, 4, "DataError")

    def test_dims_mismatch_exits_4(self, chain, tmp_path, capsys):
        from tomoseg.core import save_volume
        data = np.zeros((8, 8, 8), dtype=np.uint8)
        data[0, 0, 0] = 1
        small = tmp_path / "small.vol"
        save_volume(LabelVolume(data), small)
        expect_error(run("evaluate", "--pred", chain / "seg.vol", "--gt", small),
                     capsys.readouterr().err, 4, "ShapeError")

    def test_train_cohort_length_mismatch_exits_2(self, chain, capsys):
        expect_error(run("train", "--stage", 1, "--gray", chain / "recon0.vol",
                         "--labels", chain / "ph/gt_000.vol", chain / "ph/gt_001.vol",
                         "--out", chain / "unused.json"),
                     capsys.readouterr().err, 2, "ConfigError")

    @pytest.mark.parametrize("flag,value", [("--l2", "nan"), ("--lr", "inf")],
                             ids=["l2_nan", "lr_inf"])
    def test_train_non_finite_hyperparameter_exits_2(self, chain, tmp_path, capsys,
                                                     monkeypatch, flag, value):
        from tomoseg import pipeline

        def no_training(*_):
            raise AssertionError("training stacks built before the model was validated")

        monkeypatch.setattr(pipeline, "stage_training_stacks", no_training)
        expect_error(run("train", "--stage", 1, "--gray", chain / "recon0.vol",
                         "--labels", chain / "ph/gt_000.vol", "--out", tmp_path / "m.json",
                         *TRAIN_FLAGS, flag, value),
                     capsys.readouterr().err, 2, "ConfigError")
        assert not (tmp_path / "m.json").exists()


def test_train_stage_without_its_class_exits_4_before_the_feature_bank(tmp_path, capsys,
                                                                      monkeypatch):
    from tomoseg import segmodel
    from tomoseg.core import GrayVolume, save_volume

    def no_features(_):
        raise AssertionError("feature bank computed for a stage that cannot train")

    monkeypatch.setattr(segmodel, "stack_features", no_features)
    rng = np.random.default_rng(0)
    save_volume(GrayVolume(rng.integers(0, 65536, size=(9, 12, 12), dtype=np.uint16)),
                tmp_path / "g.vol")
    lab = np.zeros((9, 12, 12), dtype=np.uint8)
    lab[:, 3:9, 3:9] = 2  # a ventricle without lacunary tissue, the stage-2 target
    save_volume(LabelVolume(lab), tmp_path / "l.vol")
    err = expect_error(run("train", "--stage", 2, "--gray", tmp_path / "g.vol",
                           "--labels", tmp_path / "l.vol", "--out", tmp_path / "m.json",
                           *TRAIN_FLAGS),
                       capsys.readouterr().err, 4, "TrainingError")
    assert "class 1 absent" in err["message"]
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("argv,usage", [
    (["infer", "--input", "g.vol", "--models", "a", "b", "c", "--out", "s.vol", "--jobs", "abc"],
     "usage: tomoseg infer"),
    (["project", "--input", "a.vol", "--out", "s.sino", "--angles", "x", "--step", "1",
      "--bins", "8"], "usage: tomoseg project"),
    (["project", "--input", "a.vol", "--out", "s.sino"], "usage: tomoseg project"),
    (["project", "--input", "a.vol", "--out", "s.sino", "--angles", "4", "--step", "1",
      "--bins", "8", "--window", "0", "1"], "usage: tomoseg"),
    (["tomograph"], "usage: tomoseg"),
    (["infer", "--input", "g.vol", "--models", "a", "b", "c", "--out", "s.vol",
      "--config", "exp.json"], "usage: tomoseg"),
], ids=["bad_int", "bad_int_required_flag", "missing_required_flags", "project_takes_no_window",
        "unknown_subcommand", "infer_takes_no_config"])
def test_rejected_arguments_exit_2_with_usage_and_a_json_line(capsys, argv, usage):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(usage)
    line = expect_error(2, err.strip().splitlines()[-1], 2, "UsageError")
    assert line["message"].startswith(usage.removeprefix("usage: ") + ": ")


def test_train_keeps_the_stage_class_that_the_seeded_split_would_leave_out(tmp_path, capsys):
    """With --seed 34 the 70/30 split of this phantom's slices puts every stage-2 target
    slice in validation; one of them moves to training, and the stage trains."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spec_to_dict(default_spec(n=48, seed=34))))
    assert run("phantom", "--spec", spec, "--out", tmp_path / "ph") == 0
    assert run("project", "--input", tmp_path / "ph/atten_000.vol", "--out", tmp_path / "s.sino",
               "--angles", 60, "--step", 3, "--bins", 80) == 0
    assert run("reconstruct", "--input", tmp_path / "s.sino", "--out", tmp_path / "recon.vol",
               "--size", 48, 48) == 0
    assert run("train", "--stage", 2, "--gray", tmp_path / "recon.vol",
               "--labels", tmp_path / "ph/gt_000.vol", "--out", tmp_path / "m2.json",
               "--epochs", 2, "--seed", 34) == 0
    assert json.loads((tmp_path / "m2.json").read_text())["n_classes"] == 2


@pytest.mark.parametrize("text", ["{\"dims\": [48, 48,", "[48, 48, 48]", "{\"dims\": \"abc\"}",
                                  "{\"seed\": 5.9}", "{\"dims\": [48.7, 48, 48]}",
                                  b"\xff\xfe{",
                                  # json reads NaN, Infinity and 1e400 as floats
                                  "{\"compacta_shell_voxels\": NaN}", "{\"noise_sigma\": NaN}",
                                  "{\"noise_sigma\": 1e400}"],
                         ids=["malformed_json", "not_an_object", "dims_not_numbers",
                              "seed_float", "dims_float", "not_utf8", "shell_nan", "noise_nan",
                              "noise_overflow"])
def test_bad_phantom_spec_exits_2(tmp_path, capsys, text):
    spec = tmp_path / "spec.json"
    spec.write_bytes(text if isinstance(text, bytes) else text.encode())
    expect_error(run("phantom", "--spec", spec, "--out", tmp_path / "ph"),
                 capsys.readouterr().err, 2, "SpecError")
    assert not (tmp_path / "ph").exists()


def _model_doc():
    return {"format": "softmax-featbank", "feature_version": "fb1", "n_classes": 2,
            "weights": [[0.0] * 10] * 2, "hyperparameters": {}, "metadata": {}}


@pytest.mark.parametrize("doc", [
    [_model_doc()],
    {k: v for k, v in _model_doc().items() if k != "n_classes"},
    {**_model_doc(), "weights": "x"},
    {**_model_doc(), "hyperparameters": [1]},
    {**_model_doc(), "n_classes": "2"},
    {**_model_doc(), "n_classes": 0, "weights": []},
    {**_model_doc(), "hyperparameters": {"learning_rate": -1}},
], ids=["list", "no_n_classes", "weights_not_numbers", "hyperparameters_not_object",
        "n_classes_text", "n_classes_zero", "learning_rate_negative"])
def test_malformed_model_exits_4(tmp_path, capsys, doc):
    from tomoseg.core import GrayVolume, save_volume
    save_volume(GrayVolume(np.zeros((4, 4, 4), dtype=np.uint16)), tmp_path / "g.vol")
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    expect_error(run("infer", "--input", tmp_path / "g.vol", "--models", model, model, model,
                     "--out", tmp_path / "seg.vol"),
                 capsys.readouterr().err, 4, "FormatError")
    assert not (tmp_path / "seg.vol").exists()


@pytest.mark.parametrize("ids", [[1, 0], [0, 2], [0], [1, 1], [0, 300], [0, -1], [0, 1.7],
                                 [0, True], [0, "01"], "01"],
                         ids=["swapped", "gap", "short", "duplicate", "above_range", "negative",
                              "float", "bool", "text", "not_a_list"])
def test_model_whose_class_subset_is_not_its_labels_exits_4(tmp_path, capsys, ids):
    # models once listed their labels as class_subset; any list but 0..n_classes-1 is refused
    save_volume(GrayVolume(np.zeros((4, 4, 4), dtype=np.uint16)), tmp_path / "g.vol")
    model = tmp_path / "m.json"
    model.write_text(json.dumps({**_model_doc(), "class_subset": ids}))
    line = expect_error(run("infer", "--input", tmp_path / "g.vol",
                            "--models", model, model, model, "--out", tmp_path / "seg.vol"),
                        capsys.readouterr().err, 4, "FormatError")
    assert line["message"].startswith(f"{model}: class_subset")
    assert not (tmp_path / "seg.vol").exists()


@pytest.mark.parametrize("doc", [
    {"doses": "abc"},
    {"doses": 5},
    {"cohort_size": "3"},
    {"seed": "x"},
    {"stages": {"1": {"tile_size": "abc"}}},
    {"stages": {"2": {"preprocess": 5}}},
    {"protocol": {"slice_stride": "a"}},
    {"filters": {"median_radius": "a"}},
    {"acquisition": {"n_projections": "a"}},
    {"model": {"epochs": "x"}},
    # an integer or boolean key holding another JSON type
    {"doses": [1.7]},
    {"doses": ["2"]},
    {"cohort_size": 2.5},
    {"cohort_size": True},
    {"eval": {"include_background": "no"}},
    {"eval": {"include_background": 1}},
    {"acquisition": {"n_projections": 300.0, "angular_step_deg": 0.6, "detector_bins": 192}},
    {"acquisition": {"n_projections": 300, "angular_step_deg": 0.6, "detector_bins": 192.5}},
    {"stages": {"1": {"tile_size": 64.0}}},
    {"filters": {"median_radius": 2.0}},
    {"filters": {"histeq_bins": 256.5}},
    {"protocol": {"slice_stride": 1.5}},
    {"model": {"epochs": 10.0}},
    {"model": {"batch_size": True}},
    # values a run uses late: out_dir in Path(), the window after the whole cohort's FBP
    {"out_dir": 5},
    {"acquisition": {"n_projections": 300, "angular_step_deg": 0.6, "detector_bins": 192,
                     "absorption_window": ["a", "b"]}},
    # an infinite window maps every voxel to 0
    {"acquisition": {"n_projections": 300, "angular_step_deg": 0.6, "detector_bins": 192,
                     "absorption_window": [0, float("inf")]}},
    # numbers json reads as floats that are not finite (1e400 reads as inf)
    {"filters": {"unsharp_sigma": float("inf")}},
    {"filters": {"unsharp_amount": float("nan")}},
    {"phantom": {"noise_sigma": float("nan")}},
], ids=["doses_text", "doses_number", "cohort_text", "seed_text", "tile_text",
        "preprocess_number", "stride_text", "median_text", "projections_text", "epochs_text",
        "doses_float", "doses_text_item", "cohort_float", "cohort_bool", "background_text",
        "background_int", "projections_float", "bins_float", "tile_float", "median_float",
        "histeq_float", "stride_float", "epochs_float", "batch_bool", "out_dir_number",
        "window_text", "window_infinite", "sigma_infinite", "amount_nan", "noise_nan"])
def test_malformed_config_value_exits_2(tmp_path, capsys, monkeypatch, doc):
    with pytest.raises(SchemaError):
        config_from_dict(doc)
    monkeypatch.chdir(tmp_path)
    Path("exp.json").write_text(json.dumps(doc))
    # without --out the config's out_dir names the output directory
    expect_error(run("ablate-dose", "--config", "exp.json"), capsys.readouterr().err, 2,
                 "SchemaError")
    assert os.listdir() == ["exp.json"]


@pytest.fixture(scope="module")
def sidecar_pairs(tmp_path_factory):
    """A valid label volume, gray volume and sinogram, each with its sidecar."""
    root = tmp_path_factory.mktemp("sidecars")
    rng = np.random.default_rng(5)
    # labels 0-2 only, so a class table of three entries already covers them
    save_volume(LabelVolume(rng.integers(0, 3, size=(4, 6, 6), dtype=np.uint8)),
                root / "gt.vol")
    save_volume(GrayVolume(rng.integers(0, 65536, size=(4, 6, 6), dtype=np.uint16)),
                root / "gray.vol")
    save_sinogram(SinogramStack(rng.random((2, 8, 9), dtype=np.float32), 22.5),
                  root / "s.sino")
    return root


SIDECAR_KEYS = {
    "gt.vol": ("dims", "voxel_size_um", "dtype", "classes"),
    "gray.vol": ("dims", "voxel_size_um", "dtype"),
    "s.sino": ("n_slices", "n_angles", "n_bins", "angle_step_deg", "arc_deg", "voxel_size_um"),
}
JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
               | st.sampled_from([0, -1, 2.5, 10 ** 400, float("inf"), float("nan"), "", "7"]))
# half the values are bare leaves: st.recursive alone seldom draws one
JSON_VALUES = JSON_LEAVES | st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=8) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=12)


def run_capturing(*argv) -> tuple:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(*argv)
    return code, err.getvalue()


# key None replaces the whole sidecar with a document that is not an object
@pytest.mark.parametrize("name,key", [(name, key) for name, keys in SIDECAR_KEYS.items()
                                      for key in (None,) + keys])
@settings(max_examples=60, deadline=None)
@given(value=JSON_VALUES)
def test_malformed_sidecar_exits_4(sidecar_pairs, name, key, value):
    if key is None:
        doc = [value] if isinstance(value, dict) else value
    else:
        doc = {**json.loads((sidecar_pairs / f"{name}.json").read_text()), key: value}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / name
        shutil.copyfile(sidecar_pairs / name, path)
        Path(f"{path}.json").write_text(json.dumps(doc))
        try:
            (load_sinogram if name == "s.sino" else load_volume)(path)
            loaded = True
        except FormatError:
            loaded = False
        commands = {
            "gt.vol": [["evaluate", "--pred", sidecar_pairs / name, "--gt", path,
                        "--report", tmp / "eval.json"],
                       ["export-slices", "--input", path, "--axis", "xy", "--index", 0,
                        "--out", tmp / "s.pgm"]],
            "gray.vol": [["export-slices", "--input", path, "--axis", "yz", "--index", 0,
                          "--out", tmp / "s.pgm"]],
            "s.sino": [["reconstruct", "--input", path, "--out", tmp / "r.vol",
                        "--size", 6, 6]],
        }[name]
        for argv in commands:
            code, stderr = run_capturing(*argv)
            if not loaded:
                expect_error(code, stderr, 4, "FormatError")
            elif code:  # a sidecar that loads may still not fit the command
                assert json.loads(stderr.strip())["exit_code"] == code == 4


def test_tiny_voxel_size_reconstruction_exits_4(sidecar_pairs, tmp_path):
    # pi / (2 * n_angles) / 5e-324 overflows the filter scale, so the result is not finite
    path = tmp_path / "s.sino"
    shutil.copyfile(sidecar_pairs / "s.sino", path)
    doc = json.loads((sidecar_pairs / "s.sino.json").read_text())
    Path(f"{path}.json").write_text(json.dumps({**doc, "voxel_size_um": 5e-324}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stderr = run_capturing("reconstruct", "--input", path, "--out", tmp_path / "r.vol",
                                     "--size", 6, 6)
    line = expect_error(code, stderr, 4, "ReconstructionError")
    assert "not finite" in line["message"]
    assert not (tmp_path / "r.vol").exists()


@pytest.mark.parametrize("flags", [["--size", 0, 48], ["--size", -3, 48],
                                   ["--window", 0, "inf"], ["--window", 0, "1e400"]],
                         ids=["size_zero", "size_negative", "window_infinite",
                              "window_overflow"])
def test_reconstruct_size_or_window_out_of_range_exits_2(sidecar_pairs, tmp_path, capsys,
                                                         flags):
    expect_error(run("reconstruct", "--input", sidecar_pairs / "s.sino",
                     "--out", tmp_path / "r.vol", *flags),
                 capsys.readouterr().err, 2, "ConfigError")
    assert not (tmp_path / "r.vol").exists()


@pytest.mark.parametrize("window", [["0", "inf"], ["0", "1e400"], ["1", "0"], ["0", "nan"]],
                         ids=["infinite", "overflow", "reversed", "nan"])
def test_reconstruct_refuses_a_window_before_reconstructing(sidecar_pairs, tmp_path, capsys,
                                                             monkeypatch, window):
    from tomoseg import cli

    def no_fbp(*_, **__):
        raise AssertionError("fbp_reconstruct ran")

    monkeypatch.setattr(cli, "fbp_reconstruct", no_fbp)
    code = main(["reconstruct", "--input", str(sidecar_pairs / "s.sino"),
                 "--out", str(tmp_path / "r.vol"), "--window", *window])
    line = expect_error(code, capsys.readouterr().err, 2, "ConfigError")
    assert line["message"].startswith("window must be")
    assert not (tmp_path / "r.vol").exists()


def test_evaluate_repeated_class_names_exits_4(sidecar_pairs, tmp_path, capsys):
    gt = tmp_path / "gt.vol"
    shutil.copyfile(sidecar_pairs / "gt.vol", gt)
    doc = json.loads((sidecar_pairs / "gt.vol.json").read_text())
    Path(f"{gt}.json").write_text(json.dumps({**doc, "classes": ["Background", "Heart", "Heart"]}))
    line = expect_error(run("evaluate", "--pred", sidecar_pairs / "gt.vol", "--gt", gt,
                            "--report", tmp_path / "eval.json"),
                        capsys.readouterr().err, 4, "FormatError")
    assert "repeats a name" in line["message"]
    assert not (tmp_path / "eval.json").exists()


# each command line names the directory "d" where it reads or writes one file; the other
# files are valid and lie beside it
DIRECTORY_ARGUMENTS = {
    "phantom_spec": ["phantom", "--spec", "d", "--out", "ph"],
    "ablate_config": ["ablate-dose", "--config", "d", "--out", "out"],
    "infer_models": ["infer", "--input", "gray.vol", "--models", "d", "m.json", "m.json",
                     "--out", "seg.vol"],
    "project_out": ["project", "--input", "atten.vol", "--out", "d", "--angles", 4,
                    "--step", 45.0, "--bins", 12],
    "evaluate_report": ["evaluate", "--pred", "gt.vol", "--gt", "gt.vol", "--report", "d"],
    "export_out": ["export-slices", "--input", "gt.vol", "--axis", "xy", "--index", 0,
                   "--out", "d"],
}


@pytest.mark.parametrize("argv", DIRECTORY_ARGUMENTS.values(), ids=DIRECTORY_ARGUMENTS.keys())
def test_a_directory_in_place_of_a_file_exits_3(sidecar_pairs, tmp_path, capsys, monkeypatch,
                                                argv):
    monkeypatch.chdir(tmp_path)
    for name in ("gt.vol", "gray.vol"):
        for suffix in ("", ".json"):
            shutil.copyfile(sidecar_pairs / (name + suffix), tmp_path / (name + suffix))
    save_volume(AttenuationVolume(np.full((4, 8, 8), 0.5, dtype=np.float32)),
                tmp_path / "atten.vol")
    save_model(SoftmaxModel(n_classes=2), tmp_path / "m.json")
    (tmp_path / "d").mkdir()
    expect_error(run(*argv), capsys.readouterr().err, 3, "IsADirectoryError")
    assert (tmp_path / "d").is_dir() and not any((tmp_path / "d").iterdir())


def test_a_dead_forked_worker_exits_4(tmp_path, capsys, monkeypatch):
    from tomoseg import cli

    def dead_worker(*_, **__):
        raise ChildProcessError("forked worker 7 ended with wait status 9 after sending 0 bytes")

    monkeypatch.setattr(cli, "run_dose_ablation", dead_worker)
    line = expect_error(run("ablate-dose", "--out", tmp_path), capsys.readouterr().err, 4,
                        "ChildProcessError")
    assert "forked worker 7" in line["message"]


@pytest.mark.parametrize("flag,code,error", [("--config", 2, "SchemaError"),
                                             ("--models", 4, "FormatError")],
                         ids=["config", "model"])
def test_a_json_input_that_is_not_utf8_exits_with_its_reader_error(tmp_path, capsys,
                                                                     monkeypatch, flag, code,
                                                                     error):
    monkeypatch.chdir(tmp_path)
    save_volume(GrayVolume(np.zeros((4, 4, 4), dtype=np.uint16)), "g.vol")
    Path("m.json").write_text(json.dumps(_model_doc()))
    Path("bad.json").write_bytes(b"\xff\xfe{")
    argv = {"--config": ["ablate-dose", "--config", "bad.json"],
            "--models": ["infer", "--input", "g.vol", "--models", "bad.json", "m.json",
                         "m.json", "--out", "seg.vol"]}[flag]
    line = expect_error(run(*argv), capsys.readouterr().err, code, error)
    assert "unreadable" in line["message"] and "bad.json" in line["message"]
    assert sorted(os.listdir()) == ["bad.json", "g.vol", "g.vol.json", "m.json"]


@pytest.mark.parametrize("index", [8, 999, -1])
def test_export_slice_index_out_of_range_exits_2(tmp_path, capsys, index):
    save_volume(LabelVolume(np.zeros((8, 8, 8), dtype=np.uint8)), tmp_path / "l.vol")
    line = expect_error(run("export-slices", "--input", tmp_path / "l.vol", "--axis", "xy",
                            "--index", index, "--out", tmp_path / "s.pgm"),
                        capsys.readouterr().err, 2, "ConfigError")
    assert "out of range" in line["message"]
    assert not (tmp_path / "s.pgm").exists()


def test_infer_on_a_zero_extent_volume_exits_4(tmp_path, capsys):
    save_volume(GrayVolume(np.zeros((1, 8, 8), dtype=np.uint16)), tmp_path / "g.vol")
    doc = json.loads((tmp_path / "g.vol.json").read_text())
    (tmp_path / "g.vol.json").write_text(json.dumps({**doc, "dims": [8, 8, 0]}))
    (tmp_path / "g.vol").write_bytes(b"")
    models = [tmp_path / f"m{stage}.json" for stage in (1, 2, 3)]
    for k, path in zip((4, 2, 2), models):
        save_model(SoftmaxModel(n_classes=k), path)
    line = expect_error(run("infer", "--input", tmp_path / "g.vol", "--models", *models,
                            "--out", tmp_path / "seg.vol"),
                        capsys.readouterr().err, 4, "FormatError")
    assert "zero extent" in line["message"]
    assert not (tmp_path / "seg.vol").exists()


def test_train_defaults_are_the_model_defaults():
    from dataclasses import fields

    from tomoseg.cli import build_parser
    from tomoseg.segmodel import SoftmaxModel

    args = build_parser().parse_args(["train", "--stage", "1", "--gray", "g.vol",
                                      "--labels", "l.vol", "--out", "m.json"])
    model = {f.name: f.default for f in fields(SoftmaxModel)}
    assert (args.lr, args.epochs, args.batch, args.l2) == (
        model["learning_rate"], model["epochs"], model["batch_size"], model["l2"])
    assert (args.lr, args.batch) == (0.05, 1024)


def run_python(code: str, *args) -> str:
    """Standard output of ``python -c code args...`` in a fresh interpreter that
    imports tomoseg from this session's path, so its module imports start cold."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    return subprocess.run([sys.executable, "-c", code, *(str(a) for a in args)],
                          capture_output=True, text=True, check=True, env=env,
                          timeout=60).stdout


def test_cli_import_leaves_scipy_sparse_unloaded():
    # every CLI step is its own process; the sparse operators load scipy.sparse on use
    code = "import sys, tomoseg.cli; print('scipy.sparse' in sys.modules)"
    assert run_python(code).strip() == "False"


def test_cli_import_leaves_scipy_unloaded():
    # only the sparse operators of project and reconstruct load scipy, and only on use;
    # stage training forks through os alone, so no process-pool module loads either
    code = ("import sys, tomoseg.cli; print(sorted(m for m in sys.modules if m.startswith("
            "('scipy', 'multiprocessing', 'concurrent.futures.process'))))")
    assert run_python(code).strip() == "[]"


# Run one CLI step; the last stdout line is its exit code and the scipy parts it loaded.
STEP_CODE = """
import json, sys
from tomoseg.cli import main
code = main(sys.argv[1:])
print(json.dumps([code] + [m for m in ("scipy.ndimage", "scipy.sparse") if m in sys.modules]))
"""


def test_each_step_loads_only_the_scipy_it_uses(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spec_to_dict(default_spec(n=48, seed=7))))
    models = [tmp_path / f"m{stage}.json" for stage in (1, 2, 3)]
    steps = [
        (["phantom", "--spec", spec, "--out", tmp_path / "ph"], []),
        (["project", "--input", tmp_path / "ph/atten_000.vol", "--out", tmp_path / "s.sino",
          "--angles", 60, "--step", 3.0, "--bins", 80], ["scipy.sparse"]),
        (["reconstruct", "--input", tmp_path / "s.sino", "--out", tmp_path / "recon.vol",
          "--size", 48, 48], ["scipy.sparse"]),
        *((["train", "--stage", stage, "--gray", tmp_path / "recon.vol",
            "--labels", tmp_path / "ph/gt_000.vol", "--out", model,
            "--epochs", 2, "--batch", 512, "--tile", 48, "--stride", 1, "--seed", 1], [])
          for stage, model in zip((1, 2, 3), models)),
        (["infer", "--input", tmp_path / "recon.vol", "--models", *models,
          "--out", tmp_path / "seg.vol", "--jobs", 1], []),
        (["evaluate", "--pred", tmp_path / "seg.vol", "--gt", tmp_path / "ph/gt_000.vol",
          "--report", tmp_path / "eval.json"], []),
        (["export-slices", "--input", tmp_path / "seg.vol", "--axis", "xy", "--index", 24,
          "--out", tmp_path / "seg.pgm"], []),
    ]
    for argv, loaded in steps:
        out = run_python(STEP_CODE, *argv).strip().splitlines()[-1]
        assert json.loads(out) == [0] + loaded, argv[0]
