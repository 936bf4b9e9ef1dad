"""End-to-end command-line coverage on a small cohort.

A session fixture runs the whole chain once (phantom -> project ->
reconstruct -> train x3 -> infer -> evaluate -> export-slices) and the
tests pick over the produced files.  Error paths assert the exit code
contract: 2 config, 3 missing file, 4 computation.
"""

import json

import numpy as np
import pytest

from tomoseg.cli import main
from tomoseg.config import ExperimentConfig
from tomoseg.core import AcquisitionConfig, LabelVolume, ViewAxis, extract_slice, \
    load_volume
from tomoseg.pgm import label_to_8bit, read_pgm
from tomoseg.phantom import default_spec, spec_to_dict

TRAIN_FLAGS = ["--epochs", "6", "--lr", "0.05", "--batch", "512",
               "--tile", "48", "--stride", "1", "--seed", "1"]


def run(*argv) -> int:
    return main([str(a) for a in argv])


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


class TestErrorPaths:
    def test_missing_input_exits_3(self, tmp_path, capsys):
        assert run("project", "--input", tmp_path / "none.vol",
                   "--out", tmp_path / "s.sino",
                   "--angles", 10, "--step", 1.0, "--bins", 8) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "FileNotFoundError"
        assert err["exit_code"] == 3

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run("ablate-dose", "--config", cfg, "--out", tmp_path) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "SchemaError"
        assert "bogus" in err["message"]

    def test_wrong_volume_kind_exits_4(self, chain, tmp_path, capsys):
        assert run("project", "--input", chain / "ph/gt_000.vol",
                   "--out", tmp_path / "s.sino",
                   "--angles", 10, "--step", 1.0, "--bins", 8) == 4
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DataError"

    def test_dims_mismatch_exits_4(self, chain, tmp_path, capsys):
        from tomoseg.core import save_volume
        data = np.zeros((8, 8, 8), dtype=np.uint8)
        data[0, 0, 0] = 1
        small = tmp_path / "small.vol"
        save_volume(LabelVolume(data), small)
        assert run("evaluate", "--pred", chain / "seg.vol", "--gt", small) == 4
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ShapeError"
        assert err["exit_code"] == 4

    def test_train_cohort_length_mismatch_exits_2(self, chain, capsys):
        assert run("train", "--stage", 1, "--gray", chain / "recon0.vol",
                   "--labels", chain / "ph/gt_000.vol", chain / "ph/gt_001.vol",
                   "--out", chain / "unused.json") == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"

    @pytest.mark.parametrize("flag,value", [("--l2", "nan"), ("--lr", "inf")],
                             ids=["l2_nan", "lr_inf"])
    def test_train_non_finite_hyperparameter_exits_2(self, chain, tmp_path, capsys,
                                                     monkeypatch, flag, value):
        from tomoseg import pipeline

        def no_training(*_):
            raise AssertionError("training stacks built before the model was validated")

        monkeypatch.setattr(pipeline, "stage_training_stacks", no_training)
        assert run("train", "--stage", 1, "--gray", chain / "recon0.vol",
                   "--labels", chain / "ph/gt_000.vol", "--out", tmp_path / "m.json",
                   *TRAIN_FLAGS, flag, value) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert err["exit_code"] == 2
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
    assert run("train", "--stage", 2, "--gray", tmp_path / "g.vol",
               "--labels", tmp_path / "l.vol", "--out", tmp_path / "m.json",
               *TRAIN_FLAGS) == 4
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "TrainingError"
    assert "class 1 absent" in err["message"]
    assert err["exit_code"] == 4
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("text", ["{\"dims\": [48, 48,", "[48, 48, 48]", "{\"dims\": \"abc\"}"],
                         ids=["malformed_json", "not_an_object", "dims_not_numbers"])
def test_bad_phantom_spec_exits_2(tmp_path, capsys, text):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    assert run("phantom", "--spec", spec, "--out", tmp_path / "ph") == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "SpecError"
    assert err["exit_code"] == 2
    assert not (tmp_path / "ph").exists()


def _model_doc():
    return {"format": "softmax-featbank", "feature_version": "fb1", "n_classes": 2,
            "class_subset": [0, 1], "weights": [[0.0] * 10] * 2,
            "hyperparameters": {}, "metadata": {}}


@pytest.mark.parametrize("doc", [
    [_model_doc()],
    {k: v for k, v in _model_doc().items() if k != "class_subset"},
    {k: v for k, v in _model_doc().items() if k != "n_classes"},
    {**_model_doc(), "weights": "x"},
    {**_model_doc(), "hyperparameters": [1]},
], ids=["list", "no_class_subset", "no_n_classes", "weights_not_numbers",
        "hyperparameters_not_object"])
def test_malformed_model_exits_4(tmp_path, capsys, doc):
    from tomoseg.core import GrayVolume, save_volume
    save_volume(GrayVolume(np.zeros((4, 4, 4), dtype=np.uint16)), tmp_path / "g.vol")
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    assert run("infer", "--input", tmp_path / "g.vol", "--models", model, model, model,
               "--out", tmp_path / "seg.vol") == 4
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "FormatError"
    assert err["exit_code"] == 4
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


def test_cli_import_leaves_scipy_sparse_unloaded():
    # every CLI step is its own process; the sparse operators load scipy.sparse on use
    import os
    import subprocess
    import sys

    code = "import sys, tomoseg.cli; print('scipy.sparse' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env, timeout=60)
    assert out.stdout.strip() == "False"
