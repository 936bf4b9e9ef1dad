"""Experiment config schema: defaults, round trips, rejection of junk."""

import json
import re
from pathlib import Path

import pytest

from tomoseg.config import ExperimentConfig, config_from_dict
from tomoseg.core import read_json
from tomoseg.errors import SchemaError
from tomoseg.filters import FilterConfig
from tomoseg.phantom import default_spec, split_cohort
from tomoseg.pipeline import StageConfig, default_stage_configs


class TestDefaults:
    def test_default_construction(self):
        cfg = ExperimentConfig()
        assert cfg.seed == 0
        assert cfg.cohort_size == 3
        assert cfg.doses == (1, 2, 3)
        assert set(cfg.stages) == {1, 2, 3}
        assert cfg.recon_filter == "ramlak"
        assert cfg.acquisition.n_projections == 300

    def test_stage_defaults_follow_stage_number(self):
        cfg = ExperimentConfig()
        assert cfg.stages[1].mask_to_ventricle is False
        assert cfg.stages[2].mask_to_ventricle is True
        assert cfg.stages[3].mask_to_ventricle is True
        assert cfg.stages[1].tile_size == 400
        assert cfg.stages[2].tile_size == 224

    def test_phantom_seed_tracks_config_seed(self):
        assert ExperimentConfig(seed=5).phantom.seed == 5


class TestValidation:
    def test_bad_cohort(self):
        with pytest.raises(SchemaError, match="cohort_size"):
            ExperimentConfig(cohort_size=0)

    @pytest.mark.parametrize("doses", [(), (1, 1), (0,), (1, 4)])
    def test_bad_doses(self, doses):
        with pytest.raises(SchemaError, match="doses"):
            ExperimentConfig(doses=doses)

    def test_bad_recon_filter(self):
        with pytest.raises(SchemaError, match="filter"):
            ExperimentConfig(recon_filter="shepp")

    def test_unknown_protocol_key(self):
        with pytest.raises(SchemaError, match="protocol"):
            ExperimentConfig(protocol={"learning_rate": 0.1})

    def test_unknown_model_key(self):
        with pytest.raises(SchemaError, match="model"):
            ExperimentConfig(model={"momentum": 0.9})

    def test_stage_coverage(self):
        cfg = ExperimentConfig()
        with pytest.raises(SchemaError, match="stages"):
            ExperimentConfig(stages={1: cfg.stages[1]})

    def test_stages_share_one_filter_config(self):
        stages = default_stage_configs()
        stages[2] = StageConfig(stage=2, filter_config=FilterConfig(unsharp_sigma=3.0))
        with pytest.raises(SchemaError, match="filter"):
            ExperimentConfig(stages=stages)

    @pytest.mark.parametrize("seed", ["5", 5.0, None, True],
                             ids=["text", "float", "none", "bool"])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(SchemaError, match="seed"):
            ExperimentConfig(seed=seed)


class TestDocumentRoundTrip:
    def test_to_dict_from_dict_identity(self):
        cfg = ExperimentConfig(seed=3, cohort_size=2, doses=(1, 3),
                               protocol={"val_fraction": 0.25},
                               model={"epochs": 20, "learning_rate": 0.05},
                               include_background=True, recon_filter="hann")
        doc = cfg.to_dict()
        again = config_from_dict(doc)
        assert again.to_dict() == doc
        assert again.seed == 3
        assert again.doses == (1, 3)
        assert again.include_background is True
        assert again.recon_filter == "hann"
        assert again.model["epochs"] == 20

    def test_document_is_json_serializable(self):
        doc = ExperimentConfig().to_dict()
        assert config_from_dict(json.loads(json.dumps(doc))).to_dict() == doc

    def test_partial_document_fills_defaults(self):
        cfg = config_from_dict({"seed": 9, "stages": {"2": {"tile_size": 64}}})
        assert cfg.seed == 9
        assert cfg.stages[2].tile_size == 64
        assert cfg.stages[1].tile_size == 400
        assert set(cfg.stages) == {1, 2, 3}

    def test_filters_reach_every_stage(self):
        filters = {"unsharp_sigma": 3.0, "unsharp_amount": 0.5, "median_radius": 1,
                   "histeq_bins": 64}
        cfg = config_from_dict({"filters": filters, "stages": {"2": {"tile_size": 64}}})
        assert {s.filter_config for s in cfg.stages.values()} == {FilterConfig(**filters)}
        assert cfg.filter_config == FilterConfig(**filters)
        assert cfg.to_dict()["filters"] == filters
        assert config_from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()

    @pytest.mark.parametrize("n", [48, 64])
    @pytest.mark.parametrize("seed", range(4))
    def test_phantom_dims_alone_scale_the_cavities(self, n, seed):
        cfg = config_from_dict({"seed": seed, "phantom": {"dims": [n, n, n], "seed": seed}})
        assert cfg.phantom == default_spec(n, seed)
        for (atten, labels), (want_atten, want_labels) in zip(
                split_cohort(cfg.phantom, 3), split_cohort(default_spec(n, seed), 3)):
            assert atten.data.tobytes() == want_atten.data.tobytes()
            assert labels.data.tobytes() == want_labels.data.tobytes()

    def test_stage_preprocess_list_becomes_tuple(self):
        cfg = config_from_dict({"stages": {"2": {"preprocess": ["median", "unsharp"]}}})
        assert cfg.stages[2].preprocess == ("median", "unsharp")

    @pytest.mark.parametrize("doc", [
        {"bogus": 1},
        {"acquisition": {"n_projections": 10, "angular_step_deg": 1.0,
                         "detector_bins": 8, "gantry": "x"}},
        {"filters": {"unsharp_sigma": 1.0, "kernel": "bad"}},
        {"stages": {"4": {}}},
        {"stages": {"1": {"tile_size": 32, "color": "red"}}},
        {"eval": {"metric": "dice"}},
        {"reconstruction": {"filter": "ramlak", "pad": 2}},
        {"stages": {"2": {"mask_to_ventricle": True}}},
    ])
    def test_unknown_keys_rejected_everywhere(self, doc):
        with pytest.raises(SchemaError):
            config_from_dict(doc)

    def test_non_object_section_rejected(self):
        with pytest.raises(SchemaError):
            config_from_dict({"acquisition": [1, 2, 3]})


def test_readme_config_block_is_accepted_and_round_trips():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Experiment config", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    cfg = config_from_dict(json.loads(block))
    assert config_from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def load_config(path) -> ExperimentConfig:
    """A config file read as ``ablate-dose --config`` reads it."""
    return config_from_dict(read_json(path, SchemaError, "config"))


class TestFiles:
    def test_load_round_trip(self, tmp_path):
        doc = ExperimentConfig(seed=4, cohort_size=2).to_dict()
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        assert load_config(path).to_dict() == doc

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "nope.json")

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "bad.json"
        for raw in (b"{not json", b"\xff\xfe{"):  # not JSON; not UTF-8
            path.write_bytes(raw)
            with pytest.raises(SchemaError, match="unreadable"):
                load_config(path)

