"""One JSON document configuring a whole experiment.

The schema mirrors the toolchain: a phantom section, an acquisition
section, dose strides, filter parameters, per-stage settings, the tile
sampling protocol, classifier hyperparameters, and evaluation options.
Unknown keys anywhere are rejected before any computation starts.  The
three stages share the one filters section, and each stage trains with
the seed ``seed + stage``.
"""

import numbers
from dataclasses import dataclass

from .core import AcquisitionConfig, read_json
from .errors import SchemaError
from .filters import FilterConfig
from .phantom import PhantomSpec, default_spec, spec_from_dict, spec_to_dict
from .pipeline import StageConfig, default_stage_configs
from .segmodel import DEFAULT_HYPERPARAMETERS, SoftmaxModel, TrainProtocol
from .tomo import RECON_FILTERS

_PROTOCOL_KEYS = ("slice_stride", "val_fraction", "tiles_per_slice_per_epoch")
_MODEL_KEYS = tuple(DEFAULT_HYPERPARAMETERS)


def _take(doc: dict, keys, what: str) -> dict:
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} section must be an object, got {type(doc).__name__}")
    doc = dict(doc)
    out = {k: doc.pop(k) for k in keys if k in doc}
    if doc:
        raise SchemaError(f"unknown {what} keys: {sorted(doc)}")
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated composition of every component's settings."""

    seed: int = 0
    out_dir: str = "out"
    cohort_size: int = 3
    phantom: PhantomSpec = None
    acquisition: AcquisitionConfig = None
    doses: tuple = (1, 2, 3)
    stages: dict = None
    protocol: dict = None
    model: dict = None
    include_background: bool = False
    recon_filter: str = "ramlak"

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise SchemaError(f"seed must be an integer, got {self.seed!r}")
        if self.phantom is None:
            object.__setattr__(self, "phantom", default_spec(seed=self.seed))
        if self.acquisition is None:
            object.__setattr__(self, "acquisition", AcquisitionConfig(300, 0.6, 192))
        if self.stages is None:
            object.__setattr__(self, "stages", default_stage_configs())
        object.__setattr__(self, "protocol", dict(self.protocol or {}))
        object.__setattr__(self, "model", dict(self.model or {}))
        object.__setattr__(self, "doses", tuple(int(d) for d in self.doses))
        if self.cohort_size < 1:
            raise SchemaError(f"cohort_size must be >= 1, got {self.cohort_size}")
        if not self.doses or len(set(self.doses)) != len(self.doses) \
                or not set(self.doses) <= {1, 2, 3}:
            raise SchemaError(f"doses must be distinct values from {{1,2,3}}, "
                              f"got {list(self.doses)}")
        if self.recon_filter not in RECON_FILTERS:
            raise SchemaError(f"unknown reconstruction filter {self.recon_filter!r}")
        for key in self.protocol:
            if key not in _PROTOCOL_KEYS:
                raise SchemaError(f"unknown protocol key {key!r}")
        for key in self.model:
            if key not in _MODEL_KEYS:
                raise SchemaError(f"unknown model key {key!r}")
        if set(self.stages) != {1, 2, 3}:
            raise SchemaError(f"stages must cover 1, 2 and 3, got {sorted(self.stages)}")
        if len({cfg.filter_config for cfg in self.stages.values()}) != 1:
            raise SchemaError("the three stages must share one filter config")
        # probe-construct so bad values fail here, not mid-experiment
        TrainProtocol(**self.protocol)
        SoftmaxModel(**self.model)

    @property
    def filter_config(self) -> FilterConfig:
        """The filter parameters every stage shares."""
        return self.stages[1].filter_config

    def to_dict(self) -> dict:
        fc = self.filter_config
        return {
            "seed": self.seed,
            "out_dir": self.out_dir,
            "cohort_size": self.cohort_size,
            "phantom": spec_to_dict(self.phantom),
            "acquisition": {
                "n_projections": self.acquisition.n_projections,
                "angular_step_deg": self.acquisition.angular_step_deg,
                "detector_bins": self.acquisition.detector_bins,
                "absorption_window": list(self.acquisition.absorption_window),
            },
            "doses": list(self.doses),
            "filters": {
                "unsharp_sigma": fc.unsharp_sigma,
                "unsharp_amount": fc.unsharp_amount,
                "median_radius": fc.median_radius,
                "histeq_bins": fc.histeq_bins,
            },
            "stages": {
                str(s): {
                    "tile_size": cfg.tile_size,
                    "preprocess": list(cfg.preprocess),
                }
                for s, cfg in sorted(self.stages.items())
            },
            "protocol": dict(self.protocol),
            "model": dict(self.model),
            "eval": {"include_background": self.include_background},
            "reconstruction": {"filter": self.recon_filter},
        }


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Validated config; unknown keys and malformed values raise SchemaError."""
    top = _take(doc, ("seed", "out_dir", "cohort_size", "phantom", "acquisition",
                      "doses", "filters", "stages", "protocol", "model", "eval",
                      "reconstruction"), "config")
    kw = {key: top[key] for key in ("seed", "out_dir", "cohort_size", "doses", "protocol",
                                    "model") if key in top}
    try:
        if "phantom" in top:
            kw["phantom"] = spec_from_dict(top["phantom"])
        if "acquisition" in top:
            acq = _take(top["acquisition"],
                        ("n_projections", "angular_step_deg", "detector_bins",
                         "absorption_window"), "acquisition")
            if "absorption_window" in acq:
                acq["absorption_window"] = tuple(acq["absorption_window"])
            kw["acquisition"] = AcquisitionConfig(**acq)
        fc = FilterConfig(**_take(top.get("filters", {}),
                                  ("unsharp_sigma", "unsharp_amount", "median_radius",
                                   "histeq_bins"), "filters"))
        raw = top.get("stages", {})
        if not isinstance(raw, dict):
            raise SchemaError("stages section must be an object")
        stages = default_stage_configs(fc)
        for key, body in raw.items():
            if str(key) not in ("1", "2", "3"):
                raise SchemaError(f"unknown stage {key!r}")
            body = _take(body, ("tile_size", "preprocess"), f"stage {key}")
            if "preprocess" in body:
                body["preprocess"] = tuple(body["preprocess"])
            stages[int(key)] = StageConfig(stage=int(key), filter_config=fc, **body)
        kw["stages"] = stages
        if "eval" in top:
            ev = _take(top["eval"], ("include_background",), "eval")
            kw["include_background"] = bool(ev.get("include_background", False))
        if "reconstruction" in top:
            rec = _take(top["reconstruction"], ("filter",), "reconstruction")
            if "filter" in rec:
                kw["recon_filter"] = rec["filter"]
        return ExperimentConfig(**kw)
    except (TypeError, ValueError, KeyError) as err:
        raise SchemaError(f"malformed config: {type(err).__name__}: {err}") from err


def read_config_document(path) -> dict:
    """The parsed JSON of a config file, not yet validated."""
    return read_json(path, SchemaError, "config")


def load_experiment_config(path) -> ExperimentConfig:
    return config_from_dict(read_config_document(path))
