"""One JSON document configuring a whole experiment.

The schema mirrors the toolchain: a phantom section, an acquisition
section, dose strides, filter parameters, per-stage settings, the tile
sampling protocol, classifier hyperparameters, and evaluation options.
The keys of the phantom, acquisition and filters sections are the fields
of ``PhantomSpec``, ``AcquisitionConfig`` and ``FilterConfig``.  Unknown
keys anywhere are rejected before any computation starts, and an integer
setting must be a JSON integer.  The three stages share the one filters
section, and each stage trains with the seed ``seed + stage``.
"""

from dataclasses import dataclass, fields

from .core import AcquisitionConfig, checked_keys, from_json_fields, integers, json_fields
from .errors import ConfigError, SchemaError
from .filters import FilterConfig
from .phantom import PhantomSpec, default_spec, spec_from_dict, spec_to_dict
from .pipeline import StageConfig, default_stage_configs
from .segmodel import DEFAULT_HYPERPARAMETERS, SoftmaxModel, TrainProtocol
from .tomo import RECON_FILTERS

# Each stage sets its own tile size and seed; the rest of the protocol is shared.
_PROTOCOL_KEYS = tuple(f.name for f in fields(TrainProtocol)
                       if f.name not in ("tile_size", "seed"))


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
        integers((self.seed, self.cohort_size), "seed and cohort_size", SchemaError)
        if not isinstance(self.out_dir, str):
            raise SchemaError(f"out_dir must be a string, got {self.out_dir!r}")
        if not isinstance(self.include_background, bool):
            raise SchemaError(f"include_background must be true or false, "
                              f"got {self.include_background!r}")
        if self.phantom is None:
            object.__setattr__(self, "phantom", default_spec(seed=self.seed))
        if self.acquisition is None:
            object.__setattr__(self, "acquisition", AcquisitionConfig(300, 0.6, 192))
        if self.stages is None:
            object.__setattr__(self, "stages", default_stage_configs())
        object.__setattr__(self, "protocol", checked_keys(self.protocol or {}, _PROTOCOL_KEYS,
                                                         "protocol", SchemaError))
        object.__setattr__(self, "model", checked_keys(self.model or {}, DEFAULT_HYPERPARAMETERS,
                                                      "model", SchemaError))
        object.__setattr__(self, "doses", integers(self.doses, "doses", SchemaError))
        if self.cohort_size < 1:
            raise SchemaError(f"cohort_size must be >= 1, got {self.cohort_size}")
        if not self.doses or len(set(self.doses)) != len(self.doses) \
                or not set(self.doses) <= {1, 2, 3}:
            raise SchemaError(f"doses must be distinct values from {{1,2,3}}, "
                              f"got {list(self.doses)}")
        if self.recon_filter not in RECON_FILTERS:
            raise SchemaError(f"unknown reconstruction filter {self.recon_filter!r}")
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
        return {
            "seed": self.seed,
            "out_dir": self.out_dir,
            "cohort_size": self.cohort_size,
            "phantom": spec_to_dict(self.phantom),
            "acquisition": json_fields(self.acquisition),
            "doses": list(self.doses),
            "filters": json_fields(self.filter_config),
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
    top = checked_keys(doc, ("seed", "out_dir", "cohort_size", "phantom", "acquisition",
                             "doses", "filters", "stages", "protocol", "model", "eval",
                             "reconstruction"), "config", SchemaError)
    kw = {key: top[key] for key in ("seed", "out_dir", "cohort_size", "doses", "protocol",
                                    "model") if key in top}
    try:
        if "phantom" in top:
            kw["phantom"] = spec_from_dict(top["phantom"])
        if "acquisition" in top:
            kw["acquisition"] = from_json_fields(AcquisitionConfig, top["acquisition"],
                                                 "acquisition", SchemaError)
        fc = from_json_fields(FilterConfig, top.get("filters", {}), "filters", SchemaError)
        stages = default_stage_configs(fc)
        for key, body in checked_keys(top.get("stages", {}), ("1", "2", "3"), "stages",
                                      SchemaError).items():
            body = checked_keys(body, ("tile_size", "preprocess"), f"stage {key}", SchemaError)
            stages[int(key)] = StageConfig(stage=int(key), filter_config=fc, **body)
        kw["stages"] = stages
        if "eval" in top:
            ev = checked_keys(top["eval"], ("include_background",), "eval", SchemaError)
            kw["include_background"] = ev.get("include_background", False)
        if "reconstruction" in top:
            rec = checked_keys(top["reconstruction"], ("filter",), "reconstruction", SchemaError)
            if "filter" in rec:
                kw["recon_filter"] = rec["filter"]
        return ExperimentConfig(**kw)
    except (ConfigError, TypeError, ValueError, KeyError) as err:
        raise SchemaError(f"malformed config: {type(err).__name__}: {err}") from err
