"""Command-line entry point wiring the toolchain together.

Subcommands follow the workflow order: phantom -> project -> reconstruct
-> train -> infer -> evaluate, plus ablate-dose for the dose experiment
and export-slices for quick visual checks.  Exit codes: 0 success,
2 config/schema violations, 3 files that cannot be read or written
(missing, a directory, no permission), 4 computation errors, a dead
forked worker among them; every failure prints one JSON error line to
stderr.
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import config_from_dict
from .core import AcquisitionConfig, AttenuationVolume, GrayVolume, LabelVolume, ViewAxis, \
    extract_slice, load_volume, read_json, save_volume, worker_count, write_json
from .errors import ConfigError, DataError, SchemaError, SpecError, TomosegError, \
    UsageError
from .evaluate import evaluate_volumes, run_dose_ablation
from .pgm import float_to_8bit, gray_to_8bit, label_to_8bit, write_pgm
from .phantom import default_spec, spec_from_dict, spec_to_dict, split_cohort
from .pipeline import StageConfig, canonical_report, run_full, train_stage
from .segmodel import DEFAULT_HYPERPARAMETERS, TrainProtocol, load_model, save_model
from .tomo import RECON_FILTERS, DoseLevel, fbp_reconstruct, forward_project, \
    load_sinogram, normalize_to_u16, save_sinogram, subsample_dose, window_bounds


def _expect(vol, kind, path):
    if not isinstance(vol, kind):
        raise DataError(f"{path}: expected a {kind.__name__}, got {type(vol).__name__}")
    return vol


def cmd_phantom(args) -> int:
    if args.spec:
        spec = spec_from_dict(read_json(args.spec, SpecError, "phantom spec"))
    else:
        spec = default_spec()
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for i, (atten, gt) in enumerate(split_cohort(spec, args.cohort)):
        apath, gpath = out / f"atten_{i:03d}.vol", out / f"gt_{i:03d}.vol"
        save_volume(atten, apath)
        save_volume(gt, gpath)
        files.append({"attenuation": apath.name, "ground_truth": gpath.name})
    write_json(out / "manifest.json", {"spec": spec_to_dict(spec), "samples": files})
    print(f"wrote {args.cohort} phantom(s) to {out}")
    return 0


def cmd_project(args) -> int:
    vol = _expect(load_volume(args.input), AttenuationVolume, args.input)
    cfg = AcquisitionConfig(args.angles, args.step, args.bins)
    save_sinogram(forward_project(vol, cfg), args.out)
    print(f"wrote sinogram {args.out} ({cfg.n_projections} angles x {cfg.detector_bins} bins)")
    return 0


def cmd_reconstruct(args) -> int:
    window = window_bounds(args.window)  # refused before any reconstruction
    sino = load_sinogram(args.input)
    if args.dose != 1:
        sino = subsample_dose(sino, DoseLevel(args.dose))
    nx, ny = args.size if args.size else (sino.n_bins, sino.n_bins)
    recon = fbp_reconstruct(sino, (nx, ny, sino.n_slices), args.filter)
    save_volume(normalize_to_u16(recon, window), args.out)
    print(f"wrote reconstruction {args.out} ({nx}x{ny}x{sino.n_slices}, dose D{args.dose})")
    return 0


def cmd_train(args) -> int:
    if len(args.gray) != len(args.labels):
        raise ConfigError(f"{len(args.gray)} gray volumes vs {len(args.labels)} "
                          "label volumes")
    cfg = StageConfig(stage=args.stage, tile_size=args.tile, preprocess=args.preprocess)
    cohort = [(_expect(load_volume(g), GrayVolume, g),
               _expect(load_volume(l), LabelVolume, l))
              for g, l in zip(args.gray, args.labels)]
    model, history = train_stage(cfg, cohort, args.seed,
                                 {"slice_stride": args.stride,
                                  "val_fraction": args.val_fraction},
                                 learning_rate=args.lr, epochs=args.epochs,
                                 batch_size=args.batch, l2=args.l2)
    model.metadata["history"] = history
    save_model(model, args.out)
    last = history[-1] if history else {"train_loss": float("nan"), "val_iou": float("nan")}
    print(f"wrote model {args.out} (loss {last['train_loss']:.4f}, "
          f"val IoU {last['val_iou']:.4f})")
    return 0


def cmd_infer(args) -> int:
    vol = _expect(load_volume(args.input), GrayVolume, args.input)
    models = {i + 1: load_model(p) for i, p in enumerate(args.models)}
    final, report = run_full(models, vol, jobs=args.jobs,
                             config_snapshot={"models": [str(p) for p in args.models],
                                              "input": str(args.input)})
    save_volume(final, args.out)
    if args.report:
        write_json(args.report, canonical_report(report))
    timing = " ".join(f"{k}={v:.2f}s" for k, v in report["timings"].items())
    print(f"wrote segmentation {args.out} ({timing})")
    return 0


def cmd_evaluate(args) -> int:
    pred = _expect(load_volume(args.pred), LabelVolume, args.pred)
    gt = _expect(load_volume(args.gt), LabelVolume, args.gt)
    rep = evaluate_volumes(pred, gt, include_background=args.include_background)
    if args.report:
        rep.save(args.report)
    print(f"weighted_iou {rep.weighted_iou:.6f}")
    for name, value in sorted(rep.per_class_iou.items()):
        print(f"iou {name} {value:.6f}")
    return 0


def _with_keys(section, **values):
    """``section`` with every value that is not None set; a section that is not
    an object comes back as it is, for ``config_from_dict`` to reject."""
    if not isinstance(section, dict):
        return section
    return {**section, **{key: value for key, value in values.items() if value is not None}}


def cmd_ablate_dose(args) -> int:
    doc = read_json(args.config, SchemaError, "config") if args.config else {}
    if isinstance(doc, dict):
        # a flag sets its key in the document, so it means what the key means in a file
        doc = _with_keys(doc, seed=args.seed, cohort_size=args.cohort,
                         model=_with_keys(doc.get("model") or {}, epochs=args.epochs,
                                          learning_rate=args.lr))
    cfg = config_from_dict(doc)
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    matrix, _, _ = run_dose_ablation(cfg, jobs=args.jobs, log=print)
    write_json(out / "dose_matrix.json", {"config": cfg.to_dict(), "matrix": matrix.to_dict()})
    table = matrix.format_table()
    (out / "dose_matrix.txt").write_text(table + "\n")
    print(table)
    return 0


def cmd_export_slices(args) -> int:
    vol = load_volume(args.input)
    try:
        img = extract_slice(vol, ViewAxis(args.axis), args.index)
    except IndexError as err:
        raise ConfigError(str(err)) from err
    if isinstance(vol, LabelVolume):
        img8 = label_to_8bit(img)
    elif isinstance(vol, GrayVolume):
        img8 = gray_to_8bit(img)
    else:
        img8 = float_to_8bit(img)
    write_pgm(img8, args.out)
    print(f"wrote {args.out} ({img8.shape[0]}x{img8.shape[1]})")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections, like every other bad input, end
    with a JSON error line; subcommand parsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_fail(2, UsageError(f"{self.prog}: {message}")))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tomoseg",
        description="Synthetic micro-CT segmentation workflow: phantoms, "
                    "projection, FBP reconstruction, staged training, "
                    "inference, and dose ablation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a phantom cohort")
    p.add_argument("--spec", help="phantom spec JSON (default: built-in spec)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--cohort", type=int, default=1, help="number of samples")
    p.add_argument("--seed", type=int, help="override the spec seed")
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("project", help="forward-project a volume to a sinogram")
    p.add_argument("--input", required=True, help="attenuation volume (.vol)")
    p.add_argument("--out", required=True, help="sinogram output (.sino)")
    p.add_argument("--angles", type=int, required=True, help="projection count")
    p.add_argument("--step", type=float, required=True, help="angular step (deg)")
    p.add_argument("--bins", type=int, required=True, help="detector bins")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("reconstruct", help="filtered back-projection")
    p.add_argument("--input", required=True, help="sinogram (.sino)")
    p.add_argument("--out", required=True, help="reconstructed gray volume (.vol)")
    p.add_argument("--dose", type=int, default=1, choices=(1, 2, 3),
                   help="angle decimation stride")
    p.add_argument("--filter", default="ramlak", choices=RECON_FILTERS)
    p.add_argument("--size", type=int, nargs=2, metavar=("NX", "NY"),
                   help="slice size (default: detector bins squared)")
    p.add_argument("--window", type=float, nargs=2, default=AcquisitionConfig.absorption_window,
                   metavar=("LO", "HI"), help="normalization window")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("train", help="train one stage model")
    p.add_argument("--stage", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--gray", nargs="+", required=True, help="gray volumes")
    p.add_argument("--labels", nargs="+", required=True, help="ground-truth volumes")
    p.add_argument("--out", required=True, help="model JSON output")
    p.add_argument("--tile", type=int, help="tile size (default per stage)")
    p.add_argument("--epochs", type=int, default=DEFAULT_HYPERPARAMETERS["epochs"])
    p.add_argument("--lr", type=float, default=DEFAULT_HYPERPARAMETERS["learning_rate"],
                   help="learning rate")
    p.add_argument("--batch", type=int, default=DEFAULT_HYPERPARAMETERS["batch_size"],
                   help="pixels per step")
    p.add_argument("--l2", type=float, default=DEFAULT_HYPERPARAMETERS["l2"])
    p.add_argument("--stride", type=int, default=TrainProtocol.slice_stride,
                   help="slice stride")
    p.add_argument("--val-fraction", type=float, default=TrainProtocol.val_fraction)
    p.add_argument("--preprocess", nargs="*",
                   help="per-slice filters (default per stage)")
    p.add_argument("--seed", type=int, default=TrainProtocol.seed)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="run the full three-stage pipeline")
    p.add_argument("--input", required=True, help="gray volume (.vol)")
    p.add_argument("--models", nargs=3, required=True,
                   metavar=("STAGE1", "STAGE2", "STAGE3"))
    p.add_argument("--out", required=True, help="segmentation output (.vol)")
    p.add_argument("--report", help="report JSON output")
    p.add_argument("--jobs", type=int,
                   help="2 or more labels half of each view's slabs in one forked "
                        "process on Linux (default: every available CPU)")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("evaluate", help="score a segmentation against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--report", help="report JSON output")
    p.add_argument("--include-background", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate-dose", help="train/test dose combination matrix")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--out", help="output directory (default: config out_dir)")
    p.add_argument("--seed", type=int, help="the config's seed")
    p.add_argument("--cohort", type=int, help="the config's cohort_size")
    p.add_argument("--epochs", type=int, help="the config's model.epochs")
    p.add_argument("--lr", type=float, help="the config's model.learning_rate")
    p.add_argument("--jobs", type=int,
                   help="worker threads for projection and FBP; 2 or more also "
                        "trains stages 2 and 3 and labels half of each view's slabs "
                        "in one forked process on Linux (default: every available CPU)")
    p.set_defaults(func=cmd_ablate_dose)

    p = sub.add_parser("export-slices", help="export one slice as 8-bit PGM")
    p.add_argument("--input", required=True, help="any .vol volume")
    p.add_argument("--axis", required=True, choices=("xy", "xz", "yz"))
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--out", required=True, help="PGM output path")
    p.set_defaults(func=cmd_export_slices)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "jobs" in vars(args):
            args.jobs = worker_count(args.jobs)
        return args.func(args)
    except (SchemaError, ConfigError, SpecError) as err:
        return _fail(2, err)
    except (ChildProcessError, TomosegError) as err:  # a dead forked worker is an OSError
        return _fail(4, err)
    except OSError as err:
        return _fail(3, err)


def _fail(code: int, err: Exception) -> int:
    line = {"error": type(err).__name__, "exit_code": code, "message": str(err)}
    print(json.dumps(line), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
