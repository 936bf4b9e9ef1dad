"""Fast self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs every check on real program outputs at small sizes, where it must
pass, and on a corrupted copy of that output, which it must reject.
Phantoms use n=48: below that size ``generate`` and ``split_cohort``
raise on some seeds.  Exits 0 when
every check behaves, 1 otherwise.
"""

import copy
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tomoseg import cli, core, evaluate, phantom, pipeline, tomo  # noqa: E402

WINDOW = (0.0, 1.0)
results = []


def expect(good: checks.Check, bad: checks.Check, corruption: str) -> None:
    ok = good.ok and not bad.ok
    results.append(ok)
    print(f"selftest {good.name}: accepts real output {'yes' if good.ok else 'NO'}, "
          f"rejects {corruption} {'yes' if not bad.ok else 'NO'}"
          f"{'' if ok else f' [good: {good}] [bad: {bad}]'}")


def scan_checks() -> None:
    spec = phantom.default_spec(n=48, seed=3)
    atten, gt = phantom.generate(spec)
    slab = core.AttenuationVolume(atten.data[20:28], atten.voxel_size_um)
    clean = np.asarray(spec.attenuation, np.float64)[gt.data[20:28]]
    acq = core.AcquisitionConfig(60, 3.0, 72, WINDOW)
    sino = tomo.forward_project(slab, acq)
    vox, s = slab.voxel_size_um, sino.data

    def bumped(angle, scale, bins=slice(36, 37)):
        out = s.copy()
        out[:, angle, bins] *= scale
        return out

    for angle, axis in ((0, "y"), (30, "x")):
        expect(checks.sino_axis_row(slab.data, s, vox, angle, axis),
               checks.sino_axis_row(slab.data, bumped(angle, 1.001), vox, angle, axis),
               f"one bin of the {angle * 3} deg row scaled by 1.001")
    expect(checks.sino_mass(slab.data, s, vox),
           checks.sino_mass(slab.data, bumped(7, 1.05, slice(None)), vox),
           "one projection scaled by 1.05")
    recons = {k: tomo.fbp_reconstruct(tomo.subsample_dose(sino, tomo.DoseLevel(k)), (48, 48))
              for k in (1, 2, 3)}
    rmses = {k: checks.rmse(r.data, clean) for k, r in recons.items()}
    expect(checks.rmse_trend(rmses), checks.rmse_trend({1: rmses[2], 2: rmses[1], 3: rmses[3]}),
           "D1 and D2 errors swapped")
    gray = tomo.normalize_to_u16(recons[1], WINDOW).data
    off = gray.astype(np.int64)
    off.flat[np.argmin(gray)] += 2
    expect(checks.u16_window(recons[1].data, gray, WINDOW),
           checks.u16_window(recons[1].data, off, WINDOW), "one voxel off by 2 gray levels")


def study_checks() -> None:
    cohort = phantom.split_cohort(phantom.default_spec(n=48, seed=3), 3)
    acq = core.AcquisitionConfig(60, 3.0, 72, WINDOW)
    grays = [tomo.normalize_to_u16(tomo.fbp_reconstruct(tomo.forward_project(a, acq), (48, 48)),
                                   WINDOW) for a, _ in cohort]
    models, histories = pipeline.train_all_stages(
        [(grays[0], cohort[0][1]), (grays[1], cohort[1][1])], seed=3, epochs=10,
        learning_rate=0.05, batch_size=1024)
    worse = copy.deepcopy(histories)
    worse[2][-1]["train_loss"] = worse[2][0]["train_loss"] + 0.1
    expect(checks.loss_decreases(histories), checks.loss_decreases(worse),
           "stage-2 last loss above its first")

    gt = cohort[2][1]
    final, report = pipeline.run_full(models, grays[2], jobs=1)
    wiou = evaluate.weighted_iou(final, gt)
    shifted = np.roll(final.data, 1, axis=2)
    expect(checks.wiou_matches("t", final.data, gt.data, wiou),
           checks.wiou_matches("t", shifted, gt.data, wiou), "a prediction shifted by a voxel")
    expect(checks.wiou_floor("t", 0.93, 0.80), checks.wiou_floor("t", 0.79, 0.80),
           "a score of 0.79 against 0.80")
    hist = report["label_histograms"]
    moved = copy.deepcopy(hist)
    moved["final"]["Compacta"] += 1
    moved["final"]["Ventricle"] -= 1
    expect(checks.ensemble_rules(hist), checks.ensemble_rules(moved),
           "one ventricle voxel turned compacta")


def cli_checks(tmp: Path) -> None:
    n = 48
    (tmp / "spec.json").write_text(json.dumps(phantom.spec_to_dict(
        phantom.default_spec(n=n, seed=3))))
    run = tmp / "run"
    run.mkdir()
    steps = [
        ["phantom", "--spec", "../spec.json", "--out", "ph", "--cohort", "1"],
        ["project", "--input", "ph/atten_000.vol", "--out", "s.sino", "--angles", "30",
         "--step", "6", "--bins", "72"],
        ["reconstruct", "--input", "s.sino", "--out", "recon.vol", "--size", "48", "48"],
        *[["train", "--stage", str(s), "--gray", "recon.vol", "--labels", "ph/gt_000.vol",
           "--out", f"m{s}.json", "--epochs", "5", "--lr", "0.05", "--batch", "1024"]
          for s in (1, 2, 3)],
        ["infer", "--input", "recon.vol", "--models", "m1.json", "m2.json", "m3.json",
         "--out", "seg.vol", "--report", "report.json", "--jobs", "1"],
        ["evaluate", "--pred", "seg.vol", "--gt", "ph/gt_000.vol", "--report", "eval.json"],
        ["export-slices", "--input", "seg.vol", "--axis", "xy", "--index", "24",
         "--out", "seg.pgm"],
    ]
    cwd = os.getcwd()
    os.chdir(run)
    try:
        codes = {argv[0] + str(i): cli.main(argv) for i, argv in enumerate(steps)}
    finally:
        os.chdir(cwd)
    expect(checks.exit_codes(codes), checks.exit_codes({**codes, "infer6": 4}),
           "infer exiting 4")

    def corrupted(edit):
        bad = tmp / "bad"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(run, bad)
        edit(bad)
        return bad

    def truncate(d):
        p = d / "seg.vol"
        p.write_bytes(p.read_bytes()[:-1])

    expect(checks.cli_artifacts(run, n, 30, 72),
           checks.cli_artifacts(corrupted(truncate), n, 30, 72), "seg.vol short by one byte")

    def shift_iou(d):
        doc = json.loads((d / "eval.json").read_text())
        doc["weighted_iou"] += 1e-9
        (d / "eval.json").write_text(json.dumps(doc))

    expect(checks.eval_report_matches(run, n)[0],
           checks.eval_report_matches(corrupted(shift_iou), n)[0],
           "eval.json IoU moved by 1e-9")

    def add_timings(d):
        doc = json.loads((d / "report.json").read_text())
        doc["timings"] = {"stage1": 0.1}
        (d / "report.json").write_text(json.dumps(doc))

    expect(checks.report_has_no_timings(run / "report.json"),
           checks.report_has_no_timings(corrupted(add_timings) / "report.json"),
           "a timings key in report.json")

    def off_palette(d):
        blob = bytearray((d / "seg.pgm").read_bytes())
        blob[-1] = 52
        (d / "seg.pgm").write_bytes(bytes(blob))

    expect(checks.pgm_palette(run / "seg.pgm", n),
           checks.pgm_palette(corrupted(off_palette) / "seg.pgm", n), "a gray of 52")

    def wrong_size(d):
        blob = (d / "seg.pgm").read_bytes()
        (d / "seg.pgm").write_bytes(blob.replace(b"48 48", b"48 47", 1)[:-48])

    expect(checks.pgm_palette(run / "seg.pgm", n),
           checks.pgm_palette(corrupted(wrong_size) / "seg.pgm", n), "a 48x47 image")


def main() -> int:
    scan_checks()
    study_checks()
    out = HERE.parent / ".perfbench_runs"
    out.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=out))
    try:
        cli_checks(tmp)
    finally:
        shutil.rmtree(tmp)
    bad = results.count(False)
    print(f"selftest: {len(results) - bad}/{len(results)} checks behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
