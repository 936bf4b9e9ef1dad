"""Workflow acceptance gate: ten criteria, one test and one verdict line each.

Run `pytest tests/test_acceptance.py -v` to see a pass/fail line per
criterion.  The two expensive studies (the 64-voxel dose matrix behind
criteria 2-3 and the full-scale 128-voxel cross-validation behind
criterion 8) are module fixtures computed once; everything is seeded, so
every number here is reproducible bit for bit.  Beside criterion 10, the
stage models and histories of one small training run, and the 128-voxel
default phantom with its sinogram and reconstructions, are checked
against the digests in ``tests/golden.json``.
"""

import ctypes
import hashlib
import itertools
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from tomoseg.cli import main
from tomoseg.config import ExperimentConfig
from tomoseg.core import (AcquisitionConfig, AttenuationVolume, ClassId, LabelVolume,
                          rng_for_seed)
from tomoseg.evaluate import kfold_cv, run_dose_ablation, reconstruct_cohort, \
    weighted_iou
from tomoseg.filters import fill_holes_3d, mode_fuse
from tomoseg.phantom import default_spec, generate, spec_to_dict, split_cohort
from tomoseg.pipeline import ensemble, run_full, train_all_stages
from tomoseg.segmodel import save_model, softmax_loss_and_grad
from tomoseg.tomo import (DoseLevel, fbp_reconstruct, forward_project,
                          normalize_to_u16, subsample_dose)

JOBS = os.cpu_count() or 1
GOLDEN = Path(__file__).with_name("golden.json")


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def dose_study():
    """Dose matrix on a 3-phantom 64-voxel cohort plus the stride RMSE sweep."""
    cfg = ExperimentConfig(
        seed=0, cohort_size=3, doses=(1, 2, 3),
        phantom=default_spec(n=64, seed=0),
        acquisition=AcquisitionConfig(90, 2.0, 96),
        protocol={"slice_stride": 3},
        model={"epochs": 150, "learning_rate": 0.05, "batch_size": 1024})
    matrix, _, _ = run_dose_ablation(cfg, jobs=JOBS)

    spec = cfg.phantom
    att, gt = generate(spec)
    clean = np.asarray(spec.attenuation, np.float32)[gt.data]
    sino = forward_project(att, cfg.acquisition)
    rmses = []
    for k in (1, 2, 3):
        rec = fbp_reconstruct(subsample_dose(sino, DoseLevel(k)), spec.dims)
        rmses.append(float(np.sqrt(np.mean((rec.data - clean) ** 2))))
    return matrix, rmses


@pytest.fixture(scope="module")
def full_scale_cv():
    """3-fold CV of the whole pipeline on the default 128-voxel cohort, full dose."""
    t0 = time.time()
    cfg = ExperimentConfig(
        seed=0, cohort_size=3, doses=(1,),
        protocol={"slice_stride": 3},
        model={"epochs": 150, "learning_rate": 0.05, "batch_size": 1024})
    recons, gts = reconstruct_cohort(cfg)
    cohort = list(zip(recons["D1"], gts))

    def train_fn(pairs):
        models, _ = train_all_stages(pairs, cfg.stages, protocol=cfg.protocol, seed=cfg.seed,
                                     **cfg.model)
        return models

    def eval_fn(models, pair):
        pred, _ = run_full(models, pair[0], jobs=JOBS)
        return weighted_iou(pred, pair[1])

    scores = kfold_cv(cohort, 3, train_fn, eval_fn)
    return scores, time.time() - t0


# ---------------------------------------------------------------- criteria

def test_criterion_01_fbp_disk_oracle():
    n, r, mu = 128, 32.0, 0.7
    c = (n - 1) / 2.0
    yy, xx = np.ogrid[0:n, 0:n]
    inside = (xx - c) ** 2 + (yy - c) ** 2 <= r * r
    vol = AttenuationVolume((inside * mu).astype(np.float32)[None], 1.0)
    t0 = time.perf_counter()
    sino = forward_project(vol, AcquisitionConfig(180, 1.0, 182))
    rec = fbp_reconstruct(sino, (n, n))
    elapsed = time.perf_counter() - t0
    rel = float(np.sqrt(((rec.data[0][inside] - mu) ** 2).mean())) / mu
    verdict(1, rel < 0.05 and elapsed < 10.0,
            f"in-disk RMSE {rel:.2%} of mu (< 5%), {elapsed:.1f}s (< 10s)")


def test_criterion_02_dose_trend(dose_study):
    matrix, rmses = dose_study
    r1, r2, r3 = rmses
    d11 = matrix.cell(("D1",), "D1").mean
    d33 = matrix.cell(("D3",), "D3").mean
    ok = r1 < r2 < r3 and d33 <= d11
    verdict(2, ok,
            f"RMSE {r1:.4f} < {r2:.4f} < {r3:.4f}; "
            f"wIoU stride3 {d33:.4f} <= stride1 {d11:.4f}")


def test_criterion_03_mixed_dose_stability(dose_study):
    matrix, _ = dose_study
    cols = ("D1", "D2", "D3")
    row_min = {row: min(matrix.cell(row, c).mean for c in cols)
               for row in [("D1",), ("D2",), ("D3",), ("D1", "D2")]}
    mixed = row_min[("D1", "D2")]
    singles = {r: row_min[r] for r in [("D1",), ("D2",), ("D3",)]}
    ok = all(mixed >= v - 0.02 for v in singles.values())
    verdict(3, ok,
            f"mixed-row min {mixed:.4f} vs single-row mins "
            + ", ".join(f"{'+'.join(r)}={v:.4f}" for r, v in singles.items())
            + " (tolerance -0.02)")


def test_criterion_04_gradient_check():
    t0 = time.perf_counter()
    rng = rng_for_seed(123)
    x = rng.normal(0.0, 1.0, size=(24, 9)).astype(np.float64)
    x = np.concatenate([x, np.ones((24, 1))], axis=1)  # the design matrix: a bias column
    y = rng.integers(0, 3, size=24)
    w = rng.normal(0.0, 0.5, size=(3, 10))
    _, grad = softmax_loss_and_grad(w, x, y, l2=1e-3)
    h, worst = 1e-6, 0.0
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            wp, wm = w.copy(), w.copy()
            wp[i, j] += h
            wm[i, j] -= h
            lp, _ = softmax_loss_and_grad(wp, x, y, l2=1e-3)
            lm, _ = softmax_loss_and_grad(wm, x, y, l2=1e-3)
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(grad[i, j] - fd) / max(abs(fd), 1e-8))
    elapsed = time.perf_counter() - t0
    verdict(4, worst < 1e-4 and elapsed < 1.0,
            f"max relative gradient error {worst:.2e} (< 1e-4), {elapsed:.2f}s (< 1s)")


def test_criterion_05_fusion_oracle():
    t0 = time.perf_counter()
    ids = range(6)
    triples = list(itertools.product(ids, ids, ids))
    shape = (6, 36)  # one voxel per triple
    a = np.array([t[0] for t in triples], np.uint8).reshape(shape)[None]
    b = np.array([t[1] for t in triples], np.uint8).reshape(shape)[None]
    c = np.array([t[2] for t in triples], np.uint8).reshape(shape)[None]
    fused = mode_fuse(LabelVolume(a), LabelVolume(b), LabelVolume(c))
    got = fused.data.ravel()
    bad = []
    for idx, (x, y, z) in enumerate(triples):
        counts = {v: (x, y, z).count(v) for v in (x, y, z)}
        best = max(counts.values())
        expected = x if counts[x] == best else (y if counts[y] == best else z)
        if got[idx] != expected:
            bad.append((x, y, z, int(got[idx]), expected))
    elapsed = time.perf_counter() - t0
    detail = (f"mismatches: {bad[:5]}" if bad else
              f"all 216 label triples match brute-force mode with XY tie-break, "
              f"{elapsed:.2f}s (< 1s)")
    verdict(5, not bad and elapsed < 1.0, detail)


def test_criterion_06_ensemble_rule_table():
    def rule(s1, lac, com):
        if s1 == ClassId.ATRIUM:
            return ClassId.ATRIUM
        if s1 == ClassId.BULBUS:
            return ClassId.BULBUS
        if s1 == ClassId.VENTRICLE:
            if com:
                return ClassId.COMPACTA
            if lac:
                return ClassId.LACUNARY
            return ClassId.VENTRICLE
        return ClassId.BACKGROUND

    combos = list(itertools.product(
        (ClassId.BACKGROUND, ClassId.ATRIUM, ClassId.VENTRICLE, ClassId.BULBUS),
        (0, 1), (0, 1)))
    s1 = np.array([int(s) for s, _, _ in combos], np.uint8).reshape(1, 4, 4)
    lac = np.array([l for _, l, _ in combos], np.uint8).reshape(1, 4, 4)
    com = np.array([c for _, _, c in combos], np.uint8).reshape(1, 4, 4)
    out = ensemble(
        LabelVolume(s1),
        LabelVolume(lac, class_names=("Background", "Lacunary")),
        LabelVolume(com, class_names=("Background", "Compacta")))
    expected = np.array([int(rule(*combo)) for combo in combos], np.uint8)
    ok = np.array_equal(out.data.ravel(), expected)
    detail = ("all 16 (stage1 x lacunary x compacta) combinations follow "
              "the priority rules" if ok else
              f"table mismatch: got {out.data.ravel().tolist()} "
              f"expected {expected.tolist()}")
    verdict(6, ok, detail)


def test_criterion_07_metric_oracle():
    from tomoseg.evaluate import iou, per_class_iou, class_frequencies

    def set_iou(a, b, cid):
        sa = {i for i, v in enumerate(a.ravel()) if v == cid}
        sb = {i for i, v in enumerate(b.ravel()) if v == cid}
        if not sa and not sb:
            return 1.0
        return len(sa & sb) / len(sa | sb)

    rng = rng_for_seed(77)
    worst = 0.0
    for _ in range(100):
        a = LabelVolume(rng.integers(0, 6, size=(16, 16, 16)).astype(np.uint8))
        b = LabelVolume(rng.integers(0, 6, size=(16, 16, 16)).astype(np.uint8))
        for cid in range(6):
            worst = max(worst, abs(iou(a, b, cid) - set_iou(a.data, b.data, cid)))
        freqs = class_frequencies(b)
        ious = per_class_iou(a, b)
        w = sum(freqs[c] * ious[c] for c in freqs)
        worst = max(worst, abs(weighted_iou(a, b) - w))

    # hand example: frequencies 0.75/0.25 with per-class IoU 0.8/0.4 -> 0.7
    gt = np.zeros(120, np.uint8)
    gt[:75], gt[75:100] = 1, 2
    pred = np.zeros(120, np.uint8)
    pred[:60], pred[75:85] = 1, 2
    hand = weighted_iou(LabelVolume(pred.reshape(2, 6, 10)),
                        LabelVolume(gt.reshape(2, 6, 10)))
    ok = worst <= 1e-12 and abs(hand - 0.7) <= 1e-12
    verdict(7, ok, f"max |iou - set oracle| {worst:.1e} over 100 random pairs "
                   f"(<= 1e-12); hand example {hand:.3f} == 0.7")


def test_criterion_08_end_to_end_quality(full_scale_cv):
    scores, elapsed = full_scale_cv
    ok = scores.mean >= 0.80 and elapsed < 1800.0
    verdict(8, ok,
            f"mean weighted IoU {scores.mean:.4f} (>= 0.80) over folds "
            f"{[round(s, 4) for s in scores.scores]}, {elapsed/60:.1f} min (< 30)")


def test_criterion_09_postprocessing_invariants():
    rng = rng_for_seed(42)
    ok_fill = True
    for _ in range(50):
        data = rng.integers(0, 6, size=(10, 12, 14)).astype(np.uint8)
        vol = LabelVolume(data)
        once = fill_holes_3d(vol)
        twice = fill_holes_3d(once)
        ok_fill &= np.array_equal(once.data, twice.data)
        nonbg = data != 0
        ok_fill &= np.array_equal(once.data[nonbg], data[nonbg])

    vol = AttenuationVolume(np.array([[[0.2, 0.8, 0.1, 0.9, 0.5]]], np.float32), 1.0)
    g = normalize_to_u16(vol, (0.2, 0.8)).data.ravel()
    ok_norm = (g[0] == 0 and g[1] == 65535 and g[2] == 0 and g[3] == 65535
               and 0 < g[4] < 65535)
    verdict(9, ok_fill and ok_norm,
            f"fill_holes_3d idempotent and non-Background-preserving on 50 random "
            f"volumes; window edges map to (0, 65535): {g.tolist()[:4]}")


def test_criterion_10_determinism(tmp_path, monkeypatch):
    (tmp_path / "spec.json").write_text(
        json.dumps(spec_to_dict(default_spec(n=48, seed=7))))

    # both chains run the exact same argv from their own working directory
    argsets = [
        ["phantom", "--spec", "../spec.json", "--out", "ph", "--cohort", 1],
        ["project", "--input", "ph/atten_000.vol", "--out", "s.sino",
         "--angles", 60, "--step", 3.0, "--bins", 80],
        ["reconstruct", "--input", "s.sino", "--out", "recon.vol",
         "--size", 48, 48],
        *[["train", "--stage", s, "--gray", "recon.vol",
           "--labels", "ph/gt_000.vol", "--out", f"m{s}.json",
           "--epochs", 6, "--lr", 0.05, "--batch", 512, "--tile", 48,
           "--stride", 1, "--seed", 1] for s in (1, 2, 3)],
        ["infer", "--input", "recon.vol",
         "--models", "m1.json", "m2.json", "m3.json",
         "--out", "seg.vol", "--report", "report.json", "--jobs", 1],
        ["evaluate", "--pred", "seg.vol", "--gt", "ph/gt_000.vol",
         "--report", "eval.json"],
    ]

    def run_chain(out):
        out.mkdir()
        monkeypatch.chdir(out)
        for args in argsets:
            assert main([str(a) for a in args]) == 0

    run_chain(tmp_path / "a")
    run_chain(tmp_path / "b")
    compared = ["seg.vol", "seg.vol.json", "report.json", "eval.json",
                "m1.json", "m2.json", "m3.json", "recon.vol", "recon.vol.json",
                "s.sino", "s.sino.json", "ph/manifest.json",
                "ph/atten_000.vol", "ph/gt_000.vol"]
    diffs = [name for name in compared
             if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()]
    verdict(10, not diffs,
            f"two identical runs agree byte-for-byte on {len(compared)} artifacts"
            if not diffs else f"artifacts differ: {diffs}")
    assert_golden("criterion_10", {name: hashlib.sha256((tmp_path / "a" / name).read_bytes())
                                   .hexdigest() for name in compared})


def platform_fields() -> dict:
    """The numpy version, the BLAS it was built with, the OpenBLAS kernel
    picked for this CPU and numpy's highest enabled x86-64 SIMD level: the
    bits of the FBP filter product and of the logits depend on the BLAS
    kernels, and float64 ``exp`` and ``log`` on numpy's SIMD dispatch.  A
    field this numpy cannot tell reads "unknown"."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = "unknown"
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
        break
    from numpy._core._multiarray_umath import __cpu_features__
    levels = sorted(name for name, on in __cpu_features__.items()
                    if on and name.startswith("X86_V"))
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "openblas_core": core, "numpy_simd": levels[-1] if levels else "unknown"}


def assert_golden(key: str, digests: dict) -> None:
    """Compare sha256 digests with those recorded in ``tests/golden.json``.

    A mismatch names the artifacts that moved and every platform field that
    differs from the recording.  A change that alters outputs on purpose
    records the new digests (and the platform they were taken on).
    """
    golden = json.loads(GOLDEN.read_text())
    moved = sorted(name for name in golden[key].keys() | digests.keys()
                   if golden[key].get(name) != digests.get(name))
    here = platform_fields()
    differ = [f"{field} recorded {value!r}, here {here.get(field)!r}"
              for field, value in golden["platform"].items() if here.get(field) != value]
    assert not moved, (f"{key}: {moved} differ from tests/golden.json; platform fields "
                       f"that differ: {differ or 'none'}")


def scan128_digests() -> dict:
    """sha256 of the 128^3 default phantom, the sinogram of its central 32
    slices at 300 x 0.6 deg x 192 bins and its ramlak FBP at D1-D3."""
    atten, gt = generate(default_spec(n=128, seed=0))
    slab = AttenuationVolume(atten.data[48:80], atten.voxel_size_um)
    sino = forward_project(slab, AcquisitionConfig(300, 0.6, 192))
    arrays = {"atten": atten.data, "labels": gt.data, "sino": sino.data}
    for k in (1, 2, 3):
        arrays[f"D{k}"] = fbp_reconstruct(subsample_dose(sino, DoseLevel(k)), (128, 128)).data
    return {name: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
            for name, a in arrays.items()}


def test_scan128_matches_golden_digests():
    assert_golden("scan128", scan128_digests())


@pytest.fixture(scope="module")
def training_cohort():
    """Two 64-voxel samples reconstructed at 60 x 3 deg x 96 bins."""
    acq = AcquisitionConfig(60, 3.0, 96)
    cohort = []
    for atten, gt in split_cohort(default_spec(n=64, seed=5), 2):
        rec = fbp_reconstruct(forward_project(atten, acq), (64, 64))
        cohort.append((normalize_to_u16(rec, acq.absorption_window), gt))
    return cohort


@pytest.mark.parametrize("jobs", [1, 2])
def test_training_matches_golden_digests(training_cohort, tmp_path, jobs):
    # the saved models and the histories of every stage, for in-process and forked training
    models, histories = train_all_stages(training_cohort, seed=3, jobs=jobs, epochs=5,
                                         learning_rate=0.05, batch_size=512)
    digests = {"histories": hashlib.sha256(json.dumps(histories, sort_keys=True).encode())
               .hexdigest()}
    for stage, model in models.items():
        save_model(model, tmp_path / f"m{stage}.json")
        digests[f"m{stage}.json"] = hashlib.sha256(
            (tmp_path / f"m{stage}.json").read_bytes()).hexdigest()
    assert_golden("training", digests)
