"""Output checks for the benchmark workloads.

Each check compares a program output with a computation made here with
plain numpy, or tests a property the method must have, and returns a
``Check`` carrying the measured value and its limit.  Nothing here calls
the code under test except the loaders named in ``cli_artifacts``, whose
job is exactly to read the artifacts back.
"""

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PALETTE = tuple(51 * i for i in range(6))
N_CLASSES = 6


@dataclass(frozen=True)
class Check:
    name: str
    value: str
    limit: str
    ok: bool

    def __str__(self):
        return f"check {self.name}: {self.value} (limit {self.limit}) " \
               f"{'PASS' if self.ok else 'FAIL'}"


def _rel(got: np.ndarray, ref: np.ndarray) -> float:
    scale = float(np.abs(ref).max())
    return float(np.abs(got.astype(np.float64) - ref).max()) / max(scale, 1e-30)


# --- scan ------------------------------------------------------------------

def sino_axis_row(slab: np.ndarray, sino: np.ndarray, voxel_um: float,
                  angle_index: int, sum_axis: str, tol: float = 1e-5) -> Check:
    """Row ``angle_index`` of the sinogram against a plain sum of each slice.

    At 0 degrees a ray at bin b runs along y through x = cx + s_b; at 90
    degrees it runs along x through y = cy + s_b.  Where that coordinate is
    an integer the bilinear samples collapse onto one voxel line, so the
    line integral is exactly ``voxel_um`` times the numpy sum of that line.
    """
    _, ny, nx = slab.shape
    n_bins = sino.shape[2]
    s = np.arange(n_bins) - (n_bins - 1) / 2.0
    if sum_axis == "y":
        coord, lines, extent = (nx - 1) / 2.0 + s, slab.sum(axis=1, dtype=np.float64), nx
    else:
        coord, lines, extent = (ny - 1) / 2.0 + s, slab.sum(axis=2, dtype=np.float64), ny
    hit = (np.abs(coord - np.rint(coord)) < 1e-9) & (coord >= 0) & (coord <= extent - 1)
    ref = voxel_um * lines[:, np.rint(coord[hit]).astype(int)]
    got = sino[:, angle_index, hit]
    err = _rel(got, ref) if hit.any() else math.inf
    return Check(f"sinogram_row_sum_{sum_axis}", f"{err:.2e} rel over {int(hit.sum())} bins",
                 f"{tol:.0e}", err <= tol)


def sino_mass(slab: np.ndarray, sino: np.ndarray, voxel_um: float,
              tol: float = 0.01) -> Check:
    """Every projection carries the slice's mass: sum over bins = voxel * sum of voxels."""
    mass = voxel_um * slab.sum(axis=(1, 2), dtype=np.float64)  # (nz,)
    per_angle = sino.sum(axis=2, dtype=np.float64)  # (nz, n_angles)
    err = float((np.abs(per_angle - mass[:, None]) / np.abs(mass[:, None])).max())
    return Check("sinogram_mass", f"{err:.2e} rel", f"{tol:.0e}", err <= tol)


def rmse(recon: np.ndarray, clean: np.ndarray) -> float:
    return float(np.sqrt(np.mean((recon.astype(np.float64) - clean) ** 2)))


def rmse_trend(rmses: dict) -> Check:
    """Fewer projections must give a worse reconstruction: D1 < D2 < D3."""
    vals = [rmses[k] for k in sorted(rmses)]
    ok = all(a < b for a, b in zip(vals, vals[1:]))
    return Check("rmse_rises_with_dose_stride", " < ".join(f"{v:.4f}" for v in vals),
                 "strictly increasing", ok)


def u16_window(recon: np.ndarray, gray: np.ndarray, window, tol: int = 1) -> Check:
    """u16 volume against the documented map rint(clip((a-lo)*65535/(hi-lo)))."""
    lo, hi = window
    ref = np.rint(np.clip((recon.astype(np.float64) - lo) * (65535.0 / (hi - lo)),
                          0.0, 65535.0))
    err = float(np.abs(gray.astype(np.float64) - ref).max())
    return Check("u16_window_map", f"{err:.0f} gray levels", f"{tol}", err <= tol)


# --- study -----------------------------------------------------------------

def loss_decreases(histories: dict) -> Check:
    """Each stage's last-epoch loss is below its first-epoch loss."""
    pairs = {s: (h[0]["train_loss"], h[-1]["train_loss"]) for s, h in sorted(histories.items())}
    ok = all(last < first for first, last in pairs.values())
    value = ", ".join(f"S{s} {a:.3f}->{b:.3f}" for s, (a, b) in pairs.items())
    return Check("train_loss_decreases", value, "last < first per stage", ok)


def weighted_iou_bincount(pred: np.ndarray, gt: np.ndarray) -> float:
    """Frequency-weighted IoU (background excluded) from one confusion matrix."""
    cm = np.bincount(gt.ravel().astype(np.int64) * N_CLASSES + pred.ravel(),
                     minlength=N_CLASSES * N_CLASSES).reshape(N_CLASSES, N_CLASSES)
    inter = np.diag(cm).astype(np.float64)
    union = cm.sum(axis=0) + cm.sum(axis=1) - inter
    gt_count = cm.sum(axis=1)[1:].astype(np.float64)
    weights = gt_count / gt_count.sum()
    iou = np.where(union[1:] > 0, inter[1:] / np.maximum(union[1:], 1), 1.0)
    return float((weights * iou)[gt_count > 0].sum())


def wiou_matches(name: str, pred: np.ndarray, gt: np.ndarray, program: float,
                 tol: float = 1e-12) -> Check:
    own = weighted_iou_bincount(pred, gt)
    err = abs(own - program)
    return Check(f"weighted_iou_recomputed_{name}", f"{program:.6f} vs {own:.6f} "
                 f"(diff {err:.1e})", f"{tol:.0e}", err <= tol)


def wiou_floor(name: str, value: float, floor: float) -> Check:
    return Check(f"weighted_iou_floor_{name}", f"{value:.4f}", f">= {floor}", value >= floor)


def ensemble_rules(hist: dict) -> Check:
    """Report histograms obey the ensemble priority table."""
    s1, s2, s3, fin = (hist[k] for k in ("stage1", "stage2", "stage3", "final"))
    rules = {
        "Atrium": fin["Atrium"] == s1["Atrium"],
        "Bulbus": fin["Bulbus"] == s1["Bulbus"],
        "Background": fin["Background"] == s1["Background"],
        "ventricle_complex": fin["Ventricle"] + fin["Compacta"] + fin["Lacunary"]
        == s1["Ventricle"],
        "Compacta": fin["Compacta"] == s3["Compacta"],
        "Lacunary": fin["Lacunary"] <= s2["Lacunary"],
    }
    broken = [k for k, ok in rules.items() if not ok]
    return Check("ensemble_rule_table", "broken: " + (", ".join(broken) or "none"),
                 "no rule broken", not broken)


# --- cli -------------------------------------------------------------------

def exit_codes(codes: dict) -> Check:
    bad = {k: c for k, c in codes.items() if c != 0}
    return Check("cli_exit_codes", f"{len(codes) - len(bad)}/{len(codes)} exited 0"
                 + (f", failed {bad}" if bad else ""), "all 0", not bad and bool(codes))


def cli_artifacts(workdir: Path, n: int, n_angles: int, n_bins: int) -> Check:
    """Every artifact of the chain reloads with the expected dimensions."""
    from tomoseg import core, segmodel, tomo

    dims = (n, n, n)
    expect = {
        "ph/atten_000.vol": (core.AttenuationVolume, dims),
        "ph/gt_000.vol": (core.LabelVolume, dims),
        "recon.vol": (core.GrayVolume, dims),
        "seg.vol": (core.LabelVolume, dims),
    }
    problems = []
    for rel, (cls, want) in expect.items():
        try:
            vol = core.load_volume(workdir / rel)
        except Exception as err:  # any unreadable artifact is a failed check
            problems.append(f"{rel}: {type(err).__name__}")
            continue
        if not isinstance(vol, cls) or vol.dims != want:
            problems.append(f"{rel}: {type(vol).__name__} {vol.dims}")
    try:
        sino = tomo.load_sinogram(workdir / "s.sino")
        if sino.data.shape != (n, n_angles, n_bins):
            problems.append(f"s.sino: {sino.data.shape}")
    except Exception as err:
        problems.append(f"s.sino: {type(err).__name__}")
    for stage, k in ((1, 4), (2, 2), (3, 2)):
        try:
            if segmodel.load_model(workdir / f"m{stage}.json").n_classes != k:
                problems.append(f"m{stage}.json: class count")
        except Exception as err:
            problems.append(f"m{stage}.json: {type(err).__name__}")
    for rel in ("report.json", "eval.json"):
        try:
            json.loads((workdir / rel).read_text())
        except (OSError, ValueError) as err:
            problems.append(f"{rel}: {type(err).__name__}")
    return Check("cli_artifacts_reload", "problems: " + ("; ".join(problems) or "none"),
                 "none", not problems)


def read_raw_labels(path: Path, n: int) -> np.ndarray:
    """Label payload read straight from bytes, bypassing the package loader."""
    data = np.fromfile(path, dtype=np.uint8)
    return data.reshape(n, n, n)


def eval_report_matches(workdir: Path, n: int, tol: float = 1e-12) -> tuple:
    """eval.json's weighted IoU against a recomputation from seg.vol; returns (check, iou)."""
    program = float(json.loads((workdir / "eval.json").read_text())["weighted_iou"])
    pred = read_raw_labels(workdir / "seg.vol", n)
    gt = read_raw_labels(workdir / "ph" / "gt_000.vol", n)
    return wiou_matches("eval_json", pred, gt, program, tol), program


def report_has_no_timings(path: Path) -> Check:
    keys = sorted(json.loads(Path(path).read_text()))
    return Check("report_json_no_timings", f"keys {keys}", "no 'timings' key",
                 "timings" not in keys)


def pgm_palette(path: Path, n: int) -> Check:
    blob = Path(path).read_bytes()
    m = re.match(rb"(P5)\s+(\d+)\s+(\d+)\s+(\d+)\s", blob)
    header = " ".join(g.decode() for g in m.groups()) if m else repr(blob[:16])
    pixels = np.frombuffer(blob[m.end():] if m else b"", dtype=np.uint8)
    grays = sorted(int(g) for g in np.unique(pixels))
    want = f"P5 {n} {n} 255"
    ok = header == want and pixels.size == n * n and set(grays) <= set(PALETTE)
    return Check("pgm_header_and_palette", f"'{header}', {pixels.size} px, grays {grays}",
                 f"'{want}', {n * n} px, grays in {list(PALETTE)}", ok)
