"""In-memory span recorder that wraps tomoseg's public functions from outside.

A span is one call of a wrapped function: its name, an optional tag (the
stage or dose it served), start and end on the process clock, the span
that was open when it began, and an optional work count.  Installing the
recorder replaces each target in every ``tomoseg`` module namespace that
binds it (``predict_slice`` is bound in both ``segmodel`` and
``pipeline``), so calls made through any import path are seen.
Uninstalling puts the originals back; no program file changes.

Slice workers of ``run_full(jobs>1)`` run in pool threads with no open
span of their own; their spans take the innermost span open on the main
thread (the ``run_stage`` that is waiting for them) as parent.
"""

import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager


def _stage_tag(args, kwargs):
    cfg = args[0] if args else kwargs["cfg"]
    return f"S{cfg.stage}"


def _rays(args, kwargs):
    vol, cfg = args[:2]
    return vol.data.shape[0] * cfg.n_projections * cfg.detector_bins


# (module, attribute path, span name, tagger, counter)
TARGETS = (
    ("tomoseg.phantom", "generate", "phantom.generate", None, None),
    ("tomoseg.tomo", "forward_project", "tomo.forward_project", None, _rays),
    ("tomoseg.tomo", "fbp_reconstruct", "tomo.fbp_reconstruct", "dose", None),
    ("tomoseg.tomo", "normalize_to_u16", "tomo.normalize_to_u16", None, None),
    ("tomoseg.tomo", "save_sinogram", "tomo.save_sinogram", None, None),
    ("tomoseg.tomo", "load_sinogram", "tomo.load_sinogram", None, None),
    ("tomoseg.core", "extract_slice", "core.extract_slice", None, None),
    ("tomoseg.core", "restack", "core.restack", None, None),
    ("tomoseg.core", "save_volume", "core.save_volume", None, None),
    ("tomoseg.core", "load_volume", "core.load_volume", None, None),
    ("tomoseg.filters", "unsharp_mask", "filters.unsharp_mask", None, None),
    ("tomoseg.filters", "mode_fuse", "filters.mode_fuse", None, None),
    ("tomoseg.filters", "fill_holes_3d", "filters.fill_holes_3d", None, None),
    ("tomoseg.segmodel", "extract_features", "segmodel.extract_features", None, None),
    ("tomoseg.segmodel", "softmax_loss_and_grad", "segmodel.softmax_loss_and_grad",
     None, None),
    ("tomoseg.segmodel", "SoftmaxModel.predict_proba", "segmodel.predict_proba",
     None, None),
    ("tomoseg.segmodel", "predict_slice", "segmodel.predict_slice", None, None),
    ("tomoseg.segmodel", "save_model", "segmodel.save_model", None, None),
    ("tomoseg.segmodel", "load_model", "segmodel.load_model", None, None),
    ("tomoseg.pipeline", "train_stage", "pipeline.train_stage", _stage_tag, None),
    ("tomoseg.pipeline", "run_stage", "pipeline.run_stage", _stage_tag, None),
    ("tomoseg.pipeline", "ensemble", "pipeline.ensemble", None, None),
    ("tomoseg.evaluate", "iou", "evaluate.iou", None, None),
    ("tomoseg.pgm", "write_pgm", "pgm.write_pgm", None, None),
)


class Tracer:
    """Records spans of the wrapped functions while installed.

    ``base_step_deg`` is the full-dose angular step of the workload's
    acquisition; FBP spans are tagged D<k> from the step of the sinogram
    they reconstruct.
    """

    def __init__(self, base_step_deg: float):
        self.base_step_deg = base_step_deg
        self.spans = []
        self._local = threading.local()
        self._main_stack = []
        self._ids = 0
        self._lock = threading.Lock()
        self._restore = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    @contextmanager
    def span(self, name: str, tag: str = None, count: int = None):
        with self._lock:
            self._ids += 1
            sid = self._ids
        stack = self._stack()
        parent = self._parent(stack)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append({"id": sid, "parent": parent, "name": name, "tag": tag,
                               "start": start, "end": end, "count": count})

    def _dose_tag(self, args, kwargs):
        sino = args[0] if args else kwargs["s"]
        return f"D{round(sino.angle_step_deg / self.base_step_deg)}"

    def _wrap(self, fn, name, tagger, counter):
        if tagger == "dose":
            tagger = self._dose_tag

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = tagger(args, kwargs) if tagger else None
            count = counter(args, kwargs) if counter else None
            with self.span(name, tag, count):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded tomoseg namespace that binds it."""
        importlib.import_module("tomoseg.cli")  # binds every module's names
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "tomoseg" or n.startswith("tomoseg.")]
        for mod_name, path, name, tagger, counter in TARGETS:
            owner = sys.modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, tagger, counter)
            holders = [owner] if outer else [m for m in modules
                                             if vars(m).get(attr) is original]
            for holder in holders:
                setattr(holder, attr, wrapped)
                self._restore.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def load_spans(path, prefix: str = "") -> list:
    """Read spans back; ``prefix`` keeps ids unique when files are merged."""
    def renamed(s):
        parent = s["parent"]
        return {**s, "id": f"{prefix}{s['id']}",
                "parent": None if parent is None else f"{prefix}{parent}"}

    with open(path) as fh:
        return [renamed(json.loads(line)) for line in fh if line.strip()]


def _covered(interval, children) -> float:
    """Length of ``interval`` covered by the union of the child intervals."""
    lo, hi = interval
    parts = sorted((max(lo, a), min(hi, b)) for a, b in children if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in parts:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def _phase(span, by_id) -> str:
    """'train' or 'segment' after the nearest pipeline ancestor, else None."""
    parent = span["parent"]
    while parent is not None:
        p = by_id[parent]
        if p["name"] == "pipeline.train_stage":
            return "train"
        if p["name"] == "pipeline.run_stage":
            return "segment"
        parent = p["parent"]
    return None


def layer_metrics(spans) -> dict:
    """Per-layer seconds and counts from one traced round's spans.

    Keys are the per-layer metric names of BENCHMARK.json except the
    ``cli.*`` process timings and the ``trace.*`` entries, which the
    runner adds; layers the round never entered read 0.
    """
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {k: 0.0 for k in SECONDS_KEYS}
    out.update({k: 0 for k in COUNT_KEYS})

    def add(key, value):
        out[key] += value

    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        if name == "pipeline.run_stage":
            dur -= _covered((s["start"], s["end"]), children.get(s["id"], ()))
        if s["tag"]:
            key = f"{name}.{s['tag']}_s"
        else:
            key = f"{name}_s"
        if key in out:
            add(key, dur)
        if f"{name}.calls" in out:
            add(f"{name}.calls", 1)
        if name == "tomo.forward_project":
            add("tomo.forward_project.rays", s["count"])
        if name in ("segmodel.extract_features", "segmodel.predict_proba"):
            phase = _phase(s, by_id)
            if phase:
                add(f"{name}.{phase}_s", dur)
                add(f"{name}.{phase}.calls", 1)
    return out


SECONDS_KEYS = (
    "phantom.generate_s",
    "tomo.forward_project_s",
    "tomo.fbp_reconstruct.D1_s", "tomo.fbp_reconstruct.D2_s", "tomo.fbp_reconstruct.D3_s",
    "tomo.normalize_to_u16_s",
    "tomo.save_sinogram_s", "tomo.load_sinogram_s",
    "core.restack_s", "core.save_volume_s", "core.load_volume_s",
    "filters.unsharp_mask_s", "filters.mode_fuse_s", "filters.fill_holes_3d_s",
    "segmodel.extract_features_s",
    "segmodel.extract_features.train_s", "segmodel.extract_features.segment_s",
    "segmodel.softmax_loss_and_grad_s",
    "segmodel.predict_proba.train_s", "segmodel.predict_proba.segment_s",
    "segmodel.save_model_s", "segmodel.load_model_s",
    "pipeline.train_stage.S1_s", "pipeline.train_stage.S2_s", "pipeline.train_stage.S3_s",
    "pipeline.run_stage.S1_s", "pipeline.run_stage.S2_s", "pipeline.run_stage.S3_s",
    "pipeline.ensemble_s",
    "evaluate.iou_s",
    "pgm.write_pgm_s",
)

COUNT_KEYS = (
    "tomo.forward_project.rays",
    "core.extract_slice.calls",
    "filters.unsharp_mask.calls",
    "segmodel.extract_features.calls",
    "segmodel.extract_features.train.calls", "segmodel.extract_features.segment.calls",
    "segmodel.softmax_loss_and_grad.calls",
    "segmodel.predict_proba.train.calls", "segmodel.predict_proba.segment.calls",
    "evaluate.iou.calls",
)

CLI_STEPS = ("phantom", "project", "reconstruct", "train1", "train2", "train3", "infer",
             "evaluate", "export_slices")
