"""Benchmark entry point.

    python3 perfbench/run.py --workload scan128 --seed 1 --seconds 10 --trace 0

Run from the root of a tomoseg checkout; the package is imported from its
``src`` directory.  After set-up the workload runs whole rounds until
``--seconds`` have passed (at least one).  With ``--trace 0`` the last line
of standard output is a JSON object carrying every end-to-end metric; with
``--trace 1`` untraced and traced rounds alternate (at least two of each)
and it carries every per-layer metric instead, plus the tracing overhead.  The spans of the
traced run are written to ``.perfbench_runs/`` under the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_runs"

# one BLAS thread; run_full's slice pool (jobs=2) supplies the parallelism
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

E2E_UNITS = {"setup_s": "s", "round_s": "s", "recon_rmse_D1": "atten", "peak_rss_mb": "MB"}


def _import_program():
    src = ROOT / "src"
    if not (src / "tomoseg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tomoseg package under {src}; run from a tomoseg checkout")
    sys.path.insert(0, str(src))
    import tomoseg

    if Path(tomoseg.__file__).resolve().parent != (src / "tomoseg").resolve():
        sys.exit(f"perfbench: imported tomoseg from {tomoseg.__file__}, not {src}")


def _peak_rss_mb(children: bool) -> float:
    import resource

    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _run_round(workload, traced_round: bool, tracer):
    from workloads import OperationFailed, Round

    r = Round(planned=workload.ops_per_round)
    t0 = time.perf_counter()
    try:
        if workload.name == "cli48":
            workload.round(r, traced=traced_round)
        elif traced_round:
            with tracer.installed():
                workload.round(r)
            r.spans, tracer.spans = tracer.spans, []
        else:
            workload.round(r)
    except OperationFailed:
        traceback.print_exc()
    r.wall_s = time.perf_counter() - t0
    return r


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    from tracing import CLI_STEPS, Tracer, layer_metrics

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    cls = WORKLOADS[args.workload]
    kw = {"traced_cli": HERE / "traced_cli.py"} if cls.name == "cli48" else {}
    workload = cls(args.seed, workdir, **kw)
    tracer = Tracer(cls.base_step_deg)
    try:
        if args.trace and cls.name != "cli48":
            with tracer.installed():
                setup_times = workload.setup()
            setup_spans, tracer.spans = tracer.spans, []
        else:
            setup_times, setup_spans = workload.setup(), []
        rounds = []
        t_start = time.perf_counter()
        while (not rounds or time.perf_counter() - t_start < args.seconds
               or args.trace and len(rounds) < 4):
            # traced runs alternate the order within pairs so that a drift in
            # machine speed does not bias the overhead one way
            order = [False]
            if args.trace:
                order = [False, True] if len(rounds) % 4 == 0 else [True, False]
            for traced_round in order:
                rounds.append((traced_round, _run_round(workload, traced_round, tracer)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    traced = [r for t, r in rounds if t]
    plain = [r for t, r in rounds if not t]
    rounds = [r for _, r in rounds]
    ok_rounds = [r for r in plain if not r.failed]
    checks = [c for r in rounds if not r.failed for c in r.checks]
    for c in next((r.checks for r in rounds if not r.failed), []):
        print(c)
    failed_checks = [c for c in checks if not c.ok]
    for c in failed_checks:
        print(c, file=sys.stderr)
    for key in sorted({k for r in ok_rounds for k in r.extra}):
        vals = [r.extra[key] for r in ok_rounds]
        print(f"info {key} {statistics.median(vals):.6g} (median of {len(vals)} rounds)")
    if not ok_rounds:
        print("perfbench: no round completed", file=sys.stderr)
        return 1

    if args.trace:
        if not traced or any(r.failed for r in traced):
            print("perfbench: no traced round completed", file=sys.stderr)
            return 1
        per_round = [layer_metrics(setup_spans + r.spans) for r in traced]
        metrics = {k: {"value": statistics.median(m[k] for m in per_round),
                       "unit": "s" if k.endswith("_s") else "count"} for k in per_round[0]}
        overhead = (statistics.median(r.wall_s for r in traced)
                    - statistics.median(r.wall_s for r in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.spans"] = {"value": statistics.median(len(r.spans) for r in traced),
                                  "unit": "count"}
        # CLI process timings; 0 for the in-process workloads, which start none
        cli48 = cls.name == "cli48"
        metrics["cli.startup_s"] = {"value": workload.startup_s if cli48 else 0.0, "unit": "s"}
        for step in CLI_STEPS:
            key = f"cli.{step}_s"
            value = statistics.median(r.extra[key] for r in traced) if cli48 else 0.0
            metrics[key] = {"value": value, "unit": "s"}
        _write_spans(args, setup_spans, traced)
    else:
        values = {"setup_s": statistics.median(setup_times),
                  "peak_rss_mb": _peak_rss_mb(children=cls.name == "cli48")}
        for key in ("round_s", "recon_rmse_D1"):
            values[key] = statistics.median(r.values[key] for r in ok_rounds)
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}

    attempted = sum(r.planned for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(json.dumps({"correct": not failed_checks, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _write_spans(args, setup_spans, traced) -> None:
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        for i, spans in enumerate([setup_spans] + [r.spans for r in traced]):
            for s in spans:
                fh.write(json.dumps({"round": "setup" if i == 0 else i, **s}) + "\n")
    print(f"spans written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    _import_program()
    sys.exit(main())
