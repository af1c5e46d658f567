"""
One workload process: set-up, the timed cycles, then the checks.

Started by run.py in a fresh interpreter, so every cache of the package
starts cold.  Prints one JSON object as its last line of output.

    python3 bench/worker.py --workload nf-long --seed 1 --seconds 15 \
        --trace 0 --mode run --t0 <time.monotonic() at spawn>
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from calibration import REF_KERNEL_S, kernel_seconds
from run import BLAS_VARS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
clock = time.perf_counter

# Per-layer metrics that must be non-zero on a traced run of each workload:
# a zero means the workload no longer reaches the layer, or a wrapper was
# patched onto a binding the callers do not use.
EXERCISED = {
    "nf-long": [
        "critical.classify.calls",
        "critical.rightward.calls",
        "critical.rightward.found_ratio",
        "critical.leftward.calls",
        "critical.leftward.found_ratio",
        "shortlex.append.calls",
        "shortlex.nf.calls",
    ],
    "ball-d1": [
        "critical.classify.calls",
        "critical.rightward.calls",
        "critical.leftward.calls",
        "critical.tau_closure.calls",
        "shortlex.append.calls",
        "shortlex.nf.calls",
        "shortlex.ball.s",
        "shortlex.ball.elements",
        "shortlex.reordered.calls",
        "oracle.canon.calls",
        "oracle.ball.s",
        "oracle.ball.elements",
        "largetype.permissible.calls",
        "largetype.permissible.accept_ratio",
        "largetype.ld.calls",
        "dihedral.permissible.calls",
        "harmonic.fact_counts.calls",
        "sweeps.d1_scan.self_s",
    ],
    "d2-merge": [
        "critical.classify.calls",
        "critical.tau_closure.calls",
        "shortlex.append.calls",
        "shortlex.ball.elements",
        "largetype.permissible.calls",
        "largetype.ld.calls",
        "dihedral.permissible.calls",
        "largetype.merge.calls",
        "largetype.merge.moves_per_merge",
        "largetype.build_s_t.self_s",
        "largetype.split_s.calls",
        "dihedral.right_divisor_words.calls",
        "sweeps.d2_scan.self_s",
    ],
    "rd-harmonic": [
        "critical.tau_closure.calls",
        "harmonic.trials.calls",
        "harmonic.trials.records",
        "harmonic.opnorm.calls",
        "sweeps.rd_check.self_s",
    ],
}


def import_package():
    """Import artingeo from this checkout's src and nowhere else."""
    sys.path.insert(0, str(SRC))
    import artingeo

    where = Path(artingeo.__file__).resolve()
    if where.parent != (SRC / "artingeo").resolve():
        raise SystemExit(f"refusing to run against {where}: expected {SRC / 'artingeo'}")
    return where


def run_cycle(wl, c: int, tracer=None) -> tuple[list[dict], float]:
    """
    Run one cycle; returns its records and its wall time.  The calibration
    kernel runs between items, and each item's time is rescaled by the mean
    of the kernel times just before and just after it.
    """
    items = wl.cycle(c)
    recs = []
    t_start = clock()
    k_before = kernel_seconds()
    for index, item in enumerate(items):
        rec = {"cycle": c, "index": index, "parts": item.parts, "label": item.label, "key": item.key}
        span = nullcontext() if tracer is None else tracer.item_span(len(recs), item.label)
        try:
            with span:
                t0 = clock()
                out = item.call()
                rec["seconds"] = clock() - t0
            k_after = kernel_seconds()
            rec["ref_seconds"] = rec["seconds"] * 2 * REF_KERNEL_S / (k_before + k_after)
            k_before = k_after
            rec["summary"] = item.summarise(out)
            rec["units"] = item.units(rec["summary"])
            del out
        except Exception:  # an item that raises is a failed item, not a crash
            rec["error"] = traceback.format_exc(limit=4)
        recs.append(rec)
    return recs, clock() - t_start


def timed_untraced(wl, seconds: float) -> list[dict]:
    records: list[dict] = []
    start = clock()
    c = 0
    while c == 0 or clock() - start < seconds:
        recs, _wall = run_cycle(wl, c)
        records.extend(recs)
        c += 1
    return records


def timed_traced(wl, seconds: float, tracer) -> tuple[list[dict], list[float]]:
    """
    Pairs of cycles on identical inputs, one traced and one not.  The first
    cycle of the run is traced, so one-off warm-up work shows in the trace;
    after that the order alternates.  Returns the traced records, marking
    those whose output differs from the untraced twin, and the
    traced/untraced wall ratio of each pair.
    """
    records: list[dict] = []
    ratios: list[float] = []
    start = clock()
    c = 0
    while c == 0 or clock() - start < seconds:
        runs = {}
        for traced in (True, False) if c % 2 == 0 else (False, True):
            if traced:
                with tracer.installed(), tracer.cycle():
                    runs[True] = run_cycle(wl, c, tracer)
            else:
                runs[False] = run_cycle(wl, c)
        (rt, wt), (ru, wu) = runs[True], runs[False]
        for a, b in zip(rt, ru):
            if a.get("summary") != b.get("summary"):
                a["error"] = "traced output differs from the untraced run"
        ratios.append(wt / wu)
        records.extend(rt)
        c += 1
    return records, ratios


def check(wl, records: list[dict], ref: dict) -> list[str]:
    """Run every correctness check; every failing item counts once."""
    failed: dict[int, str] = {}
    for rid, rec in enumerate(records):
        rec["id"] = rid
        if "error" in rec:
            failed[rid] = f"{rec['label']}: {rec['error']}"
    ok = [r for r in records if "error" not in r]
    for rec in ok:
        bad = wl.check_item(rec, ref)
        if bad:
            failed.setdefault(rec["id"], f"{rec['label']}: {'; '.join(bad)}")
    for rid, msg in wl.spot_checks(ok):
        failed.setdefault(rid, f"{records[rid]['label']}: {msg}")
    return list(failed.values())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args(argv)

    where = import_package()
    from workloads import WORKLOADS, load_reference

    wl = WORKLOADS[args.workload](args.size, args.seed)
    setup_s = time.monotonic() - args.t0
    kernel_s = statistics.median(kernel_seconds() for _ in range(3))
    setup = {"setup_s": setup_s, "setup_ref_s": setup_s * REF_KERNEL_S / kernel_s}
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    result: dict = dict(setup, artingeo=str(where))
    result["blas_threads"] = {var: os.environ.get(var) for var in BLAS_VARS}
    OUT.mkdir(exist_ok=True)
    checks: list[str | None] = []  # untimed whole-run checks: None when passed
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        records, ratios = timed_traced(wl, args.seconds, tracer)
        layer = layer_metrics(tracer)
        layer["trace_overhead_frac"] = statistics.median(ratios) - 1.0
        zero = [n for n in EXERCISED[args.workload] if layer.get(n, 0) == 0]
        checks.append(f"per-layer metrics read zero: {zero}" if zero else None)
        result["layer"] = layer
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
        result["trace_file"] = str(path.relative_to(ROOT))
    else:
        records = timed_untraced(wl, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = check(wl, records, load_reference(args.size)[args.workload])
    checks.extend(wl.extra_checks(ROOT, OUT))
    failures.extend(c for c in checks if c is not None)
    done = [r for r in records if "error" not in r]
    parts = []
    for p in range(len(wl.parts)):
        mine = [r for r in done if p in r["parts"]]
        parts.append(
            {
                "units": sum(r["units"] for r in mine),
                "seconds": sum(r["seconds"] for r in mine),
                "ref_seconds": sum(r["ref_seconds"] for r in mine),
                "items": len(mine),
            }
        )
    result.update(
        parts=parts,
        cycles=1 + max(r["cycle"] for r in records),
        attempted=len(records) + len(checks),
        failed=len(failures),
        failures=failures[:20],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
