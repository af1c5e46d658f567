"""
The artingeo benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload nf-long --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's own src directory.  Single process, single
thread, closed loop: each workload process sends the next item only after
the previous one returned.

With --trace 0 the run starts SETUP_RUNS fresh processes that only set up
(imports, presets and, for rd-harmonic, the prebuilt balls) and then one
process that sets up, runs whole cycles for --seconds and checks every
output; setup_s is the median of all of their set-up times.  With --trace 1
one process runs pairs of cycles on identical inputs, one of them traced
from outside the package, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it record where the
package was imported from and the environment of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 2  # set-up-only processes, besides the measuring one
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE = 170  # seconds: every worker is stopped by then, and the run fails

END_TO_END = {
    "setup_s": "s",
    "part1_per_s": "1/s",
    "part2_per_s": "1/s",
    "part3_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def git_commit() -> str | None:
    """The checked-out commit, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    for var in BLAS_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, mode: str, deadline: float) -> dict:
    """Run one worker process to completion and return its result object."""
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        "--mode", mode,
    ]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(deadline - t0, 0.1),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise SystemExit(f"worker ({mode}) did not finish within {DEADLINE} s of the start")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(main: dict) -> dict:
    import numpy  # imported here only to record its version

    return {
        "commit": git_commit(),
        "artingeo": main.get("artingeo"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": main["blas_threads"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "artingeo" / "__init__.py").is_file():
        print(f"no artingeo package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE
    setups = []
    if not args.trace:
        setups = [spawn(args, "setup", deadline) for _ in range(SETUP_RUNS)]
    main_res = spawn(args, "run", deadline)
    setups.append(main_res)

    for msg in main_res["failures"]:
        print(f"FAILED: {msg}", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "cycles": main_res["cycles"],
        "parts": [
            dict(p, what=what) for p, what in zip(main_res["parts"], WORKLOADS[args.workload].parts)
        ],
        "setup_runs_s": [s["setup_s"] for s in setups],
        "setup_runs_ref_s": [s["setup_ref_s"] for s in setups],
    }
    print(json.dumps({"environment": environment(main_res)}))
    print(json.dumps({"detail": detail}))

    if args.trace:
        metrics = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in main_res["layer"].items()
        }
    else:
        values = {
            "setup_s": statistics.median(s["setup_ref_s"] for s in setups),
            "peak_rss_mb": main_res["peak_rss_mb"],
        }
        for i, part in enumerate(main_res["parts"]):
            rate = part["units"] / part["ref_seconds"] if part["ref_seconds"] else 0.0
            values[f"part{i + 1}_per_s"] = rate
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(
        json.dumps(
            {
                "correct": main_res["failed"] == 0,
                "attempted": main_res["attempted"],
                "failed": main_res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_frac", "_per_merge")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
