"""Benchmark entry point; prints one JSON result as its last stdout line.

    python3 perfbench/run.py --workload extract_bulk --seed 1 --seconds 10 --trace 0

``--trace 0`` times the workload's closed loop and reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics of one traced run.
Exit status is non-zero, with no result line, when the engine cannot be
imported or the Ray session cannot start.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(REPO_ROOT, ".pbw")
TMP_DIR = os.path.join(WORK_DIR, "tmp")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: smoke-test corpus sizes")
    return ap.parse_args(argv)


def _number(v):
    v = float(v)
    return v if math.isfinite(v) else None


def main(argv=None) -> int:
    args = _parse(argv)
    # libraries (and Ray's processes, which inherit the environment) put
    # their temp files here rather than in the system temp dir
    os.makedirs(TMP_DIR, exist_ok=True)
    os.environ["TMPDIR"] = TMP_DIR
    sys.path.insert(0, REPO_ROOT)
    try:
        import pdf_extractors_ray
    except ImportError as exc:
        print(f"perfbench: cannot import the engine from {REPO_ROOT}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(pdf_extractors_ray.__file__).startswith(REPO_ROOT + os.sep):
        print(f"perfbench: the engine imports from {pdf_extractors_ray.__file__}, "
              f"not from this checkout ({REPO_ROOT})", file=sys.stderr)
        return 2
    from perfbench import harness, workloads

    table = workloads.TINY if args.size == "tiny" else workloads.WORKLOADS
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(table)}",
              file=sys.stderr)
        return 2
    wl = table[args.workload]
    run_dir = os.path.join(WORK_DIR, f"{wl.name}-{args.size}-s{args.seed}-t{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    temp_dir = harness.ray_temp_dir(WORK_DIR)
    ledger = harness.Ledger()
    steal0 = harness.steal_jiffies()
    try:
        # set-up: session start + worker import probe + corpus + warm-up
        t0 = time.perf_counter()
        harness.start_ray(REPO_ROOT, temp_dir)
        corpus = workloads.make_corpus(run_dir, wl, args.seed)
        workloads.warm_up(wl, corpus, run_dir, all_ops=bool(args.trace))
        setup_s = time.perf_counter() - t0
        if args.trace:
            metrics, report = workloads.run_traced(wl, corpus, run_dir, ledger)
            host = harness.host_info()
            metrics.update({f"host.{k}": host[k] for k in ("ray_cpus", "nproc", "os_cpu_count")})
            metrics["host.steal_jiffies"] = harness.steal_jiffies() - steal0
        else:
            metrics, report = workloads.run_timed(wl, corpus, run_dir, args.seconds, ledger)
            metrics["setup_s"] = setup_s
    except Exception as exc:  # noqa: BLE001 - report and exit non-zero
        import traceback

        traceback.print_exc()
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        harness.stop_ray(temp_dir)
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(TMP_DIR, ignore_errors=True)

    report.update({
        "workload": wl.name, "size": args.size, "seed": args.seed, "trace": args.trace,
        "setup_s": setup_s, "host": harness.host_info(),
        "steal_jiffies": harness.steal_jiffies() - steal0, "failures": ledger.failures,
        "metrics": metrics,
    })
    os.makedirs(os.path.join(WORK_DIR, "reports"), exist_ok=True)
    report_path = os.path.join(WORK_DIR, "reports", os.path.basename(run_dir) + ".json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, default=float)

    units = _units()
    result = {
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": _number(v), "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    print(json.dumps(result), flush=True)
    return 0


def _units() -> dict[str, str]:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
