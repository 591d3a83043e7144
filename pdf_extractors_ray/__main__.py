"""Command-line entry points.

A user of the reference repo runs one script per pipeline; here every
pipeline is a subcommand over a transcript Parquet directory:

    python -m pdf_extractors_ray synthesize --out /tmp/corpus --convs 1200
    python -m pdf_extractors_ray extract --input /tmp/corpus --out /tmp/extracted
    python -m pdf_extractors_ray extract --input /tmp/corpus --out /tmp/extracted   # resume: skips done partitions
    python -m pdf_extractors_ray family --input /tmp/corpus --family catalog --out /tmp/catalog
    python -m pdf_extractors_ray lineage --out /tmp/extracted

Owns a Ray session (guarded init + shutdown) — unlike the library, which
never calls ``ray.init``.
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_session(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        kwargs = {"address": "local", "include_dashboard": False,
                  "ignore_reinit_error": True, "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    return ray


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="pdf_extractors_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("synthesize", help="generate a deterministic transcript corpus")
    s.add_argument("--out", required=True)
    s.add_argument("--convs", type=int, default=1200)
    s.add_argument("--seed", type=int, default=42)

    e = sub.add_parser("extract", help="single-pass all-family checkpointed extraction")
    e.add_argument("--input", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--parts", type=int, default=64)

    f = sub.add_parser("family", help="one family pipeline → parquet directory")
    f.add_argument("--input", required=True)
    f.add_argument("--family", required=True)
    f.add_argument("--out", required=True)

    li = sub.add_parser("lineage", help="print the lineage sidecars of an output dir")
    li.add_argument("--out", required=True)

    args = p.parse_args(argv)

    if args.cmd == "synthesize":
        from .sources.transcripts import synthesize_transcripts

        ray = _ray_session(args.num_cpus)
        try:
            out = synthesize_transcripts(args.out, n_convs=args.convs, seed=args.seed)
            print(json.dumps({"out": out, "convs": args.convs}))
        finally:
            ray.shutdown()
        return 0

    if args.cmd == "extract":
        from .state.lineage import partitioned_extract_all_tasks

        ray = _ray_session(args.num_cpus)
        try:
            metrics = partitioned_extract_all_tasks(args.input, args.out, n_parts=args.parts)
            print(json.dumps({
                "out": args.out,
                "partitions": int(len(metrics)),
                "resumed": int(metrics["resumed"].sum()),
                "rows": int(metrics["n_rows"].sum()),
                "turns": int(metrics["n_turns"].sum()),
            }))
        finally:
            ray.shutdown()
        return 0

    if args.cmd == "family":
        from .pipelines.extract import EXTRACTORS

        if args.family not in EXTRACTORS:
            print(f"unknown family {args.family!r}; one of {sorted(EXTRACTORS)}", file=sys.stderr)
            return 2
        ray = _ray_session(args.num_cpus)
        try:
            ds = EXTRACTORS[args.family](args.input)
            ds.write_parquet(args.out)
            print(json.dumps({"out": args.out, "family": args.family}))
        finally:
            ray.shutdown()
        return 0

    if args.cmd == "lineage":
        from .state.lineage import read_lineage

        for entry in read_lineage(args.out):
            print(json.dumps(entry))
        return 0

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
