"""Cluster job driver — the `ray job submit` entrypoint.

On a real fixed-size cluster this runs as

    ray job submit --working-dir /root/repo -- \
        python tools/run_pipeline.py --pipeline zonal_mean_ndvi \
        --sf-dir /data/sf100 --out /data/out/zonal_run1

The script connects to whatever cluster `RAY_ADDRESS` points at (the
Jobs API sets it; locally it falls back to a fresh local session), runs
one named gate pipeline from the `queries()` registry over the input
table directory, and lands the result as RESUMABLE partitioned parquet
through `lineage.resumable_write` — per-partition manifest rows with
order-free crc32 checksums (of each partition's rows in a canonical
order), so a preempted job re-submitted with the same --out skips
finished partitions.

Sandbox note: no multi-node cluster exists in this environment; this
entrypoint is exercised end-to-end against a local session in
tests/test_run_pipeline.py, and everything it does (connect-don't-init,
hash-split write, per-partition manifests) is the multi-node code path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--pipeline", required=True,
                    help="a queries() entry, e.g. zonal_mean_ndvi")
    ap.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    ap.add_argument("--out", required=True,
                    help="output dir (re-submitting resumes)")
    ap.add_argument("--partition-key", default=None,
                    help="column to bucket output partitions by "
                         "(default: first column)")
    ap.add_argument("--partitions", type=int, default=64)
    args = ap.parse_args()

    # under `ray job submit` RAY_ADDRESS targets the cluster; never
    # re-init inside an existing session
    if not ray.is_initialized():
        ray.init(include_dashboard=False, logging_level="ERROR")

    from greenex_py_ray import lineage
    from greenex_py_ray.pipelines.driver_queries import QUERIES

    if args.pipeline not in QUERIES:
        sys.exit(f"unknown pipeline {args.pipeline!r}; "
                 f"choose from {sorted(QUERIES)}")

    t0 = time.time()
    res = QUERIES[args.pipeline](args.sf_dir)
    if not isinstance(res, ray.data.Dataset):
        import pyarrow as pa

        res = ray.data.from_arrow(res if isinstance(res, pa.Table)
                                  else pa.Table.from_pandas(res))
    key = args.partition_key or res.schema().names[0]
    done_before = len(lineage.completed_partitions(args.out))
    lineage.resumable_write(res, args.out, key=key,
                            num_partitions=args.partitions)
    manifest = lineage.read_manifest(args.out)
    print(json.dumps({
        "pipeline": args.pipeline, "out": args.out,
        "partitions": len(manifest),
        "skipped_resume": done_before,
        "rows": int(sum(m["row_count"] for m in manifest)),
        "sec": round(time.time() - t0, 2),
    }))


if __name__ == "__main__":
    main()
