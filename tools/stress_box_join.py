"""Stress cell_box_join at millions of boxes with a closed-form oracle.

Lattice design: 2M left boxes (60 m extent) on a 100 m grid, 20k right
tiles (900 m extent) on a 1 km grid with a 100 m gap.  A box whose grid
index ends in 9 (either axis) sits wholly in a gap; every other box
overlaps EXACTLY one tile — so total pairs, Σdoc_id and Σgs_id all have
closed forms, verified without materializing a pair list.

Usage: python tools/stress_box_join.py [n_i n_j]
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
import pyarrow as pa

import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from greenex_py_ray.stages.spatial_join import cell_box_join  # noqa: E402


def main() -> None:
    n_i = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    n_j = int(sys.argv[2]) if len(sys.argv) > 2 else 1000
    ray.init(address="local", num_cpus=32, include_dashboard=False,
             logging_level="ERROR")

    ii, jj = np.meshgrid(np.arange(n_i, dtype=np.int64),
                         np.arange(n_j, dtype=np.int64), indexing="ij")
    ii, jj = ii.ravel(), jj.ravel()
    doc_id = ii * n_j + jj
    cx = ii * 100.0 + 50.0
    cy = jj * 100.0 + 50.0
    boxes = pa.table({
        "doc_id": pa.array(doc_id),
        "bx0": pa.array(cx - 30.0), "by0": pa.array(cy - 30.0),
        "bx1": pa.array(cx + 30.0), "by1": pa.array(cy + 30.0),
    })

    n_a, n_b = (n_i + 9) // 10, (n_j + 9) // 10
    aa, bb = np.meshgrid(np.arange(n_a, dtype=np.int64),
                         np.arange(n_b, dtype=np.int64), indexing="ij")
    aa, bb = aa.ravel(), bb.ravel()
    gs_id = aa * n_b + bb
    rects = pa.table({
        "gs_id": pa.array(gs_id),
        "x0": pa.array(aa * 1000.0), "y0": pa.array(bb * 1000.0),
        "x1": pa.array(aa * 1000.0 + 900.0),
        "y1": pa.array(bb * 1000.0 + 900.0),
    })

    ds = ray.data.from_arrow(boxes).repartition(64)
    t0 = time.time()
    out = cell_box_join(ds, rects, cell_size=500.0, key_col="doc_id")
    from ray.data.aggregate import Count, Sum
    agg = out.aggregate(Count(alias_name="n"),
                        Sum("doc_id", alias_name="sd"),
                        Sum("gs_id", alias_name="sg"))
    dt_s = time.time() - t0

    hit = (ii % 10 != 9) & (jj % 10 != 9)
    exp_n = int(hit.sum())
    exp_sd = int(doc_id[hit].sum())
    exp_sg = int((((ii // 10) * n_b + jj // 10)[hit]).sum())
    ok = (agg["n"] == exp_n and agg["sd"] == exp_sd and agg["sg"] == exp_sg)
    print({"boxes": len(doc_id), "rects": len(gs_id),
           "pairs": int(agg["n"]), "expected": exp_n,
           "sum_doc_ok": agg["sd"] == exp_sd,
           "sum_gs_ok": agg["sg"] == exp_sg,
           "sec": round(dt_s, 1),
           "boxes_per_s": round(len(doc_id) / dt_s),
           "exact": ok})
    ray.shutdown()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
