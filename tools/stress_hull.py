"""Convex-hull partial-combine stress: N random points over a grid of
cells, distributed two-level hull vs a single-process oracle on
sampled cells.  Exercises the hull(A ∪ B) = hull(hull A ∪ hull B)
shuffle-mass claim: the exchange ships only per-batch local hulls
(O(log n) points per group per batch on random data), never the
points."""

from __future__ import annotations

import os
import sys
import time

import numpy as np
import pyarrow as pa

import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from greenex_py_ray.stages.geostats import _hull_points, group_convex_hull  # noqa: E402


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000_000
    n_cells = 1024
    ray.init(address="local", num_cpus=32, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    rng = np.random.RandomState(17)
    x = rng.uniform(0, 20_000.0, n)
    y = rng.uniform(0, 20_000.0, n)
    cell = rng.randint(0, n_cells, n).astype(np.int64)
    ds = ray.data.from_arrow(pa.table({
        "cell": pa.array(cell), "x": pa.array(x), "y": pa.array(y),
    })).repartition(64).materialize()

    t0 = time.time()
    out = group_convex_hull(ds, key_col="cell").to_pandas()
    wall = time.time() - t0

    # oracle on 8 sampled cells: single-shot hull over ALL points
    ok = True
    for c in range(0, n_cells, n_cells // 8):
        m = cell == c
        hx, hy = _hull_points(np.floor(x[m] * 1000).astype(np.int64),
                              np.floor(y[m] * 1000).astype(np.int64))
        exp = set(zip(hx.tolist(), hy.tolist()))
        g = out[out.cell == c]
        got = set(zip(g.xq.tolist(), g.yq.tolist()))
        if got != exp:
            ok = False
            print(f"cell {c}: MISMATCH got {len(got)} exp {len(exp)}")
    hull_rows = len(out)
    print(f"points={n/1e6:.0f}M cells={n_cells} hull_rows={hull_rows} "
          f"({hull_rows/n_cells:.1f}/cell) wall={wall:.1f}s "
          f"({n/wall/1e6:.1f}M pts/s) oracle_match={ok}")
    ray.shutdown()


if __name__ == "__main__":
    main()
