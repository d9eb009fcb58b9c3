"""Scale-stress: integer PageRank on a 10M-edge graph and grid DBSCAN
on 10M points, with exact numpy replays as oracles.

Usage: python tools/stress_graph_clustering.py [n_edges] [n_points]
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
import pyarrow as pa

import ray

N_EDGES = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000_000
N_POINTS = int(sys.argv[2]) if len(sys.argv) > 2 else 10_000_000
N_NODES = 1_000_000
WORLD = 20_000.0


def lcg(n: int, seed: int) -> np.ndarray:
    k = np.arange(n, dtype=np.int64)
    return (k * 6364136223846793005 + seed) % (1 << 31)


def main() -> None:
    ray.init(address="local", num_cpus=32, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import ray.data as rd

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from greenex_py_ray.stages.clustering import grid_dbscan
    from greenex_py_ray.stages.graphalgo import pagerank

    # ---- PageRank ----
    src = lcg(N_EDGES, 12345) % N_NODES
    dst = lcg(N_EDGES, 98765) % N_NODES
    edges = rd.from_arrow(
        pa.table({"src": src, "dst": dst})).repartition(64).materialize()
    t0 = time.perf_counter()
    ranks = pagerank(edges, iters=3)
    got = ranks.materialize()
    t_pr = time.perf_counter() - t0
    n_rows = got.count()

    # exact numpy replay of the integer recurrence
    deg = np.bincount(src, minlength=N_NODES).astype(np.int64)
    r = np.full(N_NODES, 1_000_000, dtype=np.int64)
    for _ in range(3):
        c = np.zeros(N_NODES, dtype=np.int64)
        safe = np.maximum(deg, 1)
        contrib = r // safe
        np.add.at(c, dst, contrib[src])
        r = (15 * 1_000_000 + 85 * c) // 100
    # nodes with no edges at all are absent from the distributed result
    present = np.zeros(N_NODES, dtype=bool)
    present[src] = True
    present[dst] = True
    expect_sum = int(r[present].sum())
    got_sum = 0
    for blk in ray.get(got.to_arrow_refs()):
        got_sum += int(np.sum(blk.column("rank").to_numpy(
            zero_copy_only=False)))
    assert n_rows == int(present.sum()), (n_rows, int(present.sum()))
    assert got_sum == expect_sum, (got_sum, expect_sum)
    print(f"pagerank: {N_EDGES} edges, {n_rows} nodes, 3 iters "
          f"in {t_pr:.1f}s ({N_EDGES * 3 / t_pr / 1e6:.2f}M edge-visits/s)"
          f" — rank-sum exact match {got_sum}")

    # ---- grid DBSCAN ----
    x = lcg(N_POINTS, 555) / float(1 << 31) * WORLD
    y = lcg(N_POINTS, 777) / float(1 << 31) * WORLD
    xw = x * x / WORLD * x / WORLD
    yw = y * y / WORLD * y / WORLD
    pts = rd.from_arrow(pa.table({"x": xw, "y": yw})).repartition(
        64).materialize()
    t0 = time.perf_counter()
    out = grid_dbscan(pts, 100.0, 500).materialize()
    t_db = time.perf_counter() - t0
    rows = out.count()

    # numpy oracle for cell counts / core flags
    cx = np.floor(xw / 100.0).astype(np.int64)
    cy = np.floor(yw / 100.0).astype(np.int64)
    W = int(max(cx.max(), cy.max())) + 1
    grid = np.zeros((W + 2, W + 2), dtype=np.int64)
    np.add.at(grid, (cx + 1, cy + 1), 1)
    nb = sum(np.roll(np.roll(grid, dx, 0), dy, 1)
             for dx in (-1, 0, 1) for dy in (-1, 0, 1))
    occ = grid > 0
    exp_cells = int(occ.sum())
    exp_core = int((occ & (nb >= 500)).sum())
    got_core = 0
    for blk in ray.get(out.to_arrow_refs()):
        if blk.num_rows == 0:  # empty union blocks carry no schema
            continue
        got_core += int(np.sum(blk.column("core").to_numpy(
            zero_copy_only=False)))
    assert rows == exp_cells, (rows, exp_cells)
    assert got_core == exp_core, (got_core, exp_core)
    print(f"dbscan: {N_POINTS} points → {rows} cells ({got_core} core) "
          f"in {t_db:.1f}s ({N_POINTS / t_db / 1e6:.2f}M pts/s)")
    ray.shutdown()


if __name__ == "__main__":
    main()
