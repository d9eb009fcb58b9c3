"""10^6-facility access stress: the grid-gather scale path for the
dense-broadcast access family (VERDICT r4 #2).

A (batch x 10^6) dense matrix is why the old paths couldn't scale:
4096-row batches x 1M facilities of float64 deltas is ~32 GB per batch.
The grid path gathers only the facilities within the catchment radius
of each occupied query cell, so per-batch work is O(points x local
candidates).  This script runs the full E2SFCA two-pass pipeline and
the one-pass gravity pipeline over 1M facilities / 200k demand points
on 32 cores and prints wall-times plus a small-sample dense-vs-grid
parity check (bit-equal by construction; verified here end-to-end).
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
import pyarrow as pa

import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from greenex_py_ray.stages import access  # noqa: E402


def main() -> None:
    nf = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    nd = int(sys.argv[2]) if len(sys.argv) > 2 else 200_000
    world = 200_000.0  # metres; ~25 facilities within a 1 km radius
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=32, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    rng = np.random.RandomState(17)
    fx = rng.uniform(0, world, nf)
    fy = rng.uniform(0, world, nf)
    half_w = rng.uniform(20, 200, nf)
    half_h = rng.uniform(20, 200, nf)
    fac = pa.table({
        "gs_id": pa.array(np.arange(nf, dtype=np.int64)),
        "centroid_x": pa.array(fx), "centroid_y": pa.array(fy),
        "x0": pa.array(fx - half_w), "x1": pa.array(fx + half_w),
        "y0": pa.array(fy - half_h), "y1": pa.array(fy + half_h),
    })
    dem = pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(nd)]),
        "x": pa.array(rng.uniform(0, world, nd)),
        "y": pa.array(rng.uniform(0, world, nd)),
    })
    poi = ray.data.from_arrow(dem).repartition(64).materialize()

    t0 = time.time()
    e2 = access.enhanced_two_step_fca(
        poi, fac, sigma=500.0, cutoff=1500.0, concurrency=(1, 28),
    ).materialize()
    t_e2 = time.time() - t0
    nz = e2.to_pandas()["access_q"].astype(bool).sum()
    print(f"e2sfca 2-pass: {nf} fac x {nd} dem -> {e2.count()} rows "
          f"({nz} nonzero) in {t_e2:.1f} s")

    t0 = time.time()
    gr = access.gravity_access(
        poi, fac, theta=400.0, cutoff=1500.0, concurrency=(1, 28),
    ).materialize()
    t_gr = time.time() - t0
    print(f"gravity 1-pass: {gr.count()} rows in {t_gr:.1f} s")

    # parity: 2k demand points against a 20k facility slice, dense vs
    # grid, end-to-end through the same actors
    sl = fac.slice(0, 20_000)
    sub = pa.table({c: dem.column(c).slice(0, 2000)
                    for c in dem.schema.names})
    dense = access.E2Access(_mk_rq(sl), denom=2 * 500.0**2, cutoff=1500.0,
                            dense_max=10**9)(sub)
    grid = access.E2Access(_mk_rq(sl), denom=2 * 500.0**2, cutoff=1500.0,
                           dense_max=0)(sub)
    assert dense.equals(grid), "dense vs grid parity failed"
    print("parity dense==grid: OK (bit-equal)")
    ray.shutdown()


def _mk_rq(fac: pa.Table) -> pa.Table:
    rng = np.random.RandomState(5)
    return pa.table({
        "gs_id": fac.column("gs_id"),
        "centroid_x": fac.column("centroid_x"),
        "centroid_y": fac.column("centroid_y"),
        "rq": pa.array(rng.randint(1, 10**9, len(fac)).astype(np.int64)),
    })


if __name__ == "__main__":
    main()
