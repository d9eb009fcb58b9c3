"""Large-facility access stress: the floating-catchment kernels at scale.

Each kernel takes a batch's (point, facility) pairs within the
catchment radius from one ``GridIndex`` gather, so per-batch work is
O(points x local candidates), never the (batch x F) matrix (4096-row
batches x 10^6 facilities of float64 deltas would be ~32 GB).  This
script runs the full E2SFCA two-pass pipeline and the one-pass gravity
pipeline over ``nf`` facilities / ``nd`` demand points on every CPU of
the machine and prints wall-times, then checks ``E2Access`` on 2k
demand points against a 20k-facility slice with a brute-force (batch x
F) reference written here with the same per-pair arithmetic.

Usage: python tools/stress_access_grid.py [nf=100000] [nd=20000]
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

SIGMA, CUTOFF = 500.0, 1500.0


def main() -> None:
    nf = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
    nd = int(sys.argv[2]) if len(sys.argv) > 2 else 20_000
    world = 200_000.0  # metres; ~25 facilities within 1 km at nf=10^6
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=os.cpu_count(),
                 include_dashboard=False, logging_level="ERROR")
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
        poi, fac, sigma=SIGMA, cutoff=CUTOFF).materialize()
    t_e2 = time.time() - t0
    nz = e2.to_pandas()["access_q"].astype(bool).sum()
    print(f"e2sfca 2-pass: {nf} fac x {nd} dem -> {e2.count()} rows "
          f"({nz} nonzero) in {t_e2:.1f} s")

    t0 = time.time()
    gr = access.gravity_access(
        poi, fac, theta=400.0, cutoff=CUTOFF).materialize()
    t_gr = time.time() - t0
    print(f"gravity 1-pass: {gr.count()} rows in {t_gr:.1f} s")

    sl = _mk_rq(fac.slice(0, 20_000))
    sub = dem.slice(0, 2000)
    got = access.E2Access(sl, denom=2 * SIGMA**2, cutoff=CUTOFF)(sub)
    assert got.equals(_e2_access_bruteforce(sl, sub)), \
        "E2Access differs from the brute-force reference"
    print("E2Access == brute force (bit-equal) on 2k x 20k")
    ray.shutdown()


def _mk_rq(fac: pa.Table) -> pa.Table:
    rng = np.random.RandomState(5)
    return pa.table({
        "gs_id": fac.column("gs_id"),
        "centroid_x": fac.column("centroid_x"),
        "centroid_y": fac.column("centroid_y"),
        "rq": pa.array(rng.randint(1, 10**9, len(fac)).astype(np.int64)),
    })


def _e2_access_bruteforce(fac: pa.Table, dem: pa.Table) -> pa.Table:
    """E2Access over every (point, facility) pair, 200 points at a time."""
    fx = fac.column("centroid_x").to_numpy()
    fy = fac.column("centroid_y").to_numpy()
    rq = fac.column("rq").to_numpy().astype(np.float64)
    x, y = dem.column("x").to_numpy(), dem.column("y").to_numpy()
    n_fac, access_q = [], []
    for lo in range(0, len(x), 200):
        dx = x[lo:lo + 200, None] - fx[None, :]
        dy = y[lo:lo + 200, None] - fy[None, :]
        d2 = dx * dx + dy * dy
        w = np.round(np.exp(-d2 / (2 * SIGMA**2)) * access.E2_WQ)
        w = np.where(d2 <= CUTOFF * CUTOFF, w.astype(np.int64), 0)
        terms = np.floor(w * rq[None, :] / access.E2_WQ + 0.5)
        n_fac.append((w > 0).sum(axis=1))
        access_q.append(terms.astype(np.int64).sum(axis=1))
    return pa.table({
        "doc_id": dem.column("doc_id"),
        "n_fac": pa.array(np.concatenate(n_fac).astype(np.int64)),
        "access_q": pa.array(np.concatenate(access_q).astype(np.int64)),
    })


if __name__ == "__main__":
    main()
