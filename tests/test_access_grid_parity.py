"""Broadcast-dense vs grid-gather parity for the access family and
geostats broadcast stages: forcing the grid path (dense_max=0) must be
bit-identical to the dense (batch x F) matrices — the grid only prunes
candidates, every per-pair term repeats the dense arithmetic, and all
reductions are int64 (order-exact)."""

import numpy as np
import pyarrow as pa
import pytest


def _pts(n, seed, lo=0.0, hi=10_000.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, n), rng.uniform(lo, hi, n)


def _batch(x, y):
    return pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(len(x))]),
        "x": pa.array(x), "y": pa.array(y),
    })


def _fac(nf, seed):
    fx, fy = _pts(nf, seed)
    return pa.table({
        "gs_id": pa.array(np.arange(nf, dtype=np.int64)),
        "centroid_x": pa.array(fx), "centroid_y": pa.array(fy),
    })


def _tables_equal(a: pa.Table, b: pa.Table):
    assert a.schema.names == b.schema.names
    for c in a.schema.names:
        av = a.column(c).to_pandas()
        bv = b.column(c).to_pandas()
        assert av.equals(bv), c


def test_fca_demand_count_parity():
    from greenex_py_ray.stages.access import FCADemandCount

    fac = _fac(300, 11)
    x, y = _pts(800, 12)
    dense = FCADemandCount(fac, radius=900.0, dense_max=10**9)
    grid = FCADemandCount(fac, radius=900.0, dense_max=0)
    assert dense.grid is None and grid.grid is not None
    _tables_equal(dense(_batch(x, y)), grid(_batch(x, y)))


def test_fca_access_parity():
    from greenex_py_ray.stages.access import FCAAccess

    fac = _fac(300, 21).append_column(
        "rq", pa.array(np.random.default_rng(22).integers(
            1, 10**9, 300).astype(np.int64)))
    x, y = _pts(800, 23)
    dense = FCAAccess(fac, radius=700.0, dense_max=10**9)
    grid = FCAAccess(fac, radius=700.0, dense_max=0)
    _tables_equal(dense(_batch(x, y)), grid(_batch(x, y)))


def test_gravity_parity():
    from greenex_py_ray.stages.access import GravityAccess

    fac = _fac(250, 31).append_column(
        "supply_q", pa.array(np.random.default_rng(32).integers(
            1, 10**6, 250).astype(np.int64)))
    x, y = _pts(600, 33)
    dense = GravityAccess(fac, theta=400.0, cutoff=1500.0,
                          dense_max=10**9)
    grid = GravityAccess(fac, theta=400.0, cutoff=1500.0, dense_max=0)
    _tables_equal(dense(_batch(x, y)), grid(_batch(x, y)))


def test_e2_weight_and_access_parity():
    from greenex_py_ray.stages.access import E2Access, E2DemandWeight

    denom = 2.0 * 500.0 * 500.0
    fac = _fac(250, 41)
    x, y = _pts(600, 42)
    dw_d = E2DemandWeight(fac, denom=denom, cutoff=1500.0,
                          dense_max=10**9)
    dw_g = E2DemandWeight(fac, denom=denom, cutoff=1500.0, dense_max=0)
    _tables_equal(dw_d(_batch(x, y)), dw_g(_batch(x, y)))

    fac2 = fac.append_column(
        "rq", pa.array(np.random.default_rng(43).integers(
            1, 10**9, 250).astype(np.int64)))
    ac_d = E2Access(fac2, denom=denom, cutoff=1500.0, dense_max=10**9)
    ac_g = E2Access(fac2, denom=denom, cutoff=1500.0, dense_max=0)
    _tables_equal(ac_d(_batch(x, y)), ac_g(_batch(x, y)))


def test_idw_parity():
    from greenex_py_ray.stages.geostats import IDWInterpolator

    rng = np.random.default_rng(51)
    sx, sy = _pts(300, 52)
    st = pa.table({"sx": pa.array(sx), "sy": pa.array(sy),
                   "val": pa.array(rng.uniform(-1, 1, 300))})
    x, y = _pts(700, 53)
    dense = IDWInterpolator(st, radius=1200.0, dense_max=10**9)
    grid = IDWInterpolator(st, radius=1200.0, dense_max=0)
    _tables_equal(dense(_batch(x, y)), grid(_batch(x, y)))


def test_haversine_nearest_parity():
    from greenex_py_ray.stages.geostats import HaversineNearest

    rng = np.random.default_rng(61)
    nf = 400
    fac = pa.table({
        "fid": pa.array(rng.permutation(nf).astype(np.int64)),
        "flon": pa.array(rng.uniform(4.0, 7.0, nf)),
        "flat": pa.array(rng.uniform(50.0, 54.0, nf)),
    })
    lon = rng.uniform(3.5, 7.5, 500)
    lat = rng.uniform(49.5, 54.5, 500)
    b = pa.table({"doc_id": pa.array([f"d{i}" for i in range(500)]),
                  "lon": pa.array(lon), "lat": pa.array(lat)})
    dense = HaversineNearest(fac, dense_max=10**9)
    grid = HaversineNearest(fac, dense_max=0)
    assert grid.grid is not None
    _tables_equal(dense(b), grid(b))


def test_haversine_grid_sparse_far_queries():
    """Queries far outside the facility extent force deep ring
    expansion — the chord lower bound must not stop early."""
    from greenex_py_ray.stages.geostats import HaversineNearest

    rng = np.random.default_rng(71)
    nf = 50
    fac = pa.table({
        "fid": pa.array(np.arange(nf, dtype=np.int64)),
        "flon": pa.array(rng.uniform(10.0, 11.0, nf)),
        "flat": pa.array(rng.uniform(45.0, 46.0, nf)),
    })
    lon = np.array([-100.0, 120.0, 10.5, -30.0])
    lat = np.array([-60.0, 70.0, 45.5, 0.0])
    b = pa.table({"doc_id": pa.array(["a", "b", "c", "d"]),
                  "lon": pa.array(lon), "lat": pa.array(lat)})
    dense = HaversineNearest(fac, dense_max=10**9)
    grid = HaversineNearest(fac, dense_max=0)
    _tables_equal(dense(b), grid(b))


def test_haversine_grid_queries_poleward_of_facilities():
    """Queries poleward of every facility: a lon-separated facility is
    nearer than cos(max facility lat) alone bounds, so the ring prune
    must fold in the query's latitude.  From (0, 80) the facility at
    (90, 70) is 2476 km away, the one at (0, 55) 2780 km."""
    from greenex_py_ray.stages.geostats import HaversineNearest

    fac = pa.table({
        "fid": pa.array([1, 2, 3, 4], pa.int64()),
        "flon": pa.array([0.0, 90.0, 45.0, 10.0]),
        "flat": pa.array([55.0, 70.0, -60.0, -50.0]),
    })
    lon = np.array([0.0, 1.0, -2.0, 3.5])
    lat = np.array([80.0, 81.0, 82.0, 79.5])
    b = pa.table({"doc_id": pa.array(["a", "b", "c", "d"]),
                  "lon": pa.array(lon), "lat": pa.array(lat)})
    dense = HaversineNearest(fac, dense_max=10**9)
    grid = HaversineNearest(fac, dense_max=2)
    assert grid.grid is not None
    assert dense(b).column("fid").to_pylist()[0] == 2
    _tables_equal(dense(b), grid(b))


def test_nearest_image_feature_matches_bruteforce():
    """J7 grid-indexed nearest-feature (100 m cutoff) vs the dense
    argmin, including the miss sentinel columns."""
    from greenex_py_ray.stages.visibility import NearestImageFeature

    rng = np.random.default_rng(81)
    nf = 500
    feat = pa.table({
        "image_id": pa.array([f"img{i}" for i in range(nf)]),
        "x": pa.array(rng.uniform(0, 5000, nf)),
        "y": pa.array(rng.uniform(0, 5000, nf)),
        "is_panoramic": pa.array(rng.integers(0, 2, nf).astype(bool)),
    })
    sx = rng.uniform(-200, 5200, 400)
    sy = rng.uniform(-200, 5200, 400)
    b = pa.table({"sp_x": pa.array(sx), "sp_y": pa.array(sy)})
    out = NearestImageFeature(feat, max_distance=100.0)(b)

    fx = feat.column("x").to_numpy()
    fy = feat.column("y").to_numpy()
    d2 = (sx[:, None] - fx[None, :]) ** 2 + (sy[:, None] - fy[None, :]) ** 2
    j = d2.argmin(axis=1)
    dmin = np.sqrt(d2[np.arange(len(sx)), j])
    hit = dmin <= 100.0
    exp_ids = np.where(hit, np.array([f"img{i}" for i in j]), "")
    assert out.column("image_id").to_pylist() == exp_ids.tolist()
    got_d = out.column("feature_distance").to_numpy(zero_copy_only=False)
    assert np.allclose(got_d[hit], dmin[hit])
    assert np.isnan(got_d[~hit]).all()
    pano = feat.column("is_panoramic").to_numpy(zero_copy_only=False)
    exp_pano = np.where(hit, pano[j], False)
    assert (out.column("is_panoramic").to_numpy(zero_copy_only=False)
            == exp_pano).all()
