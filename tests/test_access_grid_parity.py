"""Grid-gather kernels vs brute force: the access family, IDW and the
haversine nearest facility take their (point, facility) pairs from one
GridIndex gather, and each must equal a (batch x F) reference written
here with the same per-pair arithmetic — the grid only prunes
candidates, and every reduction is int64 (order-exact)."""

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


def _col(t, name):
    return t.column(name).to_numpy(zero_copy_only=False)


def _d2(x, y, fx, fy):
    """(batch x F) squared distances, the kernels' per-pair expression."""
    dx = x[:, None] - fx[None, :]
    dy = y[:, None] - fy[None, :]
    return dx * dx + dy * dy


def _per_facility(fac, name, tot):
    nz = np.flatnonzero(tot)
    return pa.table({"gs_id": pa.array(_col(fac, "gs_id")[nz]),
                     name: pa.array(tot[nz].astype(np.int64))})


def _per_point(x, n_fac, access_q):
    return pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(len(x))]),
        "n_fac": pa.array(n_fac.astype(np.int64)),
        "access_q": pa.array(access_q.astype(np.int64)),
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
    within = _d2(x, y, _col(fac, "centroid_x"),
                 _col(fac, "centroid_y")) <= 900.0 * 900.0
    exp = _per_facility(fac, "n", within.sum(axis=0))
    _tables_equal(FCADemandCount(fac, radius=900.0)(_batch(x, y)), exp)


def test_fca_access_parity():
    from greenex_py_ray.stages.access import FCAAccess

    fac = _fac(300, 21).append_column(
        "rq", pa.array(np.random.default_rng(22).integers(
            1, 10**9, 300).astype(np.int64)))
    x, y = _pts(800, 23)
    within = _d2(x, y, _col(fac, "centroid_x"),
                 _col(fac, "centroid_y")) <= 700.0 * 700.0
    exp = _per_point(x, within.sum(axis=1),
                     (within * _col(fac, "rq")[None, :]).sum(axis=1))
    _tables_equal(FCAAccess(fac, radius=700.0)(_batch(x, y)), exp)


def test_gravity_parity():
    from greenex_py_ray.stages.access import GRAVITY_Q, GravityAccess

    fac = _fac(250, 31).append_column(
        "supply_q", pa.array(np.random.default_rng(32).integers(
            1, 10**6, 250).astype(np.int64)))
    x, y = _pts(600, 33)
    d2 = _d2(x, y, _col(fac, "centroid_x"), _col(fac, "centroid_y"))
    within = d2 <= 1500.0 * 1500.0
    sup = _col(fac, "supply_q").astype(np.float64)
    w = np.floor(sup[None, :] * GRAVITY_Q / (1.0 + d2 / (400.0 * 400.0))
                 + 0.5).astype(np.int64)
    exp = _per_point(x, within.sum(axis=1),
                     np.where(within, w, 0).sum(axis=1))
    got = GravityAccess(fac, theta=400.0, cutoff=1500.0)(_batch(x, y))
    _tables_equal(got, exp)


def test_e2_weight_and_access_parity():
    from greenex_py_ray.stages.access import E2_WQ, E2Access, E2DemandWeight

    denom = 2.0 * 500.0 * 500.0
    fac = _fac(250, 41)
    x, y = _pts(600, 42)
    d2 = _d2(x, y, _col(fac, "centroid_x"), _col(fac, "centroid_y"))
    w = np.round(np.exp(-d2 / denom) * E2_WQ).astype(np.int64)
    w = np.where(d2 <= 1500.0 * 1500.0, w, 0)
    got = E2DemandWeight(fac, denom=denom, cutoff=1500.0)(_batch(x, y))
    _tables_equal(got, _per_facility(fac, "wsum", w.sum(axis=0)))

    fac2 = fac.append_column(
        "rq", pa.array(np.random.default_rng(43).integers(
            1, 10**9, 250).astype(np.int64)))
    rq = _col(fac2, "rq").astype(np.float64)
    terms = np.floor(w * rq[None, :] / E2_WQ + 0.5).astype(np.int64)
    exp = _per_point(x, (w > 0).sum(axis=1), terms.sum(axis=1))
    got = E2Access(fac2, denom=denom, cutoff=1500.0)(_batch(x, y))
    _tables_equal(got, exp)


def test_idw_parity():
    from greenex_py_ray.stages.geostats import (IDW_DEN_Q, IDW_NUM_Q,
                                                IDWInterpolator)

    rng = np.random.default_rng(51)
    sx, sy = _pts(300, 52)
    val = rng.uniform(-1, 1, 300)
    st = pa.table({"sx": pa.array(sx), "sy": pa.array(sy),
                   "val": pa.array(val)})
    x, y = _pts(700, 53)
    # and points no station reaches: their idw is null
    x, y = np.append(x, [20_000.0, -5_000.0]), np.append(y, [0.0, 5e3])
    d2 = _d2(x, y, sx, sy)
    within = d2 <= 1200.0 * 1200.0
    w = 1.0 / (d2 + 1.0)
    den = np.where(within, np.round(w * IDW_DEN_Q), 0.0).astype(
        np.int64).sum(axis=1)
    num = np.where(within, np.round(w * val[None, :] * IDW_NUM_Q),
                   0.0).astype(np.int64).sum(axis=1)
    n_within = within.sum(axis=1).astype(np.int64)
    idw = np.round(num * (IDW_DEN_Q / IDW_NUM_Q)
                   / np.where(den > 0, den, 1), 6)
    b = _batch(x, y)
    exp = (b.append_column("n_within", pa.array(n_within))
           .append_column("idw", pa.array(idw, mask=n_within == 0)))
    got = IDWInterpolator(st, radius=1200.0)(b)
    _tables_equal(got, exp)
    assert (n_within == 0).any() and (n_within > 1).any()


def _haversine_bruteforce(fac: pa.Table, b: pa.Table) -> pa.Table:
    """Dense argmin of round(d, 6) over fid-sorted facilities: the
    first minimum is the smallest fid among round-6 ties (the SQL
    ``ORDER BY round(d, 6), fid``)."""
    from greenex_py_ray.stages.geostats import haversine_km

    order = np.argsort(_col(fac, "fid"), kind="stable")
    fid = _col(fac, "fid")[order]
    flon, flat = _col(fac, "flon")[order], _col(fac, "flat")[order]
    lon, lat = _col(b, "lon"), _col(b, "lat")
    d = haversine_km(lon[:, None], lat[:, None],
                     flon[None, :], flat[None, :])
    j = np.argmin(np.round(d, 6), axis=1)
    draw = d[np.arange(len(j)), j]
    return (b.append_column("fid", pa.array(fid[j]))
            .append_column("dist_km", pa.array(np.round(draw, 3))))


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
    _tables_equal(HaversineNearest(fac)(b), _haversine_bruteforce(fac, b))


def test_haversine_grid_sparse_far_queries():
    """Queries far outside the facility extent force a deep square
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
    _tables_equal(HaversineNearest(fac)(b), _haversine_bruteforce(fac, b))


def test_haversine_grid_queries_poleward_of_facilities():
    """Queries poleward of every facility: a lon-separated facility is
    nearer than cos(max facility lat) alone bounds, so the square prune
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
    exp = _haversine_bruteforce(fac, b)
    assert exp.column("fid").to_pylist()[0] == 2
    _tables_equal(HaversineNearest(fac)(b), exp)


def test_haversine_round6_tie_across_pass_boundary():
    """An exact distance tie between a facility in the query's first
    square (0.5° cells, one cell around the query's) and one outside
    it, the second with the smaller fid: the search must not settle on
    the first pass, and the tie goes to the smaller fid."""
    from greenex_py_ray.stages.geostats import HaversineNearest

    q_lat, step = 63 / 128, 13 / 16  # dyadic: both offsets are exact
    fac = pa.table({
        "fid": pa.array([9, 4, 1], pa.int64()),
        "flon": pa.array([10.25, 10.25, 40.0]),
        # in the first square (cell -1), outside it (cell 2), far
        "flat": pa.array([q_lat - step, q_lat + step, 30.0]),
    })
    b = pa.table({"doc_id": pa.array(["a", "b"]),
                  "lon": pa.array([10.25, 10.25]),
                  "lat": pa.array([q_lat, q_lat])})
    exp = _haversine_bruteforce(fac, b)
    assert exp.column("fid").to_pylist() == [4, 4]
    _tables_equal(HaversineNearest(fac)(b), exp)


def test_haversine_nearest_across_antimeridian():
    """A facility just across the antimeridian is the nearest: the lon
    separation the grid sees (~359°) must not prune it."""
    from greenex_py_ray.stages.geostats import HaversineNearest

    fac = pa.table({
        "fid": pa.array([1, 2, 3], pa.int64()),
        "flon": pa.array([179.8, -150.0, 120.0]),
        "flat": pa.array([10.0, 10.0, -5.0]),
    })
    b = pa.table({"doc_id": pa.array(["a", "b"]),
                  "lon": pa.array([-179.9, 179.0]),
                  "lat": pa.array([10.0, 9.0])})
    exp = _haversine_bruteforce(fac, b)
    assert exp.column("fid").to_pylist() == [1, 1]
    _tables_equal(HaversineNearest(fac)(b), exp)


@pytest.mark.parametrize("nf", [1, 3000])
def test_haversine_nearest_matches_bruteforce_global(nf):
    """Queries and facilities over the whole globe, sparse and dense."""
    from greenex_py_ray.stages.geostats import HaversineNearest

    rng = np.random.default_rng(90 + nf)
    fac = pa.table({
        "fid": pa.array(rng.permutation(nf).astype(np.int64)),
        "flon": pa.array(rng.uniform(-180.0, 180.0, nf)),
        "flat": pa.array(rng.uniform(-80.0, 80.0, nf)),
    })
    b = pa.table({"doc_id": pa.array([f"d{i}" for i in range(300)]),
                  "lon": pa.array(rng.uniform(-180.0, 180.0, 300)),
                  "lat": pa.array(rng.uniform(-89.0, 89.0, 300))})
    _tables_equal(HaversineNearest(fac)(b), _haversine_bruteforce(fac, b))


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
    out = NearestImageFeature(feat)(b)

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
