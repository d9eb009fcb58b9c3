"""Accessibility parity: cell-local exact kNN vs brute force, plus the
reference's miss/rounding semantics (accessibility.py:277-320)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from greenex_py_ray.functions.joins import append_metrics
from greenex_py_ray.pipelines import accessibility
from greenex_py_ray.sources import documents as doc_src
from greenex_py_ray.state.index import GridIndex, RectIndex

# a numeric warning (e.g. casting inf to int64 in nearest()'s pass
# bound) is a defect, not noise
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _bruteforce_nearest(px, py, qx, qy, max_dist=None):
    """Reference 1-NN: the index's distance expression over every pair,
    ties to the lowest point index (argmin), misses (inf, -1)."""
    d = np.full(len(qx), np.inf)
    i = np.full(len(qx), -1, dtype=np.int64)
    if len(px) and len(qx):
        dx = qx[:, None] - px[None, :]
        dy = qy[:, None] - py[None, :]
        bf = np.sqrt(dx * dx + dy * dy)
        i = bf.argmin(axis=1)
        d = bf[np.arange(len(qx)), i]
    if max_dist is not None:
        miss = d > max_dist
        d[miss] = np.inf
        i[miss] = -1
    return d, i


def test_grid_index_nearest_matches_bruteforce():
    rng = np.random.default_rng(3)
    px = rng.uniform(0, 10000, 500)
    py = rng.uniform(0, 10000, 500)
    qx = rng.uniform(-500, 10500, 300)
    qy = rng.uniform(-500, 10500, 300)
    idx = GridIndex(px, py, cell_size=700.0)
    d, i = idx.nearest(qx, qy)
    bf = np.sqrt((qx[:, None] - px[None, :]) ** 2 + (qy[:, None] - py[None, :]) ** 2)
    exp_i = bf.argmin(axis=1)
    exp_d = bf.min(axis=1)
    assert np.allclose(d, exp_d)
    # ties are measure-zero with random doubles; indexes must agree
    assert (i == exp_i).all()


def test_grid_index_within_matches_bruteforce():
    rng = np.random.default_rng(4)
    px = rng.uniform(0, 5000, 200)
    py = rng.uniform(0, 5000, 200)
    qx = rng.uniform(0, 5000, 100)
    qy = rng.uniform(0, 5000, 100)
    qi, pj, d = GridIndex(px, py, cell_size=400.0).within(qx, qy, 600.0)
    got = set(zip(qi.tolist(), pj.tolist()))
    bf = np.sqrt((qx[:, None] - px[None, :]) ** 2 + (qy[:, None] - py[None, :]) ** 2)
    exp = set(zip(*np.nonzero(bf <= 600.0)))
    assert got == {(int(a), int(b)) for a, b in exp}


def test_grid_index_within_sorted_by_query_then_point():
    """within() returns its pairs sorted by (query, point), whatever the
    order of the query cells, with the distances of those pairs."""
    px = np.array([900.0, 10.0, 450.0, 20.0, 880.0, 30.0])
    py = np.array([900.0, 10.0, 450.0, 25.0, 910.0, 5.0])
    qx = np.array([890.0, 15.0, 460.0, 12.0])
    qy = np.array([905.0, 12.0, 440.0, 30.0])
    qi, pj, d = GridIndex(px, py, cell_size=100.0).within(qx, qy, 50.0)
    assert list(zip(qi.tolist(), pj.tolist())) == [
        (0, 0), (0, 4), (1, 1), (1, 3), (1, 5), (2, 2), (3, 1), (3, 3),
        (3, 5)]
    dx, dy = qx[qi] - px[pj], qy[qi] - py[pj]
    assert np.array_equal(d, np.sqrt(dx * dx + dy * dy))


def test_grid_index_within_skips_queries_without_coordinates():
    """A NaN or infinite query (a document with no geom span) matches
    nothing; the finite queries of the same batch keep their matches
    at their own positions."""
    rng = np.random.default_rng(6)
    px = rng.uniform(0, 2000, 100)
    py = rng.uniform(0, 2000, 100)
    qx = np.array([np.nan, 500.0, 1200.0, np.inf, 900.0])
    qy = np.array([300.0, 700.0, np.nan, 40.0, 1500.0])
    qi, pj, d = GridIndex(px, py, cell_size=250.0).within(qx, qy, 400.0)
    got = set(zip(qi.tolist(), pj.tolist()))
    with np.errstate(invalid="ignore"):
        bf = np.sqrt((qx[:, None] - px[None, :]) ** 2
                     + (qy[:, None] - py[None, :]) ** 2)
    exp = set(zip(*np.nonzero(bf <= 400.0)))
    assert got == {(int(a), int(b)) for a, b in exp}
    assert set(qi.tolist()) == {1, 4}
    dx, dy = qx[qi] - px[pj], qy[qi] - py[pj]
    assert np.array_equal(d, np.sqrt(dx * dx + dy * dy))


def test_grid_index_in_boxes_matches_bruteforce():
    rng = np.random.default_rng(7)
    px = rng.uniform(0, 5000, 300)
    py = rng.uniform(0, 5000, 300)
    x0 = rng.uniform(-500, 5000, 40)
    y0 = rng.uniform(-500, 5000, 40)
    x1 = x0 + rng.uniform(0, 900, 40)
    y1 = y0 + rng.uniform(0, 900, 40)
    x0[3] = np.nan  # a box without bounds holds nothing
    # a box whose edges pass through indexed points (closed bounds)
    x0[5], x1[5], y0[5], y1[5] = px[0], px[1] + 1.0, py[0], py[0]
    bi, pj = GridIndex(px, py, cell_size=300.0).in_boxes(x0, y0, x1, y1)
    assert (np.diff(bi) >= 0).all()
    got = set(zip(bi.tolist(), pj.tolist()))
    with np.errstate(invalid="ignore"):
        inside = ((px[None, :] >= x0[:, None]) & (px[None, :] <= x1[:, None])
                  & (py[None, :] >= y0[:, None]) & (py[None, :] <= y1[:, None]))
    exp = set(zip(*np.nonzero(inside)))
    assert got == {(int(a), int(b)) for a, b in exp}
    assert (5, 0) in got


def test_rect_index_matches_bruteforce():
    rng = np.random.default_rng(5)
    cx = rng.uniform(0, 5000, 80)
    cy = rng.uniform(0, 5000, 80)
    w = rng.uniform(50, 700, 80)
    h = rng.uniform(50, 700, 80)
    idx = RectIndex(cx - w, cy - h, cx + w, cy + h, np.arange(80))
    qx = rng.uniform(0, 5000, 200)
    qy = rng.uniform(0, 5000, 200)
    qi, rj = idx.containing(qx, qy)
    got = set(zip(qi.tolist(), rj.tolist()))
    inside = (
        (qx[:, None] >= (cx - w)[None, :]) & (qx[:, None] <= (cx + w)[None, :])
        & (qy[:, None] >= (cy - h)[None, :]) & (qy[:, None] <= (cy + h)[None, :])
    )
    exp = set(zip(*np.nonzero(inside)))
    assert got == {(int(a), int(b)) for a, b in exp}


def test_nearest_greenspace_semantics(world):
    """distance rounded to 0 decimals; miss/beyond-target → distance =
    target and flag False (accessibility.py:282,312-320)."""
    target = 400.0
    gs_t = pq.read_table(world["greenspace"])
    cent = pa.table({"gs_id": gs_t.column("gs_id"),
                     "cx": gs_t.column("centroid_x"),
                     "cy": gs_t.column("centroid_y")})
    out = append_metrics(
        doc_src.read_documents(world["documents"]),
        accessibility.nearest_greenspace_stage(
            cent, target, f"greenspace_within_{int(target)}m"),
    ).to_pandas()
    gs = gs_t.to_pandas()
    docs = doc_src.decode_geom(
        doc_src.read_documents(world["documents"])
    ).select_columns(["doc_id", "x", "y"]).to_pandas()
    merged = out.merge(docs, on="doc_id")
    assert len(merged) == len(docs)
    cx = gs["centroid_x"].to_numpy()
    cy = gs["centroid_y"].to_numpy()
    for _, row in merged.sample(50, random_state=1).iterrows():
        d = np.sqrt((row.x - cx) ** 2 + (row.y - cy) ** 2).min()
        d = round(d, 0)
        if d <= target:
            assert row[f"greenspace_within_{int(target)}m"]
            assert row["distance_to_greenspace"] == d
        else:
            assert not row[f"greenspace_within_{int(target)}m"]
            assert row["distance_to_greenspace"] == target


def test_grid_index_empty_returns_miss_fast():
    import time

    idx = GridIndex(np.array([]), np.array([]), cell_size=100.0)
    t0 = time.monotonic()
    d, i = idx.nearest(np.array([0.0, 5e6]), np.array([0.0, -3e6]))
    assert time.monotonic() - t0 < 1.0
    assert (i == -1).all() and np.isinf(d).all()


def test_grid_index_far_query_bounded_by_extent():
    import time

    idx = GridIndex(np.array([0.0]), np.array([0.0]), cell_size=10.0)
    t0 = time.monotonic()
    d, i = idx.nearest(np.array([1e6]), np.array([1e6]))
    assert time.monotonic() - t0 < 5.0
    assert i[0] == 0 and abs(d[0] - np.hypot(1e6, 1e6)) < 1e-6


def test_two_step_fca_tiny_world():
    """2SFCA on a hand-checkable layout: ratios split supply by demand
    count, scores sum ratios of in-range facilities only."""
    import ray
    import ray.data

    from greenex_py_ray.stages.access import FCA_SCALE, two_step_fca

    # facility A at (0,0) area 100, B at (1000,0) area 400
    fac = pa.table({
        "gs_id": pa.array([1, 2], pa.int64()),
        "centroid_x": [0.0, 1000.0], "centroid_y": [0.0, 0.0],
        "x0": [0.0, 0.0], "y0": [0.0, 0.0],
        "x1": [10.0, 20.0], "y1": [10.0, 20.0],
    })
    # docs: p0,p1 near A only; p2 near both; p3 near B only; p4 isolated
    poi = pa.table({
        "doc_id": pa.array(np.arange(5, dtype=np.int64)),
        "x": [10.0, 50.0, 500.0, 990.0, 5000.0],
        "y": [0.0, 0.0, 0.0, 0.0, 0.0],
    })
    out = (two_step_fca(ray.data.from_arrow(poi).repartition(2), fac,
                        radius=600.0)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # demand: A sees p0,p1,p2 (n=3); B sees p2,p3 (n=2)
    ra = 100 * FCA_SCALE // 3
    rb = 400 * FCA_SCALE // 2
    assert out.n_fac.tolist() == [1, 1, 2, 1, 0]
    assert out.access_q.tolist() == [ra, ra, ra + rb, rb, 0]


def test_e2sfca_decay_weights():
    """E2SFCA: decayed ratios and scores match a hand computation; a
    demand point past the cutoff contributes and receives nothing."""
    import ray
    import ray.data

    from greenex_py_ray.stages.access import (E2_RQ, E2_WQ,
                                              enhanced_two_step_fca)

    fac = pa.table({
        "gs_id": pa.array([1], pa.int64()),
        "centroid_x": [0.0], "centroid_y": [0.0],
        "x0": [0.0], "y0": [0.0], "x1": [20.0], "y1": [10.0],  # S=200
    })
    poi = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                    "x": [0.0, 500.0, 9000.0], "y": [0.0, 0.0, 0.0]})
    sigma, cutoff = 500.0, 1500.0
    out = (enhanced_two_step_fca(ray.data.from_arrow(poi), fac,
                                 sigma=sigma, cutoff=cutoff)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    denom = 2.0 * sigma * sigma
    w0 = round(np.exp(0.0) * E2_WQ)            # 1e6
    w1 = round(np.exp(-500.0 ** 2 / denom) * E2_WQ)
    rq = 200 * E2_RQ // (w0 + w1)
    assert out.n_fac.tolist() == [1, 1, 0]
    assert out.access_q[0] == round(w0 * float(rq) / E2_WQ)
    assert out.access_q[1] == round(w1 * float(rq) / E2_WQ)
    assert out.access_q[2] == 0


def test_shortest_distance_append_matches_bucket_join(world):
    """get_shortest_distance_greenspace's append path equals the keyed
    join of the same kernel output onto the documents: values, spans,
    column order."""
    import ray.data

    import greenex_py_ray as gx
    from greenex_py_ray import api
    from greenex_py_ray.functions.joins import bucket_join_attach
    from greenex_py_ray.stages.access import NearestGreenspace

    def table(ds):
        t = pa.concat_tables(
            list(ds.iter_batches(batch_size=None, batch_format="pyarrow")))
        return t.take(pa.compute.sort_indices(t.column("doc_id")))

    flag = "greenspace_within_300m"
    got = gx.get_shortest_distance_greenspace(
        world["documents"], world["greenspace"], target_dist=300.0)
    gs = api._dissolve_units(pq.read_table(world["greenspace"]))
    centroids = pa.table({"gs_id": gs.column("gs_id"),
                          "cx": gs.column("centroid_x"),
                          "cy": gs.column("centroid_y")})
    poi = doc_src.DecodeGeom()(pq.read_table(world["documents"]))
    metrics = NearestGreenspace(centroids, 300.0, flag_name=flag)(poi).select(
        ["doc_id", "distance_to_greenspace", flag])
    a = table(got)
    b = table(bucket_join_attach(doc_src.read_documents(world["documents"]),
                                 ray.data.from_arrow(metrics), key="doc_id"))
    assert a.num_rows == 300
    assert a.column_names == b.column_names
    assert a.equals(b)


@pytest.mark.parametrize("cell", [1.0, 50.0, 250.0, 700.0, 2000.0])
def test_grid_index_nearest_property(cell):
    """Bit-equal distances and lowest-index ties against brute force:
    duplicate points (dissolved members share a centroid), grid-aligned
    coordinates (exact ties on cell edges), queries far outside the
    extent."""
    rng = np.random.default_rng(int(cell))
    for trial in range(12):
        n = int(rng.integers(1, 150))
        px = np.round(rng.uniform(0, 3000, n) / 50.0) * 50.0
        py = np.round(rng.uniform(0, 3000, n) / 50.0) * 50.0
        dup = rng.integers(0, n, n // 3)
        px[dup], py[dup] = px[0], py[0]
        qx = np.round(rng.uniform(-1000, 4000, 200) / 25.0) * 25.0
        qy = np.round(rng.uniform(-1000, 4000, 200) / 25.0) * 25.0
        qx[:5] = [-1e5, 1e5, 1500.0, -2e4, 3e4]
        qy[:5] = [1e5, -1e5, 2e5, -3e4, 1500.0]
        d, i = GridIndex(px, py, cell_size=cell).nearest(qx, qy)
        exp_d, exp_i = _bruteforce_nearest(px, py, qx, qy)
        assert np.array_equal(d, exp_d), (cell, trial)
        assert np.array_equal(i, exp_i), (cell, trial)


def test_grid_index_nearest_small_inputs():
    one = GridIndex(np.array([10.0]), np.array([20.0]), cell_size=100.0)
    d, i = one.nearest(np.array([-5e5, 10.0, 400.0]),
                       np.array([3e5, 20.0, -90.0]))
    exp_d, exp_i = _bruteforce_nearest(np.array([10.0]), np.array([20.0]),
                                       np.array([-5e5, 10.0, 400.0]),
                                       np.array([3e5, 20.0, -90.0]))
    assert np.array_equal(d, exp_d) and (i == 0).all()
    d, i = one.nearest(np.empty(0), np.empty(0))
    assert d.shape == i.shape == (0,) and i.dtype == np.int64
    rng = np.random.default_rng(8)
    px, py = rng.uniform(0, 1000, 40), rng.uniform(0, 1000, 40)
    d, i = GridIndex(px, py, cell_size=30.0).nearest(np.array([2500.0]),
                                                     np.array([-700.0]))
    exp_d, exp_i = _bruteforce_nearest(px, py, np.array([2500.0]),
                                       np.array([-700.0]))
    assert np.array_equal(d, exp_d) and np.array_equal(i, exp_i)
    # a query without coordinates (no geom span decodes to NaN) is a
    # miss, alone or mixed into a batch, with or without max_dist
    idx = GridIndex(px, py, cell_size=30.0)
    for md in (None, 500.0):
        d, i = idx.nearest(np.array([np.nan, np.nan]),
                           np.array([np.nan, 5.0]), max_dist=md)
        assert np.isinf(d).all() and (i == -1).all()
        qx = np.array([px[3], np.nan, 200.0, np.inf])
        qy = np.array([py[3], 300.0, np.nan, 10.0])
        d, i = idx.nearest(qx, qy, max_dist=md)
        exp_d, exp_i = _bruteforce_nearest(px, py, qx[:1], qy[:1], md)
        assert d[0] == exp_d[0] and i[0] == exp_i[0]
        assert np.isinf(d[1:]).all() and (i[1:] == -1).all()


def test_nearest_greenspace_poi_without_geom_is_a_miss():
    """A PoI with no geom span (NaN x/y) gets the miss row
    (target distance, False, -1), not an error for the whole batch."""
    from greenex_py_ray.stages.access import NearestGreenspace

    centroids = pa.table({"gs_id": pa.array([7, 8], pa.int64()),
                          "cx": [100.0, 900.0], "cy": [100.0, 900.0]})
    poi = pa.table({"doc_id": ["a", "b", "c"],
                    "x": [110.0, np.nan, 5000.0],
                    "y": [100.0, np.nan, 5000.0]})
    out = NearestGreenspace(centroids, 300.0)(poi)
    assert out.column("distance_to_greenspace").to_pylist() == [10.0, 300.0,
                                                                300.0]
    assert out.column("greenspace_within_target").to_pylist() == [True,
                                                                   False,
                                                                   False]
    assert out.column("nearest_gs_id").to_pylist() == [7, -1, 8]


@pytest.mark.parametrize("max_dist", [0.0, 40.0, 333.3, 2500.0])
def test_grid_index_nearest_max_dist(max_dist):
    """Misses beyond max_dist give (inf, -1); hits equal brute force."""
    rng = np.random.default_rng(9)
    px = np.round(rng.uniform(0, 2000, 60) / 20.0) * 20.0
    py = np.round(rng.uniform(0, 2000, 60) / 20.0) * 20.0
    qx = np.concatenate([px[:10], rng.uniform(-3000, 5000, 300)])
    qy = np.concatenate([py[:10], rng.uniform(-3000, 5000, 300)])
    for cell in (25.0, 100.0, 500.0):
        d, i = GridIndex(px, py, cell_size=cell).nearest(qx, qy,
                                                         max_dist=max_dist)
        exp_d, exp_i = _bruteforce_nearest(px, py, qx, qy, max_dist)
        assert np.array_equal(d, exp_d) and np.array_equal(i, exp_i)
        miss = i == -1
        assert miss.any() and np.isinf(d[miss]).all()
        assert (d[~miss] <= max_dist).all()


def test_grid_index_nearest_runs_no_per_cell_ring_loop():
    """nearest() is exact without any per-cell bucket/ring helper:
    GridIndex has one candidate gather and none of those helpers."""
    rng = np.random.default_rng(10)
    px, py = rng.uniform(0, 5000, 100), rng.uniform(0, 5000, 100)
    qx, qy = rng.uniform(-500, 5500, 400), rng.uniform(-500, 5500, 400)
    assert [name for name in vars(GridIndex)
            if "ring" in name or "bucket" in name or "group" in name] == []
    d, i = GridIndex(px, py, cell_size=300.0).nearest(qx, qy)
    exp_d, exp_i = _bruteforce_nearest(px, py, qx, qy)
    assert np.array_equal(d, exp_d) and np.array_equal(i, exp_i)
