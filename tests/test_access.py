"""Accessibility parity: cell-local exact kNN vs brute force, plus the
reference's miss/rounding semantics (accessibility.py:277-320)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from greenex_py_ray.pipelines import accessibility
from greenex_py_ray.sources import documents as doc_src
from greenex_py_ray.state.index import GridIndex, RectIndex


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


def test_rect_index_matches_bruteforce():
    rng = np.random.default_rng(5)
    cx = rng.uniform(0, 5000, 80)
    cy = rng.uniform(0, 5000, 80)
    w = rng.uniform(50, 700, 80)
    h = rng.uniform(50, 700, 80)
    idx = RectIndex(cx - w, cy - h, cx + w, cy + h, np.arange(80), cell_size=800.0)
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
    out = accessibility.get_shortest_distance_greenspace_documents(
        world["documents"], world["greenspace"], target_dist=target, concurrency=2
    ).to_pandas()
    gs = pq.read_table(world["greenspace"]).to_pandas()
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
