"""Viewshed kernel parity vs a straight-line reimplementation of the
reference's loops (visibility.py:460-564), including the argument-swap
quirk and the asymmetric [r-R:r+R) GVI windows."""

import numpy as np

from greenex_py_ray.state.viewshed import (
    ViewshedKernel,
    circle_perimeter_offsets,
    line_offsets,
)


def oracle_line(r0, c0, r1, c1):
    """skimage.draw.line algorithm, straight Python port."""
    r, c = r0, c0
    dr, dc = abs(r1 - r0), abs(c1 - c0)
    sr = 1 if (r1 - r) > 0 else -1
    sc = 1 if (c1 - c) > 0 else -1
    steep = dr > dc
    if steep:
        r, c = c, r
        dr, dc = dc, dr
        sr, sc = sc, sr
    d = (2 * dr) - dc
    pts = []
    for _ in range(dc):
        pts.append((c, r) if steep else (r, c))
        while d >= 0:
            r += sr
            d -= 2 * dc
        c += sc
        d += 2 * dr
    pts.append((r1, c1))
    return pts


def oracle_viewshed(r0, c0, radius_px, resolution, observer_height, dsm, dtm):
    """Reference viewshed with the :475 argument swap: lineOfSight
    receives (resolution, observerHeight) into (observer_height,
    resolution)."""
    out = np.zeros(dtm.shape)
    out[r0, c0] = 1
    swapped_observer = resolution
    swapped_resolution = observer_height
    for dr, dc in circle_perimeter_offsets(radius_px):
        pixels = oracle_line(r0, c0, r0 + int(dr), c0 + int(dc))[1:]
        max_dydx = 0.0
        height0 = dtm[r0, c0] + swapped_observer
        for r, c in pixels:
            dist = np.hypot(c0 - c, r0 - r)
            cur = (dsm[r, c] - height0) / (dist * swapped_resolution)
            if cur > max_dydx:
                max_dydx = cur
                out[r, c] = 1
    return out


def test_line_offsets_match_oracle():
    for r1, c1 in [(5, 2), (-3, 7), (0, 4), (6, 0), (-5, -5), (2, -6)]:
        got = line_offsets(r1, c1).tolist()
        exp = [list(p) for p in oracle_line(0, 0, r1, c1)[1:]]
        assert got == exp, (r1, c1, got, exp)


def test_viewshed_matches_oracle():
    rng = np.random.default_rng(21)
    R = 12
    n = 2 * R + 1
    dtm = rng.uniform(0, 5, (n, n))
    dsm = dtm + np.where(rng.random((n, n)) < 0.2, rng.uniform(3, 15, (n, n)), 0.0)
    kern = ViewshedKernel(R, resolution=10.0, observer_height=1.7)
    got = kern.viewshed(dsm, dtm)
    exp = oracle_viewshed(R, R, R, 10.0, 1.7, dsm, dtm).astype(bool)
    assert np.array_equal(got, exp)


def test_gvi_matches_oracle():
    rng = np.random.default_rng(22)
    R = 10
    n = 2 * R + 1
    dtm = rng.uniform(0, 3, (n, n))
    dsm = dtm + np.where(rng.random((n, n)) < 0.25, rng.uniform(2, 12, (n, n)), 0.0)
    green = (rng.random((n, n)) < 0.4).astype(float)
    res = 10.0
    kern = ViewshedKernel(R, resolution=res, observer_height=1.7)
    got = kern.gvi(dsm, dtm, green)

    # oracle GVI (visibility.py:531-561)
    out = oracle_viewshed(R, R, R, res, 1.7, dsm, dtm)
    w = np.zeros((2 * R, 2 * R))
    for r in range(2 * R):
        for c in range(2 * R):
            d = np.hypot(R - c, R - r)
            if d <= R:
                w[r, c] = np.exp(-0.0003 * d * res)
    visible = out[0 : 2 * R, 0 : 2 * R] * w
    visible_green = visible * (green[0 : 2 * R, 0 : 2 * R] * w)
    exp = visible_green.sum() / visible.sum()
    assert abs(got - exp) < 1e-12


def test_viewshed_pipeline_smoke(world):
    import pyarrow.dataset as pads

    from greenex_py_ray.functions.joins import drop_zero_count
    from greenex_py_ray.pipelines import visibility as vpipe
    from greenex_py_ray.sources import documents as doc_src

    poi = doc_src.decode_geom(doc_src.read_documents(
        world["documents"])).select_columns(["doc_id", "x", "y"])
    rollup = drop_zero_count(vpipe.viewshed_stage(
        world["network_nodes"], world["network_edges"], world["tiles"],
        buffer_dist=100.0, viewing_dist=150.0, sample_dist=50.0,
    ).on(poi), "nr_of_points")
    df = rollup.to_pandas()
    n_docs = pads.dataset(world["documents"]).count_rows()
    assert 0 < len(df) <= n_docs
    assert set(df.columns) == {"doc_id", "GVI", "nr_of_points"}
    ok = df["GVI"].dropna()
    assert ((ok >= 0) & (ok <= 1)).all()
    assert (df["nr_of_points"] > 0).all()


def test_streetview_pipeline_smoke(world):
    from greenex_py_ray.pipelines import visibility as vpipe
    from greenex_py_ray.sources import documents as doc_src

    poi = doc_src.decode_geom(doc_src.read_documents(
        world["documents"])).select_columns(["doc_id", "x", "y"])
    rollup = vpipe.keep_sampled(vpipe.streetview_stage(
        world["network_nodes"], world["network_edges"],
        world["image_features"], buffer_dist=100.0,
    ).on(poi))
    df = rollup.to_pandas()
    assert len(df) > 0
    ok = df["GVI"].dropna()
    assert ((ok >= 0) & (ok <= 1)).all()


def test_fake_segmentation_distinct_per_image():
    from greenex_py_ray.stages.visibility import FakeSegmentation

    m = FakeSegmentation()
    segs = [m.segment(f"img-{i:08d}") for i in range(50)]  # shared prefix
    assert len({s.tobytes() for s in segs}) == len(segs)
    for s in segs:
        assert s.shape == (m.H, m.W)


def test_polyline_edge_sampling():
    """Curved-edge support: sample points follow the true polyline
    (visibility.py:581-586,633-641), not the node-to-node chord."""
    import pyarrow as pa

    from greenex_py_ray import geom
    from greenex_py_ray.stages.visibility import (
        SamplePointsViewshed,
        streetview_sample_batch,
    )

    # L-shaped 3-vertex edge: (0,0)→(100,0)→(100,100), length 200
    g = np.array([[0.0, 0.0], [100.0, 0.0], [100.0, 100.0]])
    edges = pa.table({
        "ax": pa.array([0.0]), "ay": pa.array([0.0]),
        "bx": pa.array([100.0]), "by": pa.array([100.0]),
        "length": pa.array([200.0]),
        "geom_x": pa.array([g[:, 0].tolist()], pa.list_(pa.float64())),
        "geom_y": pa.array([g[:, 1].tolist()], pa.list_(pa.float64())),
    })
    # streetview: ds = 0, 50, 100, 150 → (0,0),(50,0),(100,0),(100,50)
    pts = streetview_sample_batch(edges, 50.0).to_pandas()
    got = sorted(map(tuple, pts[["sp_x", "sp_y"]].to_numpy()))
    assert got == [(0.0, 0.0), (50.0, 0.0), (100.0, 0.0), (100.0, 50.0)]

    # viewshed sampling: PoI at the bend; chord midpoint (50,50) is
    # 70.7 m from the corner, the polyline passes through it exactly
    sp = SamplePointsViewshed(edges, buffer_dist=30.0, sample_dist=100.0,
                              key_col="doc_id")
    batch = pa.table({"doc_id": pa.array([7], pa.int64()),
                      "x": pa.array([100.0]), "y": pa.array([0.0])})
    out = sp(batch).to_pandas()
    # n = int(200/100)+1 = 3 → arc distances 0, 100, 200
    exp = geom.interpolate_along(g, np.array([0.0, 100.0, 200.0]))
    assert len(out) == 3
    assert np.allclose(np.sort(out["sp_x"].to_numpy()), np.sort(exp[:, 0]))
    assert np.allclose(np.sort(out["sp_y"].to_numpy()), np.sort(exp[:, 1]))


def test_polyline_candidate_pruning_uses_true_geometry():
    """An edge whose polyline bends INTO the buffer must be sampled even
    though its straight chord stays outside."""
    import pyarrow as pa

    from greenex_py_ray.stages.visibility import SamplePointsViewshed

    # chord from (0,0) to (200,0); polyline detours through (100,90)
    edges = pa.table({
        "ax": pa.array([0.0]), "ay": pa.array([0.0]),
        "bx": pa.array([200.0]), "by": pa.array([0.0]),
        "length": pa.array([300.0]),
        "geom_x": pa.array([[0.0, 100.0, 200.0]], pa.list_(pa.float64())),
        "geom_y": pa.array([[0.0, 90.0, 0.0]], pa.list_(pa.float64())),
    })
    sp = SamplePointsViewshed(edges, buffer_dist=20.0, sample_dist=1000.0,
                              key_col="doc_id")
    batch = pa.table({"doc_id": pa.array([1], pa.int64()),
                      "x": pa.array([100.0]), "y": pa.array([100.0])})
    out = sp(batch).to_pandas()
    assert len(out) == 1  # short-edge midpoint rule (length < sample_dist)
