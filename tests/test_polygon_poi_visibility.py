"""Polygon-PoI (``polygon_type``) dispatch for the two visibility
functions (visibility.py:59-99 viewshed, :305-344 streetview):

* ``'house'`` — centroids, then the point path (:82-84, :328-330);
* ``'neighbourhood'`` — the PoI's own polygon (optionally dilated by
  ``buffer_dist``) selects the network edges / sample points
  (:568-572 ``network_edges.intersects(...)``, :653-660
  ``select_points_within_buffers``).

Rect PoIs keep every membership predicate closed-form."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

import greenex_py_ray as gx
from greenex_py_ray import geom
from greenex_py_ray.sources.synth import DOC_SCHEMA, SPAN_TYPE


def _docs_table(ids, wkts):
    rows = [[{"kind": "geom", "text": w, "media_ref": "", "offset": 0}]
            for w in wkts]
    return pa.table(
        {"doc_id": pa.array(ids, pa.string()),
         "spans": pa.array(rows, pa.list_(SPAN_TYPE))},
        schema=DOC_SCHEMA,
    )


def _rect_docs(n=6, seed=77, lo=3000, hi=17000):
    rng = np.random.default_rng(seed)
    cx = rng.uniform(lo, hi, n)
    cy = rng.uniform(lo, hi, n)
    hw = rng.uniform(80, 400, n)
    hh = rng.uniform(80, 400, n)
    x0, y0, x1, y1 = cx - hw, cy - hh, cx + hw, cy + hh
    wkts = [
        f"POLYGON(({x0[i]!r} {y0[i]!r}, {x1[i]!r} {y0[i]!r}, "
        f"{x1[i]!r} {y1[i]!r}, {x0[i]!r} {y1[i]!r}, {x0[i]!r} {y0[i]!r}))"
        for i in range(n)
    ]
    tbl = _docs_table([f"r{i}" for i in range(n)], wkts)
    return tbl, np.column_stack([x0, y0, x1, y1])


def _rect_rings(x0, y0, x1, y1):
    return [np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])]


def _d_point_rect(px, py, x0, y0, x1, y1):
    dx = np.maximum(np.maximum(x0 - px, px - x1), 0.0)
    dy = np.maximum(np.maximum(y0 - py, py - y1), 0.0)
    return np.hypot(dx, dy)


# ---------------------------------------------------------------- kernels


def test_points_within_rings_dist_matches_rect_closed_form():
    rng = np.random.default_rng(3)
    x0, y0, x1, y1 = 100.0, 200.0, 400.0, 350.0
    px = rng.uniform(0, 500, 4000)
    py = rng.uniform(100, 450, 4000)
    for d in (0.0, 60.0):
        got = geom.points_within_rings_dist(
            px, py, _rect_rings(x0, y0, x1, y1), d)
        exp = _d_point_rect(px, py, x0, y0, x1, y1) <= d
        # skip knife-edge points (float ties at the boundary)
        dist = _d_point_rect(px, py, x0, y0, x1, y1)
        safe = np.abs(dist - d) > 1e-9
        assert (got == exp)[safe].all()


def test_points_within_rings_dist_hole():
    # 0..10 square with a 4..6 hole (even-odd): hole interior is
    # outside the polygon but within dist of the hole boundary
    rings = [np.array([[0.0, 0], [10, 0], [10, 10], [0, 10]]),
             np.array([[4.0, 4], [6, 4], [6, 6], [4, 6]])]
    px = np.array([5.0, 5.0, 2.0, 11.0])
    py = np.array([5.0, 5.0, 2.0, 5.0])
    assert list(geom.points_within_rings_dist(px, py, rings, 0.0)) == [
        False, False, True, False]
    # center of the hole is 1.0 from the hole edge
    assert list(geom.points_within_rings_dist(px, py, rings, 1.5)) == [
        True, True, True, True]


def test_segments_within_rings_dist_matches_dense_sampling():
    rng = np.random.default_rng(11)
    x0, y0, x1, y1 = 100.0, 200.0, 400.0, 350.0
    rings = _rect_rings(x0, y0, x1, y1)
    n = 300
    ax = rng.uniform(0, 500, n)
    ay = rng.uniform(100, 450, n)
    bx = ax + rng.uniform(-150, 150, n)
    by = ay + rng.uniform(-150, 150, n)
    t = np.linspace(0, 1, 2001)
    for d in (0.0, 40.0):
        got = geom.segments_within_rings_dist(ax, ay, bx, by, rings, d)
        sx = ax[:, None] + t[None, :] * (bx - ax)[:, None]
        sy = ay[:, None] + t[None, :] * (by - ay)[:, None]
        dist = _d_point_rect(sx, sy, x0, y0, x1, y1).min(axis=1)
        safe = np.abs(dist - d) > 0.5  # dense sampling is approximate
        assert (got == (dist <= d))[safe].all()


def test_segments_within_rings_collinear_disjoint():
    # collinear with the rect's bottom edge (y=200) but 600 m away:
    # all four orientation products are 0, yet shapely intersects()
    # is False — the straddle test alone would false-positive
    rings = _rect_rings(100.0, 200.0, 400.0, 350.0)
    ax, ay = np.array([1000.0]), np.array([200.0])
    bx, by = np.array([1100.0]), np.array([200.0])
    assert not geom.segments_within_rings_dist(ax, ay, bx, by, rings, 0.0)[0]
    # collinear AND overlapping → touches → intersects
    ax2, bx2 = np.array([350.0]), np.array([500.0])
    assert geom.segments_within_rings_dist(
        ax2, ay, bx2, by, rings, 0.0)[0]


# ----------------------------------------------------------------- stages


def _edge_table(seed=5, n=60):
    rng = np.random.default_rng(seed)
    ax = rng.uniform(0, 2000, n)
    ay = rng.uniform(0, 2000, n)
    bx = ax + rng.uniform(-300, 300, n)
    by = ay + rng.uniform(-300, 300, n)
    return pa.table({
        "ax": ax, "ay": ay, "bx": bx, "by": by,
        "length": np.hypot(bx - ax, by - ay),
    })


def test_sample_points_viewshed_polygon_edge_selection():
    import ray

    from greenex_py_ray.stages import visibility as vis

    edges = _edge_table()
    x0, y0, x1, y1 = 600.0, 500.0, 1400.0, 1300.0
    rings = _rect_rings(x0, y0, x1, y1)
    for d in (0.0, 120.0):
        stage = vis.SamplePointsViewshedPolygon(
            ray.put(edges), buffer_dist=d or None, sample_dist=50.0)
        ring = rings[0]
        batch = pa.table({
            "doc_id": pa.array(["p0"]),
            "ring_x": pa.array([ring[:, 0].tolist()],
                               pa.list_(pa.float64())),
            "ring_y": pa.array([ring[:, 1].tolist()],
                               pa.list_(pa.float64())),
            "ring_sizes": pa.array([[4]], pa.list_(pa.int32())),
        })
        out = stage(batch)
        # expected edges via the independently-tested kernel
        ax = edges.column("ax").to_numpy()
        ay = edges.column("ay").to_numpy()
        bx = edges.column("bx").to_numpy()
        by = edges.column("by").to_numpy()
        keep = geom.segments_within_rings_dist(ax, ay, bx, by, rings, d)
        # expected sample count per kept edge (visibility.py:584-589)
        L = np.hypot(bx - ax, by - ay)[keep]
        n_exp = int(np.where(L < 50.0, 1, (L / 50.0).astype(int) + 1).sum())
        assert len(out) == n_exp
        sx = out.column("sp_x").to_numpy()
        sy = out.column("sp_y").to_numpy()
        # every sample point lies on a kept edge's segment
        d2 = geom._point_seg_d2(sx, sy, ax[keep], ay[keep],
                                bx[keep], by[keep])
        assert (d2.min(axis=1) < 1e-12).all()


def test_streetview_polygon_membership_matches_bruteforce(world):
    """Polygon PoIs: the per-point rows of each rect are exactly the
    deduplicated network sample points within ``d`` of it (closed-form
    point↔rect distance); overlapping rects share points."""
    from greenex_py_ray.stages import visibility as vis

    rects = np.array([[100.0, 100, 500, 400],
                      [400.0, 300, 900, 700]])  # overlapping pair
    rows = []
    for i, (x0, y0, x1, y1) in enumerate(rects):
        ring = _rect_rings(x0, y0, x1, y1)[0]
        rows.append((f"p{i}", ring[:, 0].tolist(), ring[:, 1].tolist(), [4]))
    poly = pa.table({
        "doc_id": pa.array([r[0] for r in rows]),
        "ring_x": pa.array([r[1] for r in rows], pa.list_(pa.float64())),
        "ring_y": pa.array([r[2] for r in rows], pa.list_(pa.float64())),
        "ring_sizes": pa.array([r[3] for r in rows], pa.list_(pa.int32())),
    })
    d = 50.0
    kernel = vis.StreetviewPoI(world["network_nodes"], world["network_edges"],
                               world["image_features"], buffer_dist=d,
                               poi_kind="polygon", per_point=True)
    out = kernel(poly)
    got = set(zip(out.column("doc_id").to_pylist(),
                  out.column("sp_x").to_pylist(),
                  out.column("sp_y").to_pylist()))
    assert len(got) == out.num_rows
    pts = vis.streetview_sample_batch(vis.edge_coords_table(
        world["network_nodes"], world["network_edges"]), 50.0)
    xy = np.unique(np.column_stack([pts.column("sp_x").to_numpy(),
                                    pts.column("sp_y").to_numpy()]), axis=0)
    exp = {(f"p{i}", x, y) for i, r in enumerate(rects)
           for x, y in xy[_d_point_rect(xy[:, 0], xy[:, 1], *r) <= d]}
    assert got == exp
    shared = ({(x, y) for k, x, y in got if k == "p0"}
              & {(x, y) for k, x, y in got if k == "p1"})
    assert shared and len(got) > len(shared)


# -------------------------------------------------------------------- API


def test_viewshed_polygon_house_equals_point(world):
    tbl, R = _rect_docs(n=5, seed=101)
    cx = (R[:, 0] + R[:, 2]) / 2.0
    cy = (R[:, 1] + R[:, 3]) / 2.0
    pts = _docs_table([f"r{i}" for i in range(len(R))],
                      [f"POINT({cx[i]!r} {cy[i]!r})" for i in range(len(R))])
    kw = dict(buffer_dist=100.0, viewing_dist=150.0, sample_dist=50.0)
    house, _ = gx.get_viewshed_GVI(
        rd.from_arrow(tbl), world["tiles"], world["network_nodes"],
        world["network_edges"], polygon_type="house", **kw)
    point, _ = gx.get_viewshed_GVI(
        rd.from_arrow(pts), world["tiles"], world["network_nodes"],
        world["network_edges"], **kw)
    cols = ["doc_id", "GVI", "nr_of_points"]
    h = house.to_pandas()[cols].sort_values("doc_id").reset_index(drop=True)
    p = point.to_pandas()[cols].sort_values("doc_id").reset_index(drop=True)
    assert h.equals(p)


def test_viewshed_polygon_neighbourhood_smoke(world):
    tbl, R = _rect_docs(n=5, seed=55, lo=4000, hi=12000)
    for bd in (None, 100.0):
        rollup, per_point = gx.get_viewshed_GVI(
            rd.from_arrow(tbl), world["tiles"], world["network_nodes"],
            world["network_edges"], buffer_dist=bd, viewing_dist=150.0,
            sample_dist=50.0)
        df = rollup.to_pandas()
        assert len(df) == len(R)
        ok = df["GVI"].dropna()
        assert ((ok >= 0) & (ok <= 1)).all()


def test_streetview_polygon_house_equals_point(world):
    tbl, R = _rect_docs(n=5, seed=23)
    cx = (R[:, 0] + R[:, 2]) / 2.0
    cy = (R[:, 1] + R[:, 3]) / 2.0
    pts = _docs_table([f"r{i}" for i in range(len(R))],
                      [f"POINT({cx[i]!r} {cy[i]!r})" for i in range(len(R))])
    kw = dict(buffer_dist=150.0)
    house, _ = gx.get_streetview_GVI(
        rd.from_arrow(tbl), world["network_nodes"], world["network_edges"],
        world["image_features"], polygon_type="house", **kw)
    point, _ = gx.get_streetview_GVI(
        rd.from_arrow(pts), world["network_nodes"], world["network_edges"],
        world["image_features"], **kw)
    cols = ["doc_id", "GVI", "nr_of_points"]
    h = house.to_pandas()[cols].sort_values("doc_id").reset_index(drop=True)
    p = point.to_pandas()[cols].sort_values("doc_id").reset_index(drop=True)
    assert h.equals(p)


def test_streetview_polygon_neighbourhood_smoke(world):
    tbl, _ = _rect_docs(n=5, seed=31, lo=4000, hi=12000)
    rollup, per_point = gx.get_streetview_GVI(
        rd.from_arrow(tbl), world["network_nodes"], world["network_edges"],
        world["image_features"], buffer_dist=None)
    df = rollup.to_pandas()
    assert len(df) == 5
    ok = df["GVI"].dropna()
    assert ((ok >= 0) & (ok <= 1)).all()


def test_visibility_polygon_dispatch_validation(world):
    tbl, _ = _rect_docs(n=2, seed=1)
    pts = _docs_table(["a"], ["POINT(5000 5000)"])
    args = (world["tiles"], world["network_nodes"], world["network_edges"])
    with pytest.raises(ValueError):
        gx.get_viewshed_GVI(rd.from_arrow(tbl), *args, polygon_type="bogus")
    with pytest.raises(ValueError):  # house centroids are points
        gx.get_viewshed_GVI(rd.from_arrow(tbl), *args,
                            polygon_type="house", buffer_dist=None)
    with pytest.raises(ValueError):  # point PoIs need a buffer_dist
        gx.get_viewshed_GVI(rd.from_arrow(pts), *args, buffer_dist=None)
    with pytest.raises(ValueError):
        gx.get_streetview_GVI(rd.from_arrow(pts), world["network_nodes"],
                              world["network_edges"],
                              world["image_features"], buffer_dist=-5.0)


def test_gvi_rollup_attach_logs_no_schema_warning(world):
    """The GVI rollups are kernel columns appended to each document
    batch (no keyed attach); Ray logs no schema-mismatch warning for
    either function."""
    import logging

    warnings = []

    class Collect(logging.Handler):
        def emit(self, record):
            warnings.append(record.getMessage())

    _, R = _rect_docs(n=4, seed=101)
    cx = (R[:, 0] + R[:, 2]) / 2.0
    cy = (R[:, 1] + R[:, 3]) / 2.0
    pts = _docs_table([f"r{i}" for i in range(len(R))],
                      [f"POINT({cx[i]!r} {cy[i]!r})" for i in range(len(R))])
    handler = Collect(level=logging.WARNING)
    logger = logging.getLogger("ray.data")
    logger.addHandler(handler)
    try:
        view, _ = gx.get_viewshed_GVI(
            rd.from_arrow(pts), world["tiles"], world["network_nodes"],
            world["network_edges"], buffer_dist=100.0, viewing_dist=150.0,
            sample_dist=50.0)
        street, _ = gx.get_streetview_GVI(
            rd.from_arrow(pts), world["network_nodes"],
            world["network_edges"], world["image_features"],
            buffer_dist=150.0)
        assert view.count() == len(R)
        assert street.count() == len(R)
    finally:
        logger.removeHandler(handler)
    assert not [m for m in warnings if "different schema" in m]
