"""Polygon-PoI support: M3 centroid decode + polygon-AoI zonal stats."""

import numpy as np
import pyarrow as pa

import ray.data as rd

from greenex_py_ray import geom
from greenex_py_ray.pipelines import availability
from greenex_py_ray.sources import documents as doc_src
from greenex_py_ray.sources import synth
from greenex_py_ray.sources.synth import DOC_SCHEMA, SPAN_TYPE


def _poly_docs(n=25, seed=9):
    rng = np.random.default_rng(seed)
    rows = []
    rings = []
    for i in range(n):
        cx, cy = rng.uniform(2000, 18000, 2)
        k = int(rng.integers(4, 8))
        ang = np.sort(rng.uniform(0, 2 * np.pi, k))
        rad = rng.uniform(100, 600)
        ring = np.column_stack((cx + rad * np.cos(ang), cy + rad * np.sin(ang)))
        rings.append(ring)
        wkt = "POLYGON((" + ", ".join(f"{p[0]!r} {p[1]!r}" for p in ring) + "))"
        rows.append([{"kind": "geom", "text": wkt, "media_ref": "", "offset": 0}])
    tbl = pa.table(
        {"doc_id": pa.array([f"p{i}" for i in range(n)], pa.string()),
         "spans": pa.array(rows, pa.list_(SPAN_TYPE))},
        schema=DOC_SCHEMA,
    )
    return tbl, rings


def test_polygon_decode_centroid():
    tbl, rings = _poly_docs()
    ds = rd.from_arrow(tbl).map_batches(
        doc_src.DecodeGeom(parse_polygons=True), batch_format="pyarrow"
    )
    df = ds.to_pandas().set_index("doc_id")
    for i, ring in enumerate(rings):
        cx, cy = geom.polygon_centroid(ring)
        row = df.loc[f"p{i}"]
        assert abs(row.x - cx) < 1e-9 and abs(row.y - cy) < 1e-9
        assert row.geom_kind == "POLYGON"
        assert np.allclose(np.asarray(row.ring_x), ring[:, 0])


def test_polygon_aoi_zonal_parity(world):
    tbl, rings = _poly_docs()
    ds = rd.from_arrow(tbl).map_batches(
        doc_src.DecodeGeom(parse_polygons=True), batch_format="pyarrow"
    )
    out = availability.mean_ndvi_polygon_stage(
        world["tiles"]
    ).on(ds).to_pandas().set_index("doc_id")
    res = synth.RASTER_RES
    for i, ring in enumerate(rings):
        bx0, by0, bx1, by1 = geom.rings_bbox(ring)
        c0 = int(np.floor(bx0 / res))
        c1 = int(np.floor(bx1 / res))
        r0 = int(np.floor(by0 / res))
        r1 = int(np.floor(by1 / res))
        px = (np.arange(c0, c1 + 1, dtype=np.float64) + 0.5) * res
        py = (np.arange(r0, r1 + 1, dtype=np.float64) + 0.5) * res
        gx, gy = np.meshgrid(px, py, indexing="xy")
        mask = geom.points_in_polygon(gx.ravel(), gy.ravel(), ring)
        vals = np.maximum(synth.field_ndvi(gx.ravel()[mask], gy.ravel()[mask]), 0.0)
        row = out.loc[f"p{i}"]
        assert row["mean_NDVI"] == round(vals.mean(), 3), (i, row["mean_NDVI"], vals.mean())
        assert row["std_NDVI"] == round(vals.std(), 3)


def test_multipolygon_holes_wkt_decode():
    wkt = ("MULTIPOLYGON(((0 0, 4 0, 4 4, 0 4, 0 0),"
           "(1 1, 3 1, 3 3, 1 3, 1 1)),"
           "((10 0, 12 0, 12 2, 10 2, 10 0)))")
    x, y, kinds, rings = geom.parse_wkt_geoms([wkt])
    assert kinds == ["MULTIPOLYGON"]
    assert len(rings[0]) == 3
    # areas: 16 - 4 (hole) + 4 = 16 ; centroid = (2,2)*12/16 + (11,1)*4/16
    area, cx, cy = geom.overlay_moments([rings[0]], "union")
    assert abs(area - 16.0) < 1e-9
    assert abs(x[0] - (2 * 12 + 11 * 4) / 16) < 1e-9
    assert abs(y[0] - (2 * 12 + 1 * 4) / 16) < 1e-9


def test_multipolygon_zonal_even_odd(world):
    """Polygon-AoI zonal over a polygon WITH A HOLE: hole pixels must be
    excluded (even-odd)."""
    outer = np.array([[4000, 4000], [5200, 4000], [5200, 5200], [4000, 5200]], float)
    hole = np.array([[4400, 4400], [4800, 4400], [4800, 4800], [4400, 4800]], float)
    def ring_wkt(r):
        return "(" + ", ".join(f"{p[0]!r} {p[1]!r}" for p in r) + ")"
    wkt = f"POLYGON({ring_wkt(outer)}, {ring_wkt(hole)})"
    rows = [[{"kind": "geom", "text": wkt, "media_ref": "", "offset": 0}]]
    tbl = pa.table(
        {"doc_id": pa.array(["h0"], pa.string()),
         "spans": pa.array(rows, pa.list_(SPAN_TYPE))},
        schema=DOC_SCHEMA,
    )
    ds = rd.from_arrow(tbl).map_batches(
        doc_src.DecodeGeom(parse_polygons=True), batch_format="pyarrow"
    )
    out = availability.mean_ndvi_polygon_stage(
        world["tiles"]
    ).on(ds).to_pandas().set_index("doc_id")
    res = synth.RASTER_RES
    c0 = int(np.floor(4000 / res)); c1 = int(np.floor(5200 / res))
    px = (np.arange(c0, c1 + 1, dtype=np.float64) + 0.5) * res
    gx, gy = np.meshgrid(px, px, indexing="xy")
    mask = geom.points_in_rings(gx.ravel(), gy.ravel(), [outer, hole])
    vals = np.maximum(synth.field_ndvi(gx.ravel()[mask], gy.ravel()[mask]), 0.0)
    row = out.loc["h0"]
    assert row["mean_NDVI"] == round(vals.mean(), 3)
    assert row["std_NDVI"] == round(vals.std(), 3)
