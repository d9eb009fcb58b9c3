"""Polygon-AoI zonal statistics as one kernel per row: each document
gets its own polygon's value, and the public API runs one read with no
exchange."""

import logging

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd

import greenex_py_ray as gx
from greenex_py_ray.sources import synth
from test_polygon_poi_api import _docs_table, _rect_docs, _rect_pix_vals
from test_zonal_pipeline import _operator_names, _table


def _rect_wkt(x0, y0, x1, y1):
    return (f"POLYGON(({x0!r} {y0!r}, {x1!r} {y0!r}, {x1!r} {y1!r}, "
            f"{x0!r} {y1!r}, {x0!r} {y0!r}))")


def test_shared_doc_id_rows_get_their_own_polygon(world):
    """Two documents with the same doc_id and different rects each get
    their own rect's closed-form mean/std, in input order."""
    rects = [(4100.0, 5200.0, 4460.0, 5390.0),
             (12050.0, 8800.0, 12300.0, 9310.0)]
    tbl = _docs_table(["dup", "dup"], [_rect_wkt(*r) for r in rects])
    out = _table(gx.get_mean_NDVI(rd.from_arrow(tbl), world["tiles"],
                                  buffer_type=None))
    assert out.num_rows == 2
    got = {s[0]["text"]: (m, sd) for s, m, sd in zip(
        out.column("spans").to_pylist(), out.column("mean_NDVI").to_pylist(),
        out.column("std_NDVI").to_pylist())}
    for r in rects:
        vals = np.maximum(synth.field_ndvi(*_rect_pix_vals(*r)), 0.0)
        assert got[_rect_wkt(*r)] == (round(vals.mean(), 3),
                                      round(vals.std(), 3)), r


def test_polygon_api_plan_is_one_read_no_exchange(world, tmp_path):
    """Polygon get_mean_NDVI and get_landcover_percentages on a
    documents path: one ReadDocuments, no all-to-all, union or join, and
    no schema-mismatch warning."""
    tbl, _ = _rect_docs(n=12, seed=5)
    path = str(tmp_path / "rects.parquet")
    pq.write_table(tbl, path)
    warnings = []

    class Collect(logging.Handler):
        def emit(self, record):
            warnings.append(record.getMessage())

    handler = Collect(level=logging.WARNING)
    logger = logging.getLogger("ray.data")
    logger.addHandler(handler)
    exchange = ("Sort", "Aggregate", "MapGroups", "Repartition", "Shuffle",
                "Union", "Join")
    try:
        for ds in (gx.get_mean_NDVI(path, world["tiles"], buffer_type=None),
                   gx.get_landcover_percentages(path, world["tiles"],
                                                buffer_type=None)):
            assert _table(ds).num_rows == 12
            names = _operator_names(ds)
            assert sum("ReadDocuments" in n for n in names) == 1, names
            assert not [n for n in names
                        if any(k in n for k in exchange)], names
    finally:
        logger.removeHandler(handler)
    assert not [m for m in warnings if "different schema" in m]


def test_document_without_geometry_gets_a_nan_row(world):
    """A document with no geom span decodes to an empty ring: it keeps
    its row with NaN statistics, and the polygon next to it is
    unaffected."""
    rect = (6100.0, 7200.0, 6420.0, 7480.0)
    tbl = _docs_table(["poly", "none"], [_rect_wkt(*rect), "unused"])
    spans = tbl.column("spans").to_pylist()
    spans[1] = [dict(spans[1][0], kind="text", text="no geometry")]
    tbl = tbl.set_column(1, "spans",
                         pa.array(spans, tbl.schema.field("spans").type))
    out = _table(gx.get_mean_NDVI(rd.from_arrow(tbl), world["tiles"],
                                  buffer_type=None)).to_pandas()
    out = out.set_index("doc_id")
    vals = np.maximum(synth.field_ndvi(*_rect_pix_vals(*rect)), 0.0)
    assert out.loc["poly", "mean_NDVI"] == round(vals.mean(), 3)
    assert np.isnan(out.loc["none", "mean_NDVI"])
    assert np.isnan(out.loc["none", "std_NDVI"])
