"""Tests for the STAC lowest-cloud selector (SURVEY A9) and the Leaflet
map writer (SURVEY S15) — the reference's planetary-computer item
selection (availability.py:157-175) and folium plotter
(accessibility.py:186-220) equivalents."""

import json

import numpy as np
import pyarrow as pa
import pytest

import ray

from greenex_py_ray import plotmap
from greenex_py_ray.stages.stac import LowestCloudSelector


def _catalog(n=40, seed=3):
    rng = np.random.RandomState(seed)
    cx, cy = rng.uniform(0, 1000, n), rng.uniform(0, 1000, n)
    hw, hh = rng.uniform(100, 600, n), rng.uniform(100, 600, n)
    # quantized so ties happen (exercises the iloc[0] tie-break)
    cloud = np.round(rng.uniform(0, 40, n), 0)
    return pa.table({
        "item_id": pa.array(np.arange(n, dtype=np.int64)),
        "x0": pa.array(cx - hw), "y0": pa.array(cy - hh),
        "x1": pa.array(cx + hw), "y1": pa.array(cy + hh),
        "cloud_cover": pa.array(cloud),
    })


def _aois(m=60, seed=5):
    rng = np.random.RandomState(seed)
    ax, ay = rng.uniform(0, 1000, m), rng.uniform(0, 1000, m)
    half = rng.uniform(5, 50, m)
    return pa.table({
        "aoi_id": pa.array(np.arange(m, dtype=np.int64)),
        "x0": pa.array(ax - half), "y0": pa.array(ay - half),
        "x1": pa.array(ax + half), "y1": pa.array(ay + half),
    })


def _oracle(cat: pa.Table, aoi: pa.Table, max_cloud=20.0):
    """Straight-line per-AoI argmin with the reference's semantics."""
    c = {k: cat.column(k).to_numpy() for k in cat.column_names}
    a = {k: aoi.column(k).to_numpy() for k in aoi.column_names}
    out = {}
    for i in range(len(a["aoi_id"])):
        best = None
        for j in range(len(c["item_id"])):
            if c["cloud_cover"][j] >= max_cloud:
                continue
            if (a["x0"][i] >= c["x0"][j] and a["x1"][i] <= c["x1"][j]
                    and a["y0"][i] >= c["y0"][j] and a["y1"][i] <= c["y1"][j]):
                k = (c["cloud_cover"][j], c["item_id"][j])
                if best is None or k < best:
                    best = k
        if best is not None:
            out[int(a["aoi_id"][i])] = (int(best[1]), float(best[0]))
    return out


@pytest.mark.parametrize("chunk", [65536, 7])
def test_lowest_cloud_matches_oracle(chunk):
    cat, aoi = _catalog(), _aois()
    sel = LowestCloudSelector(cat, item_chunk=chunk)
    got = sel(aoi)
    exp = _oracle(cat, aoi)
    got_d = {int(k): (int(i), float(cc)) for k, i, cc in zip(
        got.column("aoi_id").to_pylist(), got.column("item_id").to_pylist(),
        got.column("cloud_cover").to_pylist())}
    assert got_d == exp
    assert len(exp) > 10  # the fixture actually matches something


def test_lowest_cloud_ties_break_by_item_id():
    # two identical footprints, same cloud → lower item_id wins
    cat = pa.table({
        "item_id": pa.array([9, 4], pa.int64()),
        "x0": pa.array([0.0, 0.0]), "y0": pa.array([0.0, 0.0]),
        "x1": pa.array([100.0, 100.0]), "y1": pa.array([100.0, 100.0]),
        "cloud_cover": pa.array([5.0, 5.0]),
    })
    aoi = pa.table({"aoi_id": pa.array([1], pa.int64()),
                    "x0": pa.array([10.0]), "y0": pa.array([10.0]),
                    "x1": pa.array([20.0]), "y1": pa.array([20.0])})
    got = LowestCloudSelector(cat)(aoi)
    assert got.column("item_id").to_pylist() == [4]


def test_lowest_cloud_filters_and_drops():
    cat = pa.table({
        "item_id": pa.array([1], pa.int64()),
        "x0": pa.array([0.0]), "y0": pa.array([0.0]),
        "x1": pa.array([100.0]), "y1": pa.array([100.0]),
        "cloud_cover": pa.array([35.0]),  # above the lt-20 filter
    })
    aoi = pa.table({"aoi_id": pa.array([1], pa.int64()),
                    "x0": pa.array([10.0]), "y0": pa.array([10.0]),
                    "x1": pa.array([20.0]), "y1": pa.array([20.0])})
    assert LowestCloudSelector(cat)(aoi).num_rows == 0


def test_write_map_html(tmp_path):
    pts = pa.table({"x": [5.0, 5.1], "y": [52.0, 52.1],
                    "mean_NDVI": [0.21, 0.34]})
    rects = pa.table({"x0": [4.9], "y0": [51.9], "x1": [5.2], "y1": [52.2]})
    wkt = [{"geometry": "POLYGON ((5 52, 5.1 52, 5.1 52.1, 5 52))", "gs_id": 1}]
    out = str(tmp_path / "map.html")
    plotmap.write_map_html(out, [
        {"name": "PoI", "data": pts, "kind": "points",
         "tooltip_fields": ["mean_NDVI"]},
        {"name": "AoI buffers", "data": rects, "kind": "rects"},
        {"name": "Greenspace", "data": wkt, "kind": "wkt",
         "tooltip_fields": ["gs_id"]},
    ], title="GreenEx map", src_crs="EPSG:4326")
    html = open(out).read()
    assert "leaflet" in html                       # CDN assets pinned
    assert '<h3 style="text-align:center">GreenEx map</h3>' in html
    assert html.count('"type": "Feature"') == 4    # 2 pts + rect + poly
    assert "L.control.layers" in html              # layer control
    assert '"mean_NDVI": 0.21' in html             # tooltip property


def test_write_map_projects_and_closes_rings(tmp_path):
    # projected input: ring coords must come out as closed lon/lat
    buf = pa.table({"x": [500.0], "y": [600.0], "radius": [250.0]})
    out = plotmap.write_map_html(str(tmp_path / "b.html"),
                                 [{"name": "b", "data": buf, "kind": "buffers"}],
                                 src_crs="EPSG:32631")
    html = open(out).read()
    gj = json.loads(html.split("L.geoJSON(")[1].split(", {style")[0])
    ring = gj["features"][0]["geometry"]["coordinates"][0]
    assert ring[0] == ring[-1] and len(ring) >= 60   # closed 64-gon
    lon, lat = ring[0]
    assert -8 < lon < 0 and -1 < lat < 1             # near (0,0) on z31


def test_write_map_row_cap_and_dataset_input(tmp_path):
    ds = ray.data.from_items([{"x": float(i), "y": 0.0} for i in range(5)])
    out = plotmap.write_map_html(str(tmp_path / "d.html"),
                                 [{"name": "d", "data": ds, "kind": "points"}])
    assert open(out).read().count('"type": "Feature"') == 5
    big = ray.data.from_items([{"x": 0.0, "y": 0.0}] * 20)
    with pytest.raises(ValueError, match="row_cap"):
        plotmap.write_map_html(str(tmp_path / "e.html"),
                               [{"name": "big", "data": big, "kind": "points"}],
                               row_cap=10)
