"""Reference-parity kwargs added in round 3: ``min_greenspace_area`` /
``network_type`` (accessibility.py:81-84,129-131,142-149),
``write_to_file`` / ``output_dir`` / ``plot_aoi`` (every entry,
availability.py:294-300), ``crop_by_road_centres``
(visibility.py:906-949)."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

import greenex_py_ray as gx
from greenex_py_ray import api, sidefiles


def _poi_ids(n=40):
    return [f"doc-{i:08d}" for i in range(n)]


def _independent_blob_filter(gs, thresh):
    """Union-find on rect overlap + slab-decomposition union area —
    an independent re-derivation of accessibility.py:125-131 (dissolve
    overlapping greenspaces, keep units with area >= threshold)."""
    x0 = gs.column("x0").to_numpy()
    y0 = gs.column("y0").to_numpy()
    x1 = gs.column("x1").to_numpy()
    y1 = gs.column("y1").to_numpy()
    n = len(gs)
    lab = list(range(n))

    def find(a):
        while lab[a] != a:
            lab[a] = lab[lab[a]]
            a = lab[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if (x0[i] <= x1[j] and x1[i] >= x0[j]
                    and y0[i] <= y1[j] and y1[i] >= y0[j]):
                ri, rj = find(i), find(j)
                if ri != rj:
                    lab[max(ri, rj)] = min(ri, rj)
    from collections import defaultdict

    blobs = defaultdict(list)
    for i in range(n):
        blobs[find(i)].append(i)
    keep = np.zeros(n, dtype=bool)
    for members in blobs.values():
        rects = np.column_stack([x0[members], y0[members],
                                 x1[members], y1[members]])
        xs = np.unique(np.concatenate([rects[:, 0], rects[:, 2]]))
        area = 0.0
        for sx0, sx1 in zip(xs[:-1], xs[1:]):
            cov = rects[(rects[:, 0] <= sx0) & (rects[:, 2] >= sx1)]
            if not len(cov):
                continue
            iv = cov[np.argsort(cov[:, 1], kind="stable")][:, [1, 3]]
            ylen, c0, c1 = 0.0, iv[0, 0], iv[0, 1]
            for a, b in iv[1:]:
                if a > c1:
                    ylen += c1 - c0
                    c0, c1 = a, b
                else:
                    c1 = max(c1, b)
            ylen += c1 - c0
            area += (sx1 - sx0) * ylen
        if area >= thresh:
            keep[members] = True
    return keep


def test_min_greenspace_area_equals_blob_prefiltered(world, tmp_path):
    """The kwarg must equal prefiltering by DISSOLVED-unit area (the
    world's greenspace rects overlap, so per-row area filtering would
    give a different — wrong — answer)."""
    gs = pq.read_table(world["greenspace"])
    thresh = float(np.median(gs.column("area").to_numpy()) * 2.0)
    keep = _independent_blob_filter(gs, thresh)
    assert 0 < keep.sum() < len(gs)
    # per-row filtering must differ on this fixture, or the test is vacuous
    per_row = gs.column("area").to_numpy() >= thresh
    assert (keep != per_row).any()
    prefile = str(tmp_path / "gs_pre.parquet")
    pq.write_table(gs.filter(pa.array(keep)), prefile)
    cols = ["doc_id", "distance_to_greenspace"]
    a = (gx.get_shortest_distance_greenspace(
            world["documents"], world["greenspace"], target_dist=500.0,
            min_greenspace_area=thresh)
         .to_pandas()[cols].sort_values("doc_id").reset_index(drop=True))
    b = (gx.get_shortest_distance_greenspace(
            world["documents"], prefile, target_dist=500.0)
         .to_pandas()[cols].sort_values("doc_id").reset_index(drop=True))
    assert a.equals(b)


def test_centroids_measure_merged_units(tmp_path):
    """accessibility.py:125-128: overlapping greenspaces dissolve into
    one unit and 'centroids' measures to the MERGED unit's centroid —
    two rects unioning to [10,14]×[-1,1] (centroid x=12) must give
    distance 12, not the nearest member centroid's 11."""
    import ray.data as rd

    from greenex_py_ray.sources.synth import DOC_SCHEMA, SPAN_TYPE

    docs = pa.table(
        {"doc_id": pa.array(["a"], pa.string()),
         "spans": pa.array(
             [[{"kind": "geom", "text": "POINT(0.0 0.0)",
                "media_ref": "", "offset": 0}]], pa.list_(SPAN_TYPE))},
        schema=DOC_SCHEMA)
    gs = pa.table({
        "gs_id": pa.array([1, 2], pa.int64()),
        "x0": [10.0, 11.0], "y0": [-1.0, -1.0],
        "x1": [12.0, 14.0], "y1": [1.0, 1.0],
        "centroid_x": [11.0, 12.5], "centroid_y": [0.0, 0.0],
    })
    f = str(tmp_path / "gs_overlap.parquet")
    pq.write_table(gs, f)
    out = gx.get_shortest_distance_greenspace(
        rd.from_arrow(docs), f, target_dist=300.0).to_pandas()
    assert out["distance_to_greenspace"].iloc[0] == 12.0


def test_min_area_filter_rings_without_area_column():
    # disjoint rings table without an 'area' column: filter must fall
    # back to geometry areas, not crash on missing rect columns
    def rect_rings(x0, y0, x1, y1):
        return [[{"x": x0, "y": y0}, {"x": x1, "y": y0},
                 {"x": x1, "y": y1}, {"x": x0, "y": y1}]]

    gs = pa.table({
        "gs_id": pa.array([1, 2], pa.int64()),
        "rings": [rect_rings(0, 0, 10, 10), rect_rings(100, 0, 105, 5)],
        "centroid_x": [5.0, 102.5], "centroid_y": [5.0, 2.5],
    })
    out = api._min_area_filter(api._dissolve_units(gs), 50.0)
    assert out.column("gs_id").to_pylist() == [1]


def test_dissolve_units_leaves_disjoint_rows_untouched():
    # a merge elsewhere in the table must not rewrite an unrelated
    # disjoint row's stored id/centroid/area
    gs = pa.table({
        "gs_id": pa.array([5, 6, 7], pa.int64()),
        "x0": [0.0, 5.0, 100.0], "y0": [0.0, 0.0, 0.0],
        "x1": [10.0, 15.0, 110.0], "y1": [10.0, 10.0, 10.0],
        "centroid_x": [5.0, 10.0, 123.0],  # 123: deliberately non-geometric
        "centroid_y": [5.0, 5.0, 45.0],
        "area": [100.0, 100.0, 77.0],
    })
    out = api._dissolve_units(gs)
    row = out.to_pylist()[2]
    assert (row["gs_id"], row["centroid_x"], row["centroid_y"],
            row["area"]) == (7, 123.0, 45.0, 77.0)
    merged = out.to_pylist()[0]
    assert merged["gs_id"] == 5 and merged["area"] == 150.0


def test_dissolve_units_synthesizes_missing_columns():
    # overlapping rect table WITHOUT centroid/area columns: the
    # dissolve must synthesize both for every row (singleton blobs get
    # their own geometry moments), not crash on the missing schema
    gs = pa.table({
        "gs_id": pa.array([1, 2, 3], pa.int64()),
        "x0": [0.0, 5.0, 100.0], "y0": [0.0, 0.0, 0.0],
        "x1": [10.0, 15.0, 110.0], "y1": [10.0, 10.0, 10.0],
    })
    out = api._dissolve_units(gs).to_pylist()
    assert out[0]["gs_id"] == 1 and out[1]["gs_id"] == 1
    assert out[0]["area"] == 150.0 and out[0]["centroid_x"] == 7.5
    assert (out[2]["area"], out[2]["centroid_x"],
            out[2]["centroid_y"]) == (100.0, 105.0, 5.0)


def test_dissolve_units_integer_area_column_not_truncated():
    # integer-typed stored area: merged union areas must come out
    # float64, not silently truncated into the int dtype
    gs = pa.table({
        "gs_id": pa.array([1, 2], pa.int64()),
        "x0": [0.0, 5.3], "y0": [0.0, 0.0],
        "x1": [10.0, 15.3], "y1": [10.0, 10.0],
        "centroid_x": [5.0, 10.3], "centroid_y": [5.0, 5.0],
        "area": pa.array([100, 100], pa.int64()),
    })
    out = api._dissolve_units(gs)
    assert out.column("area").type == pa.float64()
    assert out.column("area").to_pylist() == [153.0, 153.0]


def test_min_greenspace_area_validation(world):
    with pytest.raises(ValueError):
        gx.get_shortest_distance_greenspace(
            world["documents"], world["greenspace"],
            min_greenspace_area=-5)


def test_network_type_validation_and_filter(world):
    # the euclidean/centroids path never touches the network, so a bad
    # network_type passes silently — exactly like the reference, which
    # validates it only inside the network branch (accessibility.py:142)
    gx.get_shortest_distance_greenspace(
        world["documents"], world["greenspace"], network_type="boat",
        target_dist=300.0).to_pandas()
    with pytest.raises(ValueError):
        api._filter_network_type(
            pq.read_table(world["network_edges"]), "boat")
    # no highway column on the edges table → explicit error, not a
    # silent no-op
    edges = pq.read_table(world["network_edges"])
    with pytest.raises(ValueError):
        api._filter_network_type(edges, "walk")
    # with a highway column: excluded classes are dropped, others kept
    # (osmnx 1.x semantics: walk keeps trunk, drops cycleway; bike
    # drops footway; drive drops all non-motor classes)
    hw = ["residential", "motorway", "footway", "cycleway", "trunk"] * (
        len(edges) // 5 + 1)
    tagged = edges.append_column(
        "highway", pa.array(hw[: len(edges)]))
    walk = set(api._filter_network_type(tagged, "walk")
               .column("highway").to_pylist())
    assert "motorway" not in walk and "cycleway" not in walk
    assert "footway" in walk and "trunk" in walk
    bike = set(api._filter_network_type(tagged, "bike")
               .column("highway").to_pylist())
    assert "footway" not in bike and "cycleway" in bike
    drive = set(api._filter_network_type(tagged, "drive")
                .column("highway").to_pylist())
    assert drive == {"residential", "motorway", "trunk"}
    assert api._filter_network_type(tagged, "all") is tagged


def test_network_type_on_availability_isochrone(world):
    # network_type plumbs into the isochrone graph of the availability
    # family (reference availability.py:42 signature); an all-kept
    # highway tagging must reproduce the untyped run exactly
    import pyarrow.parquet as _pq

    cols = ["doc_id", "mean_NDVI", "std_NDVI"]
    base = (gx.get_mean_NDVI(world["documents"], world["tiles"],
                             buffer_dist=300.0, buffer_type="network",
                             network_nodes_file=world["network_nodes"],
                             network_edges_file=world["network_edges"])
            .to_pandas()[cols].sort_values("doc_id").reset_index(drop=True))
    import tempfile, os
    edges = _pq.read_table(world["network_edges"])
    tagged = edges.append_column(
        "highway", pa.array(["residential"] * len(edges)))
    with tempfile.TemporaryDirectory() as td:
        ef = os.path.join(td, "edges_tagged.parquet")
        _pq.write_table(tagged, ef)
        walk = (gx.get_mean_NDVI(world["documents"], world["tiles"],
                                 buffer_dist=300.0, buffer_type="network",
                                 network_type="walk",
                                 network_nodes_file=world["network_nodes"],
                                 network_edges_file=ef)
                .to_pandas()[cols].sort_values("doc_id")
                .reset_index(drop=True))
    assert base.equals(walk)


def test_min_area_filter_dissolves_first():
    # two overlapping 30×20 rects forming a 30×35 union (1050 m²):
    # the reference filter keeps the MERGED unit, so both rows survive
    # a 1000 m² threshold even though each row alone is 600 m²
    gs = pa.table({
        "gs_id": [0, 1, 2],
        "x0": [0.0, 0.0, 100.0], "y0": [0.0, 15.0, 0.0],
        "x1": [30.0, 30.0, 110.0], "y1": [20.0, 35.0, 10.0],
        "centroid_x": [15.0, 15.0, 105.0],
        "centroid_y": [10.0, 25.0, 5.0],
    })
    dissolved = api._dissolve_units(gs)
    out = api._min_area_filter(dissolved, 1000.0)
    assert out.column("gs_id").to_pylist() == [0, 0]  # merged unit id
    # both members carry the merged unit's exact union centroid/area
    assert set(out.column("area").to_pylist()) == {1050.0}
    assert set(out.column("centroid_x").to_pylist()) == {15.0}
    assert len(api._min_area_filter(dissolved, 2000.0)) == 0


def test_write_to_file_roundtrip(world, tmp_path):
    out = str(tmp_path / "results")
    ds = gx.get_mean_NDVI(world["documents"], world["tiles"],
                          buffer_dist=150.0, write_to_file=True,
                          output_dir=out)
    df = ds.to_pandas()
    written = pads.dataset(
        [os.path.join(out, "mean_NDVI", f)
         for f in os.listdir(os.path.join(out, "mean_NDVI"))
         if f.endswith(".parquet")]).to_table().to_pandas()
    cols = ["doc_id", "mean_NDVI", "std_NDVI"]
    assert (written[cols].sort_values("doc_id").reset_index(drop=True)
            .equals(df[cols].sort_values("doc_id").reset_index(drop=True)))


def test_plot_aoi_writes_leaflet_html(world, tmp_path):
    out = str(tmp_path / "plots")
    gx.get_mean_NDVI(world["documents"], world["tiles"], buffer_dist=150.0,
                     plot_aoi=True, output_dir=out)
    html = open(os.path.join(out, "mean_NDVI_aoi.html")).read()
    assert "L.geoJSON" in html and "Polygon" in html  # buffer rings


def test_crop_by_road_centres_quarters_kernel():
    from greenex_py_ray.stages.visibility import FakeSegmentation, SegmentationGVI

    scorer = SegmentationGVI(crop_by_road_centres=False)
    seg = FakeSegmentation().segment("img-00000042")
    got = scorer._gvi_pano_quarters(seg)
    # manual crop arithmetic (visibility.py:855-873 over the
    # bottom-20%-cropped segmentation)
    s = seg[: int(seg.shape[0] * 0.8), :]
    hh, ww = s.shape
    w4, h4 = ww // 4, hh // 4
    h43 = int(w4 * 3 / 4)
    band = s[h4:h4 + h43, : 4 * w4]
    assert got == (band == 8).sum() / band.size


def test_crop_by_road_centres_api_smoke(world):
    rollup, _ = gx.get_streetview_GVI(
        world["documents"], world["network_nodes"], world["network_edges"],
        world["image_features"], buffer_dist=150.0,
        crop_by_road_centres=False)
    df = rollup.to_pandas()
    ok = df["GVI"].dropna()
    assert len(ok) and ((ok >= 0) & (ok <= 1)).all()


def test_dissolve_units_distributed_parity(world, monkeypatch):
    """Above the driver-size gate _dissolve_units must take the
    distributed dissolve_dataset branch and produce bit-identical
    per-row (gs_id, centroid, area) rewrites (VERDICT r3 item 1)."""
    gs = pq.read_table(world["greenspace"])
    drv = api._dissolve_units(gs)
    monkeypatch.setattr(sidefiles, "_DISSOLVE_DRIVER_MAX", 0)
    called = {}
    real = sidefiles._dissolve_units_distributed

    def spy(t):
        called["yes"] = True
        return real(t)

    monkeypatch.setattr(sidefiles, "_dissolve_units_distributed", spy)
    dist = api._dissolve_units(gs)
    assert called.get("yes"), "distributed branch not taken above gate"
    assert drv.column("gs_id").to_pylist() == dist.column("gs_id").to_pylist()
    for c in ("centroid_x", "centroid_y", "area"):
        a = drv.column(c).to_numpy(zero_copy_only=False)
        b = dist.column(c).to_numpy(zero_copy_only=False)
        np.testing.assert_array_equal(a, b, err_msg=c)


def test_dissolve_units_distributed_rect_and_missing_cols(monkeypatch):
    """Distributed branch on a rect side table WITHOUT stored
    centroid/area columns: synthesized moments match the driver path."""
    gs = pa.table({
        "gs_id": pa.array([7, 3, 9], pa.int64()),
        "x0": pa.array([0.0, 5.0, 100.0]),
        "y0": pa.array([0.0, 5.0, 100.0]),
        "x1": pa.array([10.0, 15.0, 110.0]),
        "y1": pa.array([10.0, 15.0, 110.0]),
    })
    drv = api._dissolve_units(gs)
    monkeypatch.setattr(sidefiles, "_DISSOLVE_DRIVER_MAX", 0)
    dist = api._dissolve_units(gs)
    assert drv.column("gs_id").to_pylist() == dist.column("gs_id").to_pylist()
    for c in ("centroid_x", "centroid_y", "area"):
        np.testing.assert_array_equal(
            drv.column(c).to_numpy(zero_copy_only=False),
            dist.column(c).to_numpy(zero_copy_only=False), err_msg=c)


def test_write_to_file_gpkg_roundtrip(world, tmp_path):
    """output_format='gpkg' writes a GeoPackage the stdlib reader reads
    back with identical metric values and PoI coordinates (reverse of
    sources/gpkg.py; reference accessibility.py:173-180)."""
    from greenex_py_ray.sources.gpkg import read_gpkg

    out = str(tmp_path / "gpkg_out")
    ds = gx.get_mean_NDVI(world["documents"], world["tiles"],
                          buffer_dist=150.0, write_to_file=True,
                          output_dir=out, output_format="gpkg")
    df = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
    back = read_gpkg(os.path.join(out, "mean_NDVI.gpkg")) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    np.testing.assert_array_equal(back["mean_NDVI"].to_numpy(),
                                  df["mean_NDVI"].to_numpy())
    np.testing.assert_array_equal(back["std_NDVI"].to_numpy(),
                                  df["std_NDVI"].to_numpy())
    assert {"x", "y"} <= set(back.columns)
    assert "spans" not in back.columns
    assert np.isfinite(back["x"].to_numpy()).all()


def test_write_gpkg_rejects_bad_format(world, tmp_path):
    with pytest.raises(ValueError, match="output_format"):
        gx.get_mean_NDVI(world["documents"], world["tiles"],
                         buffer_dist=150.0, write_to_file=True,
                         output_dir=str(tmp_path),
                         output_format="shapefile")
