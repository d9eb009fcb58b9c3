"""CRS projection kernels (M2/M8/S8): round-trip precision, analytic
invariants (central-meridian scale, convergence), decode-time
reprojection, and raster regridding."""

import numpy as np
import pyarrow as pa

from greenex_py_ray import geoproj as gp


def test_mercator_roundtrip_and_known_values():
    rng = np.random.default_rng(0)
    lon = rng.uniform(-179, 179, 500)
    lat = rng.uniform(-80, 80, 500)
    x, y = gp.mercator_forward(lon, lat)
    lo, la = gp.mercator_inverse(x, y)
    assert np.abs(lo - lon).max() < 1e-11
    assert np.abs(la - lat).max() < 1e-11
    # EPSG:3395 world half-width = a*pi
    assert abs(gp.mercator_forward(180.0, 0.0)[0] - 6378137 * np.pi) < 1e-6
    assert gp.mercator_forward(0.0, 0.0) == (0.0, 0.0)


def test_utm_roundtrip_and_invariants():
    rng = np.random.default_rng(1)
    lon = rng.uniform(-1, 7, 500)   # zone 31 ± overlap
    lat = rng.uniform(-80, 84, 500)
    e, n = gp.utm_forward(lon, lat, 31)
    lo, la = gp.utm_inverse(e, n, 31)
    assert np.abs(lo - lon).max() < 1e-10
    assert np.abs(la - lat).max() < 1e-10
    # central meridian: easting exactly 500 km, northing 0 at equator
    e0, n0 = gp.utm_forward(3.0, 45.0, 31)
    assert abs(e0 - 500000.0) < 1e-6
    assert abs(gp.utm_forward(3.0, 0.0, 31)[1]) < 1e-6
    # central-meridian scale factor = 0.9996 (numeric Jacobian)
    eps = 1e-6
    _, n1 = gp.utm_forward(3.0, 45.0 + eps, 31)
    phi = np.deg2rad(45.0)
    M = 6378137 * (1 - gp._E2) / (1 - gp._E2 * np.sin(phi) ** 2) ** 1.5
    assert abs((n1 - n0) / (M * np.deg2rad(eps)) - 0.9996) < 1e-7
    # point scale off-meridian matches the analytic TM series
    lonp, latp = 7.8509671, 47.9941214
    ea, na = gp.utm_forward(lonp, latp, 32)
    eb, nb = gp.utm_forward(lonp + eps, latp, 32)
    phi = np.deg2rad(latp)
    Nr = 6378137 / np.sqrt(1 - gp._E2 * np.sin(phi) ** 2)
    k_num = np.hypot(eb - ea, nb - na) / (Nr * np.cos(phi) * np.deg2rad(eps))
    dl = np.deg2rad(lonp - 9.0)
    ep2 = gp._E2 / (1 - gp._E2)
    k_ana = 0.9996 * (1 + (1 + ep2 * np.cos(phi) ** 2) * (dl * np.cos(phi)) ** 2 / 2
                      + (dl * np.cos(phi)) ** 4 / 24 * (5 - 4 * np.tan(phi) ** 2))
    assert abs(k_num - k_ana) < 1e-6
    # southern hemisphere false northing
    _, ns = gp.utm_forward(3.0, -10.0, 31, south=True)
    assert 0 < ns < 10000000


def test_bbox_to_wgs84():
    lo0, la0, lo1, la1 = gp.bbox_to_wgs84(400000, 5300000, 420000, 5320000,
                                          "UTM:32N")
    assert lo0 < lo1 and la0 < la1
    # corners are inside the reported bbox
    for ex, ey in [(400000, 5300000), (420000, 5320000)]:
        lon, lat = gp.transform(np.array([ex]), np.array([ey]),
                                "UTM:32N", "EPSG:4326")
        assert lo0 - 1e-12 <= lon[0] <= lo1 + 1e-12
        assert la0 - 1e-12 <= lat[0] <= la1 + 1e-12


def test_decode_geom_reprojects_wgs84_input():
    import ray.data as rd

    from greenex_py_ray.sources import documents as doc_src
    from greenex_py_ray.sources.synth import DOC_SCHEMA, SPAN_TYPE

    lon, lat = 4.9041, 52.3676  # Amsterdam
    rows = [[{"kind": "geom", "text": f"POINT({lon!r} {lat!r})",
              "media_ref": "", "offset": 0}]]
    tbl = pa.table({"doc_id": pa.array(["a"], pa.string()),
                    "spans": pa.array(rows, pa.list_(SPAN_TYPE))},
                   schema=DOC_SCHEMA)
    out = doc_src.decode_geom(rd.from_arrow(tbl), src_crs="EPSG:4326").to_pandas()
    ex, ey = gp.mercator_forward(lon, lat)
    assert abs(out.loc[0, "x"] - ex) < 1e-9
    assert abs(out.loc[0, "y"] - ey) < 1e-9


def test_regrid_tiles_nearest_neighbor(world):
    """S8: regrid the synthetic store (treated as EPSG:3395 meters) onto
    a UTM:31N grid; every output pixel must equal the source pixel its
    center inverse-projects into."""
    from greenex_py_ray.sources import synth
    from greenex_py_ray.stages.regrid import RegridTiles, reproject_raster
    from greenex_py_ray.state.tiles import TileStore

    # target bbox: a small window well inside the projected image of the
    # world (local 3395 coords ~(5000..7560) → utm zone 31)
    sx = np.array([5000.0, 7560.0])
    sy = np.array([5000.0, 7560.0])
    lon, lat = gp.transform(sx, sy, "EPSG:3395", "EPSG:4326")
    ex, ny = gp.utm_forward(lon, lat, 31)
    bbox = (float(ex.min()) + 100, float(ny.min()) + 100,
            float(ex.min()) + 2000, float(ny.min()) + 2000)
    out = reproject_raster(world["tiles"], "ndvi", "EPSG:3395", "UTM:31N",
                           bbox).to_pandas()
    assert len(out) >= 1
    store = TileStore(world["tiles"])
    res = synth.RASTER_RES
    px = synth.TILE_PX
    checked = 0
    for _, row in out.iterrows():
        tile = np.frombuffer(row["data"], dtype=np.float64).reshape(
            row["h"], row["w"])
        ts = row["w"] * row["res"]
        cx = row["tix"] * ts + (np.arange(row["w"]) + 0.5) * row["res"]
        cy = row["tiy"] * ts + (np.arange(row["h"]) + 0.5) * row["res"]
        gx, gy = np.meshgrid(cx, cy, indexing="xy")
        sxx, syy = gp.transform(gx.ravel(), gy.ravel(), "UTM:31N", "EPSG:3395")
        col = np.floor(np.asarray(sxx) / res).astype(np.int64)
        rw = np.floor(np.asarray(syy) / res).astype(np.int64)
        flat = tile.ravel()
        for i in range(0, len(flat), 997):  # sample pixels
            arr = store.get("ndvi", int(col[i] // px), int(rw[i] // px))
            if arr is None:
                assert np.isnan(flat[i])
            else:
                exp = arr[rw[i] - (rw[i] // px) * px, col[i] - (col[i] // px) * px]
                assert flat[i] == exp
                checked += 1
    assert checked > 50


def test_regrid_write_back_roundtrip(world, tmp_path):
    """S8+S14: a regridded tile Dataset written back as a parquet tile
    store must decode through TileStore with the band's canonical dtype."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from greenex_py_ray.stages.regrid import reproject_raster
    from greenex_py_ray.state.tiles import TileStore

    sx = np.array([5000.0, 6000.0])
    lon, lat = gp.transform(sx, sx, "EPSG:3395", "EPSG:4326")
    ex, ny = gp.utm_forward(lon, lat, 31)
    bbox = (float(ex.min()), float(ny.min()),
            float(ex.min()) + 1500, float(ny.min()) + 1500)
    out = reproject_raster(world["tiles"], "ndvi", "EPSG:3395", "UTM:31N",
                           bbox)
    tbl = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow")))
    dst = tmp_path / "regridded"
    dst.mkdir()
    pq.write_table(tbl, dst / "tiles_ndvi.parquet")
    store = TileStore(str(dst))
    tix0 = int(tbl.column("tix")[0].as_py())
    tiy0 = int(tbl.column("tiy")[0].as_py())
    arr = store.get("ndvi", tix0, tiy0)
    exp = np.frombuffer(tbl.column("data")[0].as_py(), dtype=np.float64) \
        .reshape(tbl.column("h")[0].as_py(), tbl.column("w")[0].as_py())
    assert arr is not None and np.array_equal(arr, exp, equal_nan=True)


def test_utm_zone_validation():
    """UPS/polar EPSG codes (32661/32761) and out-of-range zones must
    raise, not run through the transverse-Mercator series (round-3
    review fix)."""
    import pytest

    from greenex_py_ray import geoproj

    for bad in ("EPSG:32661", "EPSG:32761", "EPSG:32600", "EPSG:32699",
                "UTM:61N", "UTM:0S"):
        with pytest.raises(ValueError):
            geoproj._parse_crs(bad)
    assert geoproj._parse_crs("EPSG:32631") == ("utm", 31, False)
    assert geoproj._parse_crs("EPSG:32733") == ("utm", 33, True)


def test_crs_gate_oracles_match_duckdb(sf_dir):
    """The round-4 geometry/CRS gates (projections, bbox inverse,
    buffer n-gon, shoelace centroid) must agree with their DuckDB oracle SQL — the same
    comparison the driver's correctness gate runs, pinned in-suite so
    the SQL (hyperbolics via ln/exp, unrolled Newton) can't rot."""
    import duckdb
    import pandas as pd

    from greenex_py_ray.pipelines import driver_queries as dq

    sf = sf_dir
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS "
        f"SELECT * FROM read_parquet('{sf}/documents.parquet')")

    for key in ("project_3395", "project_utm", "bbox_wgs84",
                "buffer_vertices", "polygon_centroid"):
        res = dq.QUERIES[key](sf)
        got = res.to_pandas() if hasattr(res, "to_pandas") else res
        if not isinstance(got, pd.DataFrame):
            got = got.to_pandas()
        exp = con.execute(dq.ORACLE_SQL[key]).df()
        cols = sorted(got.columns)
        assert cols == sorted(exp.columns), key
        g = got[cols].sort_values(cols).reset_index(drop=True)
        e = exp[cols].sort_values(cols).reset_index(drop=True)
        assert len(g) == len(e) and len(g) > 0, key
        pd.testing.assert_frame_equal(g, e, check_exact=True)
