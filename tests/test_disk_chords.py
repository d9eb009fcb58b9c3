"""The chord kernels against a brute-force pixel mask on a band with
NaN pixels and a band with missing tiles: the disk chord pass
(``stages/zonal.disk_chords``) and its reducer (``chord_sums`` over
``TileStore.stack``) on random and edge-case points with radii from
5 m to 2 km, and the polygon, dilated-polygon and polyline kernels on
shapes that cross tile edges."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from greenex_py_ray.sources import synth
from greenex_py_ray.stages.zonal import (LandcoverLocal, LineZonalLocal,
                                         PolygonLandcoverLocal,
                                         PolygonZonalLocal, ZonalStatsLocal,
                                         disk_sums, mean_std_columns)
from greenex_py_ray.state.tiles import TileStore

PX = synth.TILE_PX
RES = synth.RASTER_RES
NT = 3  # the stores hold tiles (0..2, 0..2), less the missing ones
CLASSES = [10, 30, 40, 80]


def _write_band(root, band, dense, missing):
    """``dense`` (NT·PX, NT·PX), row 0 south, as a tile file without the
    ``missing`` tiles; returns ``dense`` with those tiles NaN."""
    dtype = synth.BAND_DTYPE[band]
    rows = {"tix": [], "tiy": [], "h": [], "w": [], "data": []}
    dense = dense.astype(np.float64)
    for tix in range(NT):
        for tiy in range(NT):
            tile = dense[tiy * PX:(tiy + 1) * PX, tix * PX:(tix + 1) * PX]
            if (tix, tiy) in missing:
                tile[:] = np.nan
                continue
            rows["tix"].append(tix)
            rows["tiy"].append(tiy)
            rows["h"].append(PX)
            rows["w"].append(PX)
            rows["data"].append(tile.astype(dtype).tobytes())
    pq.write_table(pa.table({
        "tix": pa.array(rows["tix"], pa.int32()),
        "tiy": pa.array(rows["tiy"], pa.int32()),
        "h": pa.array(rows["h"], pa.int32()),
        "w": pa.array(rows["w"], pa.int32()),
        "data": pa.array(rows["data"], pa.binary())}),
        f"{root}/tiles_{band}.parquet")
    return dense


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """NDVI with NaN pixels in two tiles and tile (2, 0) missing; lulc
    with tiles (1, 2) and (0, 0) missing."""
    root = tmp_path_factory.mktemp("chords") / "tiles"
    root.mkdir()
    root = str(root)
    rng = np.random.default_rng(11)
    n = NT * PX
    ndvi = rng.uniform(-0.4, 0.9, (n, n))
    ndvi[rng.random((n, n)) < 0.2] = np.nan
    ndvi[:PX, PX:2 * PX] = np.where(np.isnan(ndvi[:PX, PX:2 * PX]), 0.3,
                                    ndvi[:PX, PX:2 * PX])  # tile (1, 0) finite
    ndvi[PX:, :] = np.nan_to_num(ndvi[PX:, :], nan=0.1)  # tiy ≥ 1 finite
    ndvi[PX + 3, PX + 7] = np.nan  # ... but one NaN in tile (1, 1)
    lulc = rng.choice(CLASSES + [50], (n, n))
    return (root, _write_band(root, "ndvi", ndvi, {(2, 0)}),
            _write_band(root, "lulc", lulc, {(1, 2), (0, 0)}))


def _points():
    rng = np.random.default_rng(5)
    ext = NT * PX * RES
    x = list(rng.uniform(-1500.0, ext + 1500.0, 40))
    y = list(rng.uniform(-1500.0, ext + 1500.0, 40))
    edge = [(PX * RES, PX * RES), (2 * PX * RES, 1000.0), (1000.0, PX * RES),
            (0.0, 0.0), (ext, ext), (ext - 0.01, 100.0), (-3.0, -7.0),
            (-5000.0, -5000.0), (ext + 4000.0, 500.0), (5.0, 10.0),
            (1285.0, 1280.0), (2 * PX * RES - 5.0, 2 * PX * RES + 5.0),
            (np.nan, 100.0),
            # on a 0.1 m grid, where sqrt's bound for some row is off by
            # one at r = 5, 50 or 1234.5 m and only the ±1 correction
            # gives the mask's chord
            (1460.2, 6126.400000000001), (5201.8, 1242.6000000000001),
            (4232.6, 4814.3), (741.6, 3203.8), (7535.6, -174.20000000000002)]
    return (np.array(x + [p[0] for p in edge]),
            np.array(y + [p[1] for p in edge]))


def _mask(x, y, r):
    """Brute force: the (rows, cols, inside) pixels of each point's disk
    within the stores' NT·PX extent."""
    n = NT * PX
    out = []
    for xi, yi in zip(x, y):
        if not (np.isfinite(xi) and np.isfinite(yi)):
            out.append((np.zeros(0, int), np.zeros(0, int)))
            continue
        c0, c1, r0, r1 = (int(np.floor(v / RES))
                          for v in (xi - r, xi + r, yi - r, yi + r))
        cols, rows = np.arange(c0, c1 + 1), np.arange(r0, r1 + 1)
        gx, gy = np.meshgrid((cols + 0.5) * RES, (rows + 0.5) * RES)
        inside = (gx - xi) ** 2 + (gy - yi) ** 2 <= r * r
        gc, gr = np.meshgrid(cols, rows)
        inside &= (gc >= 0) & (gc < n) & (gr >= 0) & (gr < n)
        out.append((gr[inside], gc[inside]))
    return out


@pytest.mark.parametrize("r", [5.0, 17.3, 50.0, 300.0, 1234.5, 2000.0])
def test_disk_sums_match_bruteforce_mask(store, r):
    root, ndvi, lulc = store
    x, y = _points()
    ts = TileStore(root)
    sums, count = disk_sums(ts, ("sat", 0.0), "ndvi", x, y, r)
    cls, total = disk_sums(ts, ("cls", tuple(CLASSES)), "lulc", x, y, r)
    want = np.zeros((len(x), 3))
    want_cls = np.zeros((len(x), len(CLASSES)), np.int64)
    want_total = np.zeros(len(x), np.int64)
    for i, (rows, cols) in enumerate(_mask(x, y, r)):
        v = ndvi[rows, cols]
        v = np.maximum(v[np.isfinite(v)], 0.0)
        want[i] = v.sum(), (v * v).sum(), len(v)
        c = lulc[rows, cols]
        c = c[np.isfinite(c)]
        want_total[i] = len(c)
        want_cls[i] = [(c == k).sum() for k in CLASSES]
    assert np.array_equal(count, want[:, 2].astype(np.int64))
    assert np.array_equal(cls, want_cls)
    assert np.array_equal(total, want_total)
    # only the summation order differs
    assert np.allclose(sums, want[:, :2], rtol=1e-12, atol=1e-9)
    assert (count > 0).sum() > len(x) // 3  # the disks do meet pixels
    got = mean_std_columns(sums[:, 0], sums[:, 1], count)
    exp = mean_std_columns(want[:, 0], want[:, 1], want[:, 2])
    for name in got:
        assert np.array_equal(got[name].to_numpy(zero_copy_only=False),
                              exp[name].to_numpy(zero_copy_only=False),
                              equal_nan=True)


def test_disk_kernels_match_disk_sums(store):
    """The kernels are disk_sums plus their finishing."""
    root, _, _ = store
    x, y = _points()
    batch = pa.table({"doc_id": [f"d{i}" for i in range(len(x))], "x": x, "y": y})
    ts = TileStore(root)
    sums, count = disk_sums(ts, ("sat", 0.0), "ndvi", x, y, 300.0)
    out = ZonalStatsLocal(root, "ndvi", 300.0)(batch)
    exp = mean_std_columns(sums[:, 0], sums[:, 1], count)
    assert np.array_equal(out.column("mean_NDVI").to_numpy(),
                          exp["mean_NDVI"].to_numpy(), equal_nan=True)
    cls, total = disk_sums(ts, ("cls", tuple(CLASSES)), "lulc", x, y, 300.0)
    kernel = LandcoverLocal(root, 300.0, {c: f"pct_{c}" for c in CLASSES})
    got_cls, got_total = kernel._counts(batch)
    assert np.array_equal(got_cls, cls) and np.array_equal(got_total, total)


def _shape_mask(rings, d, line):
    """Brute force: the (rows, cols) of a shaped AoI's pixels within the
    stores' NT·PX extent — center in the polygon or within ``d`` of its
    boundary (``sqrt(d2) <= d``), or within ``d`` of a polyline's open
    segments (``d2 <= d*d``)."""
    from greenex_py_ray import geom

    n = NT * PX
    gc, gr = (v.ravel() for v in np.meshgrid(np.arange(n), np.arange(n)))
    px, py = (gc + 0.5) * RES, (gr + 0.5) * RES
    if line:
        g = rings[0]
        inside = geom._point_seg_d2(px, py, g[:-1, 0], g[:-1, 1], g[1:, 0],
                                    g[1:, 1]).min(axis=1) <= d * d
    else:
        inside = geom.points_within_rings_dist(px, py, rings, d)
    return gr[inside], gc[inside]


#: rings per row, crossing tile edges: over NaN pixels (tile (0, 0) and
#: the one NaN of tile (1, 1)), the missing tile (2, 0), the world's
#: south-west corner; one holed, one concave, and a row without vertices
SHAPES = [
    [np.array([[2400.0, 2400.0], [2700.0, 2400.0], [2700.0, 2700.0],
               [2400.0, 2700.0]])],
    [np.array([[-120.0, -60.0], [340.0, 15.0], [90.0, 260.0]])],
    [np.array([[4900.0, 100.0], [5400.0, 100.0], [5400.0, 500.0],
               [4900.0, 500.0]]),
     np.array([[5100.0, 200.0], [5200.0, 200.0], [5200.0, 300.0]])],
    [np.array([[2000.0, 1000.0], [3100.0, 1200.0], [2555.0, 1500.0],
               [3000.0, 2000.0], [2100.0, 2600.0]])],
    [],
]


def _brute_sums(ndvi, lulc, masks):
    want = np.zeros((len(masks), 3))
    want_cls = np.zeros((len(masks), len(CLASSES) + 1), np.int64)
    for i, (rows, cols) in enumerate(masks):
        v = ndvi[rows, cols]
        v = np.maximum(v[np.isfinite(v)], 0.0)
        want[i] = v.sum(), (v * v).sum(), len(v)
        c = lulc[rows, cols]
        want_cls[i] = [(c == k).sum() for k in CLASSES] + [np.isfinite(c).sum()]
    return want, want_cls


def _assert_mean_std(out, want):
    exp = mean_std_columns(want[:, 0], want[:, 1], want[:, 2])
    for name in exp:
        assert np.array_equal(out.column(name).to_numpy(zero_copy_only=False),
                              exp[name].to_numpy(zero_copy_only=False),
                              equal_nan=True), name


@pytest.mark.parametrize("dilate", [0.0, 35.0, 100.0])
def test_polygon_kernels_skip_nan_pixels(store, dilate):
    """Polygon and dilated-polygon kernels against the brute-force mask:
    NaN pixels and missing tiles are left out (xarray's skipna), not a
    NaN mean."""
    root, ndvi, lulc = store
    rx = [np.concatenate(r)[:, 0].tolist() if r else [] for r in SHAPES]
    ry = [np.concatenate(r)[:, 1].tolist() if r else [] for r in SHAPES]
    sizes = [[len(p) for p in r] for r in SHAPES]
    batch = pa.table({"doc_id": [f"s{i}" for i in range(len(SHAPES))],
                      "ring_x": rx, "ring_y": ry, "ring_sizes": sizes})
    masks = [_shape_mask(r, dilate, False) if r else (np.zeros(0, int),) * 2
             for r in SHAPES]
    want, want_cls = _brute_sums(ndvi, lulc, masks)
    assert np.isnan(ndvi[masks[0]]).any() and (want[:4, 2] > 0).all()
    _assert_mean_std(PolygonZonalLocal(root, "ndvi", dilate=dilate)(batch), want)
    out = PolygonLandcoverLocal(root, {c: f"pct_{c}" for c in CLASSES},
                                dilate=dilate)(batch)
    for j, c in enumerate(CLASSES):
        with np.errstate(divide="ignore", invalid="ignore"):
            pct = np.round(want_cls[:, j] / want_cls[:, -1] * 100.0, 3)
        assert np.array_equal(out.column(f"pct_{c}").to_numpy(), pct,
                              equal_nan=True)


@pytest.mark.parametrize("d", [25.0, 50.0])
def test_line_kernel_skips_nan_pixels(store, d):
    """Buffered polylines crossing tile edges, NaN pixels and the world
    edge: NaN pixels count neither in the mean nor in ``n_pixels``."""
    root, ndvi, lulc = store
    lines = [r[0] for r in SHAPES if r] + [
        np.array([[2300.0, 2590.0], [2800.0, 2600.0]]),
        np.array([[-40.0, 30.0], [200.0, 30.0], [260.0, 400.0]])]
    batch = pa.table({
        "edge_id": np.arange(len(lines)),
        "ax": [g[0, 0] for g in lines], "ay": [g[0, 1] for g in lines],
        "bx": [g[-1, 0] for g in lines], "by": [g[-1, 1] for g in lines],
        "geom_x": [g[:, 0].tolist() for g in lines],
        "geom_y": [g[:, 1].tolist() for g in lines]})
    masks = [_shape_mask([g], d, True) for g in lines]
    want, _ = _brute_sums(ndvi, lulc, masks)
    assert any(np.isnan(ndvi[m]).any() for m in masks)
    out = LineZonalLocal(root, "ndvi", d)(batch)
    _assert_mean_std(out, want)
    assert out.column("n_pixels").to_pylist() == want[:, 2].astype(int).tolist()
