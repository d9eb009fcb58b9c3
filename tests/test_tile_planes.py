"""Memory-mapped tile planes (``state/tiles.py``): bit-identical to the
row-cumsum tables the zonal kernels used to build per tile, read-only,
converted once per tile-file version, and kept out of the kernel-cache
key."""

import multiprocessing
import os
import shutil
import struct

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from greenex_py_ray.functions.joins import _freeze
from greenex_py_ray.pipelines.availability import DEFAULT_CLASSMAP
from greenex_py_ray.sources import synth
from greenex_py_ray.sources.geotiff import ingest_to_tiles
from greenex_py_ray.stages.zonal import ZonalStatsLocal
from greenex_py_ray.state.tiles import TileStore


@pytest.fixture
def tiles(world, tmp_path):
    """A private copy of the world's tile store: these tests write
    planes and rewrite tile files."""
    root = str(tmp_path / "tiles")
    shutil.copytree(world["tiles"], root)
    return root


def _parquet_tile(root, band, tix, tiy):
    """One tile decoded straight from its parquet row."""
    t = pq.read_table(os.path.join(root, f"tiles_{band}.parquet"),
                      filters=[("tix", "=", tix), ("tiy", "=", tiy)])
    dtype = synth.BAND_DTYPE.get(band, np.float64)
    return np.frombuffer(t.column("data")[0].as_py(), dtype).reshape(
        t.column("h")[0].as_py(), t.column("w")[0].as_py())


def _kernel_sat(arr, clamp_min):
    """The per-tile tables ``ZonalStatsLocal`` built in-kernel."""
    v = np.maximum(arr, clamp_min) if clamp_min is not None else arr
    fin = np.isfinite(arr)
    allfin = bool(fin.all())
    if not allfin:
        v = np.where(fin, v, 0.0)
    return (np.cumsum(v, axis=1), np.cumsum(v * v, axis=1),
            None if allfin else np.cumsum(fin, axis=1, dtype=np.int64))


def _kernel_class_sat(arr, classes):
    """The per-tile tables ``LandcoverLocal`` built in-kernel."""
    return np.stack([np.cumsum(arr == cls, axis=1, dtype=np.int32)
                     for cls in classes])


def _sat(store, band, tix, tiy, clamp_min):
    """One tile's ``(c1, c2, c0)`` planes read off ``TileStore.stack``
    through its slot table, or None for an absent tile; ``c0`` is None
    for an all-finite tile."""
    arr, c0, table = store.stack(("sat", clamp_min), band, [(tix, tiy)])
    slot, c0slot = table.slots(tix, tiy)
    if slot < 0:
        return None
    return arr[slot, 0], arr[slot, 1], None if c0slot < 0 else c0[c0slot]


def _class_sat(store, band, tix, tiy, classes):
    """One tile's per-class planes off ``TileStore.stack``, or None."""
    arr, _, table = store.stack(("cls", tuple(classes)), band, [(tix, tiy)])
    slot, _ = table.slots(tix, tiy)
    return None if slot < 0 else arr[slot]


def _assert_zero_column_planes(got, want):
    """``got`` is ``want`` behind a leading zero column."""
    assert got.shape[:-1] == want.shape[:-1]
    assert not got[..., 0].any()
    assert np.array_equal(got[..., 1:], want)


def _check_planes(root, tix, tiy, classes, finite):
    store = TileStore(root)
    for clamp in (0.0, None):
        want = _kernel_sat(_parquet_tile(root, "ndvi", tix, tiy), clamp)
        got = _sat(store, "ndvi", tix, tiy, clamp)
        assert (want[2] is None) == finite and (got[2] is None) == finite
        for g, w in zip(got, want):
            if w is not None:
                _assert_zero_column_planes(g, w)
    _assert_zero_column_planes(
        _class_sat(store, "lulc", tix, tiy, classes),
        _kernel_class_sat(_parquet_tile(root, "lulc", tix, tiy), classes))


def test_planes_match_kernel_tables_on_synthetic_tiles(tiles):
    for tix, tiy in ((0, 0), (3, 5)):
        _check_planes(tiles, tix, tiy, sorted(DEFAULT_CLASSMAP), finite=True)
    store = TileStore(tiles)
    assert _sat(store, "ndvi", 99, 99, 0.0) is None
    assert _class_sat(store, "lulc", 99, 99, [10]) is None


def _strip_tiff(path, w, h, data):
    """Minimal little-endian uint8 strip TIFF with no georeferencing."""
    tags = [(256, 4, w), (257, 4, h), (258, 3, 8), (259, 3, 1),
            (273, 4, 8 + 2 + 8 * 12 + 4), (277, 3, 1), (278, 4, h),
            (279, 4, len(data))]
    ifd = struct.pack("<H", len(tags)) + b"".join(
        struct.pack("<HHII", tag, typ, 1, val) for tag, typ, val in tags)
    with open(path, "wb") as f:
        f.write(b"II" + struct.pack("<HI", 42, 8) + ifd
                + struct.pack("<I", 0) + data)


def test_planes_match_kernel_tables_on_ingested_edge_tile(tmp_path):
    """A 3×2 GeoTIFF fills one corner of its tile: the ndvi tile is NaN
    padded (the ``c0`` path), the lulc tile padded with a fill code."""
    tif = str(tmp_path / "small.tif")
    _strip_tiff(tif, 3, 2, bytes([0, 10, 30, 40, 10, 80]))
    root = str(tmp_path / "ingested")
    ingest_to_tiles(tif, root, "ndvi")
    info = ingest_to_tiles(tif, root, "lulc")
    _check_planes(root, 0, 0, sorted(info["codes"]), finite=False)


def test_store_arrays_are_read_only(tiles):
    store = TileStore(tiles)
    arr = store.get("ndvi", 1, 1)
    with pytest.raises(ValueError):
        arr[0, 0] = 1.0
    c1, _, _ = _sat(store, "ndvi", 1, 1, 0.0)
    with pytest.raises(ValueError):
        c1[0, 0] = 1.0
    assert np.array_equal(arr, _parquet_tile(tiles, "ndvi", 1, 1))


def test_lookups_take_any_integer_type(tiles):
    """Tile indices read from an int32 column look up like Python ints."""
    store = TileStore(tiles)
    for tix, tiy in ((np.int32(1), np.int32(2)), (np.int16(1), 2)):
        assert np.array_equal(store.get("ndvi", tix, tiy),
                              store.get("ndvi", 1, 2))
        assert np.array_equal(_sat(store, "ndvi", tix, tiy, 0.0)[0],
                              _sat(store, "ndvi", 1, 2, 0.0)[0])
        assert np.array_equal(_class_sat(store, "lulc", tix, tiy, [10]),
                              _class_sat(store, "lulc", 1, 2, [10]))
    for tix, tiy in ((np.int32(-1), np.int32(0)), (np.int32(99), 0)):
        assert store.get("ndvi", tix, tiy) is None
        assert _sat(store, "ndvi", tix, tiy, 0.0) is None
        assert _class_sat(store, "lulc", tix, tiy, [10]) is None


def _points(n=400, seed=3):
    x, y = synth.doc_coordinates(n, seed)
    return pa.table({"doc_id": [f"p{i}" for i in range(n)], "x": x, "y": y})


def test_kernels_on_one_stamp_convert_once(tiles):
    batch = _points()
    first = ZonalStatsLocal(tiles, "ndvi", 300.0)
    out = first(batch)
    assert first.store.conversions == 2  # the band file, then its sat planes
    touched = first.store.misses
    assert touched > 0 and first.store.hits == 0
    first(batch)
    assert (first.store.misses, first.store.hits) == (touched, touched)
    second = ZonalStatsLocal(tiles, "ndvi", 300.0)
    assert second(batch).equals(out)
    assert second.store.conversions == 0
    assert second.store.misses == touched


def _zonal_after_barrier(root, barrier, results):
    barrier.wait(timeout=60)
    kernel = ZonalStatsLocal(root, "ndvi", 300.0)
    out = kernel(_points())
    results.put((kernel.store.conversions, out.column("mean_NDVI").to_pylist()))


def test_concurrent_workers_convert_once(tiles):
    """More processes than cores race to a fresh store: the band file
    and its planes are converted once in all, and every process reads
    the same values."""
    ctx = multiprocessing.get_context("spawn")
    barrier, results = ctx.Barrier(3), ctx.Queue()
    procs = [ctx.Process(target=_zonal_after_barrier, args=(tiles, barrier, results))
             for _ in range(3)]
    for p in procs:
        p.start()
    got = [results.get(timeout=180) for _ in procs]
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    assert sum(conversions for conversions, _ in got) == 2
    assert all(means == got[0][1] for _, means in got)


def test_planes_stay_out_of_the_kernel_cache_key(world, tiles):
    import greenex_py_ray as gx

    before = _freeze(tiles)
    ds = gx.get_mean_NDVI(world["documents"], tiles, buffer_dist=300.0)
    assert ds.count() == 300
    assert os.path.isdir(os.path.join(os.path.dirname(tiles), ".tiles.planes"))
    assert _freeze(tiles) == before


def test_rewritten_tile_file_is_converted_again(tiles):
    batch = _points(50)
    before = ZonalStatsLocal(tiles, "ndvi", 300.0)(batch)
    path = os.path.join(tiles, "tiles_ndvi.parquet")
    t = pq.read_table(path)
    flat = [np.full(h * w, 0.25).tobytes() for h, w in
            zip(t.column("h").to_pylist(), t.column("w").to_pylist())]
    pq.write_table(t.set_column(t.schema.get_field_index("data"), "data",
                                pa.array(flat, pa.binary())), path)
    after = ZonalStatsLocal(tiles, "ndvi", 300.0)(batch)
    assert not after.equals(before)
    assert set(after.column("mean_NDVI").to_pylist()) == {0.25}
    planes = os.path.join(os.path.dirname(tiles), ".tiles.planes")
    assert len([d for d in os.listdir(planes) if d.startswith("ndvi-")]) == 1
