"""End-to-end parity: Ray zonal pipelines vs a straight-line numpy oracle
that reimplements the reference formulas directly (clamp ≥0, population
std, round 3 — availability.py:289; class % round 3 — :1068-1082)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data

from greenex_py_ray.pipelines import availability
from greenex_py_ray.sources import documents as doc_src
from greenex_py_ray.sources import synth


#: the tile store holds whole tiles, so it reaches past WORLD to the
#: next tile edge (20480 m); disks at the world's edge count those pixels
TILED_EXTENT = synth.TILE_SIZE * np.ceil(synth.WORLD / synth.TILE_SIZE)


def oracle_disk_values(band, x, y, radius, extent=TILED_EXTENT):
    res = synth.RASTER_RES
    c0 = int(np.floor((x - radius) / res))
    c1 = int(np.floor((x + radius) / res))
    r0 = int(np.floor((y - radius) / res))
    r1 = int(np.floor((y + radius) / res))
    px = (np.arange(c0, c1 + 1, dtype=np.float64) + 0.5) * res
    py = (np.arange(r0, r1 + 1, dtype=np.float64) + 0.5) * res
    gx, gy = np.meshgrid(px, py, indexing="xy")
    mask = (gx - x) * (gx - x) + (gy - y) * (gy - y) <= radius * radius
    # world clip: only pixels inside the tiled extent exist in the store
    mask &= (gx >= 0) & (gx <= extent) & (gy >= 0) & (gy <= extent)
    vals = synth._FIELDS[band](gx, gy)[mask]
    return vals


def sampled_and_edge_docs(x, y, radius, n, seed):
    """``n`` random document positions plus every document whose disk
    crosses x or y = WORLD, where the store's pixels run past the
    world."""
    edge = np.flatnonzero((x + radius > synth.WORLD)
                          | (y + radius > synth.WORLD))
    pick = np.random.default_rng(seed).choice(len(x), n, replace=False)
    return np.union1d(pick, edge)


def decode_world_docs(world):
    t = pq.read_table(world["documents"])
    spans = t.column("spans").combine_chunks()
    x, y = doc_src._first_geom_texts(spans)
    return t.column("doc_id").to_pylist(), x, y


def test_decode_geom_matches_source(world):
    doc_ids, x, y = decode_world_docs(world)
    assert len(doc_ids) == 300
    assert np.isfinite(x).all() and np.isfinite(y).all()
    assert (x >= 0).all() and (x < synth.WORLD).all()


def test_mean_ndvi_parity(world):
    radius = 300.0
    doc_ids, x, y = decode_world_docs(world)
    ds = doc_src.decode_geom(doc_src.read_documents(world["documents"]))
    out = (
        availability.mean_ndvi(
            ds.select_columns(["doc_id", "x", "y"]), world["tiles"], radius,
            concurrency=2,
        )
        .to_pandas()
        .set_index("doc_id")
    )
    assert len(out) == len(doc_ids)
    for i in sampled_and_edge_docs(x, y, radius, 40, seed=7):
        vals = np.maximum(oracle_disk_values("ndvi", x[i], y[i], radius), 0.0)
        exp_mean = round(vals.mean(), 3)
        exp_std = round(vals.std(), 3)
        row = out.loc[doc_ids[i]]
        assert row["mean_NDVI"] == exp_mean, (i, row["mean_NDVI"], exp_mean)
        assert row["std_NDVI"] == exp_std, (i, row["std_NDVI"], exp_std)


def test_landcover_parity(world):
    radius = 500.0
    doc_ids, x, y = decode_world_docs(world)
    ds = doc_src.decode_geom(doc_src.read_documents(world["documents"]))
    out = (
        availability.landcover_percentages(
            ds.select_columns(["doc_id", "x", "y"]), world["tiles"], radius,
            concurrency=2,
        )
        .to_pandas()
        .set_index("doc_id")
    )
    classmap = availability.DEFAULT_CLASSMAP
    for i in sampled_and_edge_docs(x, y, radius, 20, seed=11):
        vals = oracle_disk_values("lulc", x[i], y[i], radius)
        total = vals.size
        row = out.loc[doc_ids[i]]
        for cls, name in classmap.items():
            exp = round((vals == cls).sum() / total * 100.0, 3)
            assert row[name] == exp, (i, name, row[name], exp)


def test_span_passthrough(world):
    """Per-row invariant: output spans == input spans, byte-identical."""
    out = availability.get_mean_ndvi_documents(
        world["documents"], world["tiles"], buffer_dist=200.0, concurrency=2
    )
    got = out.to_pandas().set_index("doc_id")
    src = pq.read_table(world["documents"]).to_pandas().set_index("doc_id")
    assert len(got) == len(src)
    for doc_id in src.index[:50]:
        a = src.loc[doc_id, "spans"]
        b = got.loc[doc_id, "spans"]
        assert len(a) == len(b)
        for sa, sb in zip(a, b):
            assert dict(sa) == dict(sb)


def test_line_buffer_zonal_polyline_matches_grid(world):
    """LineZonalLocal on a curved polyline vs brute-force capsule mask."""
    import pyarrow as pa

    from greenex_py_ray.stages.zonal import LineZonalLocal

    g = np.array([[3000.0, 3000.0], [3400.0, 3100.0], [3500.0, 3600.0]])
    batch = pa.table({
        "edge_id": pa.array([5], pa.int64()),
        "ax": pa.array([g[0, 0]]), "ay": pa.array([g[0, 1]]),
        "bx": pa.array([g[-1, 0]]), "by": pa.array([g[-1, 1]]),
        "geom_x": pa.array([g[:, 0].tolist()], pa.list_(pa.float64())),
        "geom_y": pa.array([g[:, 1].tolist()], pa.list_(pa.float64())),
    })
    lz = LineZonalLocal(world["tiles"], "ndvi", buffer_dist=60.0,
                        key_col="edge_id")
    out = lz(batch).to_pandas()
    # brute force: pixel centers within 60 m of any sub-segment
    res = synth.RASTER_RES
    d = 60.0
    c0 = int(np.floor((g[:, 0].min() - d) / res))
    c1 = int(np.floor((g[:, 0].max() + d) / res))
    r0 = int(np.floor((g[:, 1].min() - d) / res))
    r1 = int(np.floor((g[:, 1].max() + d) / res))
    px = (np.arange(c0, c1 + 1) + 0.5) * res
    py = (np.arange(r0, r1 + 1) + 0.5) * res
    gx, gy = np.meshgrid(px, py, indexing="xy")
    fx, fy = gx.ravel(), gy.ravel()
    best = np.full(len(fx), np.inf)
    for s in range(len(g) - 1):
        dx, dy = g[s + 1, 0] - g[s, 0], g[s + 1, 1] - g[s, 1]
        t = np.clip(((fx - g[s, 0]) * dx + (fy - g[s, 1]) * dy)
                    / (dx * dx + dy * dy), 0, 1)
        best = np.minimum(best, (fx - g[s, 0] - t * dx) ** 2
                          + (fy - g[s, 1] - t * dy) ** 2)
    mask = best <= d * d
    vals = np.maximum(synth.field_ndvi(fx[mask], fy[mask]), 0.0)
    assert out.loc[0, "mean_NDVI"] == round(vals.mean(), 3)
    assert out.loc[0, "std_NDVI"] == round(vals.std(), 3)


def test_zonal_median_matches_bruteforce(ray_session, tmp_path):
    """ZonalMedianLocal vs a direct per-point mask + np.median, and
    the DuckDB quantile_cont interpolation identity on even counts."""
    import duckdb

    from greenex_py_ray.sources import synth
    from greenex_py_ray.stages.zonal import MEDIAN_Q, ZonalMedianLocal

    paths = synth.ensure_world(str(tmp_path / "w"), n_docs=20, seed=5)
    rng = np.random.default_rng(8)
    x = rng.uniform(500, 4500, 40)
    y = rng.uniform(500, 4500, 40)
    batch = pa.table({"doc_id": pa.array([f"p{i}" for i in range(40)]),
                      "x": pa.array(x), "y": pa.array(y)})
    out = ZonalMedianLocal(paths["tiles"], "ndvi", 120.0)(batch)

    res = synth.RASTER_RES
    for i in range(40):
        c0 = int(np.floor((x[i] - 120.0) / res))
        c1 = int(np.floor((x[i] + 120.0) / res))
        r0 = int(np.floor((y[i] - 120.0) / res))
        r1 = int(np.floor((y[i] + 120.0) / res))
        cs = np.arange(c0, c1 + 1)
        rs = np.arange(r0, r1 + 1)
        cx = cs * res + res / 2.0
        cy = rs * res + res / 2.0
        vals = []
        for rr, yy in zip(rs, cy):
            for cc, xx in zip(cs, cx):
                if (xx - x[i]) ** 2 + (yy - y[i]) ** 2 <= 120.0 ** 2:
                    v = float(synth.field_ndvi(np.array([xx]),
                                               np.array([yy]))[0])
                    vals.append(np.floor(max(v, 0.0) * MEDIAN_Q + 0.5))
        exp = np.median(np.array(vals, dtype=np.int64))
        assert out.column("median_q")[i].as_py() == exp
        assert out.column("n_pix")[i].as_py() == len(vals)

    # even-count interpolation: numpy (a+b)/2 == duckdb quantile_cont
    got = duckdb.sql(
        "SELECT quantile_cont(v, 0.5) FROM (VALUES (3), (8)) t(v)"
    ).fetchone()[0]
    assert got == np.median(np.array([3, 8], dtype=np.int64)) == 5.5


def test_zonal_median_gate_drops_pixelless_disks(world, monkeypatch):
    """The zonal_median gate gives no row to a PoI whose disk holds no
    pixel (outside the tiled world), like its oracle's inner join;
    in-world PoIs keep theirs."""
    from greenex_py_ray.pipelines import driver_queries as dq

    docs = doc_src.decode_geom(doc_src.read_documents(world["documents"]))
    inside = _table(docs.select_columns(["doc_id", "x", "y"])).slice(0, 20)
    outside = pa.table({"doc_id": ["outside"], "x": [-1e6], "y": [-1e6]},
                       schema=inside.schema)
    poi = ray.data.from_arrow(pa.concat_tables([inside, outside]))
    monkeypatch.setattr(dq, "_world_poi", lambda limit=None: (poi, world))
    out = _table(dq.q_zonal_median("unused"))
    assert (sorted(out.column("doc_id").to_pylist())
            == sorted(inside.column("doc_id").to_pylist()))
    assert min(out.column("n_pix").to_pylist()) > 0


def test_landcover_majority_matches_class_count_argmax(world):
    """landcover_majority is the argmax of each disk's per-class pixel
    counts (numpy oracle over the exact pixel set), cnt_major and
    cnt_total included."""
    radius = 500.0
    doc_ids, x, y = decode_world_docs(world)
    ds = doc_src.decode_geom(doc_src.read_documents(world["documents"]))
    out = (availability.landcover_majority(
        ds.select_columns(["doc_id", "x", "y"]), world["tiles"], radius,
        concurrency=2).to_pandas().set_index("doc_id"))
    assert len(out) == len(doc_ids)
    codes = sorted(availability.DEFAULT_CLASSMAP)
    for i in np.random.default_rng(13).choice(len(doc_ids), 30, replace=False):
        vals = oracle_disk_values("lulc", x[i], y[i], radius)
        counts = np.array([(vals == c).sum() for c in codes])
        row = out.loc[doc_ids[i]]
        assert row["majority_class"] == codes[int(np.argmax(counts))], i
        assert row["cnt_major"] == counts.max(), i
        assert row["cnt_total"] == vals.size, i


def test_landcover_majority_ties_go_to_smallest_code(world):
    """Equal top counts pick the smallest class code; a row with no
    pixel gets a null majority from the kernel."""
    from greenex_py_ray.stages.zonal import LandcoverMajorityLocal

    kernel = LandcoverMajorityLocal(world["tiles"], 100.0,
                                    availability.DEFAULT_CLASSMAP)
    counts = np.array([[3, 3, 0, 0, 0, 0], [0, 1, 5, 0, 0, 5],
                       [0, 0, 0, 0, 0, 0]], dtype=np.int64)
    kernel._counts = lambda batch: (counts, counts.sum(axis=1))
    batch = pa.table({"doc_id": ["a", "b", "c"], "x": [1.0] * 3,
                      "y": [1.0] * 3})
    out = kernel(batch)
    assert out.column("majority_class").to_pylist() == [10, 40, None]
    assert out.column("cnt_major").to_pylist() == [3, 5, None]
    assert out.column("cnt_total").to_pylist() == [6, 11, 0]


def test_landcover_majority_drops_pixelless_disks(world):
    """A PoI whose disk holds no pixel (outside the tiled world) gets
    no landcover_majority row, like the gate oracle's inner join;
    in-world PoIs keep theirs."""
    docs = doc_src.decode_geom(doc_src.read_documents(world["documents"]))
    inside = _table(docs.select_columns(["doc_id", "x", "y"])).slice(0, 20)
    outside = pa.table({"doc_id": ["outside"], "x": [-1e6], "y": [-1e6]},
                       schema=inside.schema)
    poi = ray.data.from_arrow(pa.concat_tables([inside, outside]))
    out = _table(availability.landcover_majority(poi, world["tiles"], 500.0))
    assert (sorted(out.column("doc_id").to_pylist())
            == sorted(inside.column("doc_id").to_pylist()))
    assert min(out.column("cnt_total").to_pylist()) > 0


def _table(ds) -> pa.Table:
    return pa.concat_tables(
        list(ds.iter_batches(batch_size=None, batch_format="pyarrow")))


def _by_doc_id(tbl: pa.Table) -> pa.Table:
    return tbl.take(pa.compute.sort_indices(tbl.column("doc_id")))


def _operator_names(ds) -> list[str]:
    out, todo = [], [ds._get_stats_summary()]
    while todo:
        s = todo.pop()
        out += [op.operator_name for op in s.operators_stats]
        todo += s.parents
    return out


def test_append_path_matches_bucket_join(world):
    """The public API's append path equals the keyed join of the same
    kernel output onto the documents: values, spans, column order."""
    import greenex_py_ray as gx
    from greenex_py_ray.functions.joins import bucket_join_attach

    docs = doc_src.read_documents(world["documents"])
    poi = doc_src.decode_geom(docs).select_columns(["doc_id", "x", "y"])
    cases = [
        (gx.get_mean_NDVI(world["documents"], world["tiles"], buffer_dist=300.0),
         availability.mean_ndvi(poi, world["tiles"], 300.0)),
        (gx.get_landcover_percentages(world["documents"], world["tiles"],
                                      buffer_dist=500.0),
         availability.landcover_percentages(poi, world["tiles"], 500.0,
                                            stringify=True)),
    ]
    for got, metrics in cases:
        a = _by_doc_id(_table(got))
        b = _by_doc_id(_table(bucket_join_attach(docs, metrics, key="doc_id")))
        assert a.num_rows == 300
        assert a.column_names == b.column_names
        assert a.equals(b)


def test_mean_ndvi_plan_is_one_read_no_exchange(world):
    """get_mean_NDVI reads the documents once, runs no all-to-all
    operator, and Ray logs no schema-mismatch warning."""
    import logging

    import greenex_py_ray as gx

    warnings = []

    class Collect(logging.Handler):
        def emit(self, record):
            warnings.append(record.getMessage())

    handler = Collect(level=logging.WARNING)
    logger = logging.getLogger("ray.data")
    logger.addHandler(handler)
    try:
        ds = gx.get_mean_NDVI(world["documents"], world["tiles"],
                              buffer_dist=300.0)
        assert _table(ds).num_rows == 300
    finally:
        logger.removeHandler(handler)
    names = _operator_names(ds)
    assert sum("ReadParquet" in n for n in names) == 1, names
    exchange = ("Sort", "Aggregate", "MapGroups", "Repartition", "Shuffle",
                "Union", "Join")
    assert not [n for n in names if any(k in n for k in exchange)], names
    assert not [m for m in warnings if "different schema" in m]


def test_append_metrics_fails_loud(world):
    """A kernel that drops or reorders rows raises instead of losing
    documents the way an inner join would."""
    import pytest

    from greenex_py_ray.functions.joins import (
        KernelStage, append_columns, append_metrics)

    class DropLast:
        def __call__(self, batch):
            return pa.table({"doc_id": batch.column("doc_id"),
                             "m": pa.array(np.zeros(batch.num_rows))}
                            ).slice(0, batch.num_rows - 1)

    ds = append_metrics(doc_src.read_documents(world["documents"]),
                        KernelStage(DropLast, {}, dict(concurrency=1)))
    with pytest.raises(Exception, match="one row per input row"):
        ds.materialize()

    batch = pa.table({"doc_id": ["a", "b"], "v": [1, 2]})
    swapped = pa.table({"doc_id": ["b", "a"], "m": [0.5, 0.25]})
    with pytest.raises(ValueError, match="input row order"):
        append_columns(batch, swapped)
    assert append_columns(batch, swapped.take([1, 0])).column_names == [
        "doc_id", "v", "m"]


@pytest.mark.parametrize("width", [None, 3])
def test_kernel_stage_on_one_block_logs_no_concurrency_warning(world, width):
    """A kernel stage built without a width passes Ray no task cap, and
    a width over in-memory data is capped at its block count, so a
    one-block input does not make Ray warn that the cap is more tasks
    than the operator has inputs."""
    import warnings

    from greenex_py_ray.functions.joins import append_metrics

    docs = ray.data.from_arrow(pq.read_table(world["documents"]).slice(0, 50))
    stage = availability.mean_ndvi_stage(world["tiles"], 300.0,
                                         concurrency=width)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = _table(append_metrics(docs, stage))
    assert out.num_rows == 50
    assert not [w for w in caught
                if "maximum number of concurrent tasks" in str(w.message)]


def test_kernel_cache_builds_once_per_process():
    """Two runs of the same stage build its kernel at most once in each
    worker process: the second run reuses the first run's instances."""
    import os
    import uuid

    from greenex_py_ray.functions.joins import KernelStage

    class Pid:
        def __init__(self):
            self.build = uuid.uuid4().hex

        def __call__(self, batch):
            n = batch.num_rows
            return pa.table({"doc_id": batch.column("doc_id"),
                             "pid": pa.array([os.getpid()] * n, pa.int64()),
                             "build": pa.array([self.build] * n)})

    poi = ray.data.from_items([{"doc_id": str(i)} for i in range(256)],
                              override_num_blocks=8)
    runs = [_table(KernelStage(Pid, {}, dict(batch_size=16,
                                             concurrency=2)).on(poi))
            for _ in range(2)]
    builds = {}
    for t in runs:
        for pid, build in zip(t.column("pid").to_pylist(),
                              t.column("build").to_pylist()):
            builds.setdefault(pid, set()).add(build)
    assert all(len(b) == 1 for b in builds.values()), builds
    pids = [set(t.column("pid").to_pylist()) for t in runs]
    assert pids[0] & pids[1], pids


def test_kernel_stage_on_runs_a_pandas_batch_kernel():
    """``map_kwargs`` override the stage's pyarrow defaults: a kernel
    asking for pandas batches gets DataFrames, and its DataFrame output
    comes back as rows."""
    import pandas as pd

    from greenex_py_ray.functions.joins import KernelStage

    class Scale:
        def __init__(self, k):
            self.k = k

        def __call__(self, batch):
            assert isinstance(batch, pd.DataFrame)
            return pd.DataFrame({"doc_id": batch["doc_id"],
                                 "v": batch["v"] * self.k})

    poi = ray.data.from_items([{"doc_id": f"{i:03d}", "v": i}
                               for i in range(64)], override_num_blocks=4)
    out = _by_doc_id(_table(KernelStage(
        Scale, dict(k=3), dict(batch_format="pandas", batch_size=16)).on(poi)))
    assert out.column("doc_id").to_pylist() == [f"{i:03d}" for i in range(64)]
    assert out.column("v").to_pylist() == [3 * i for i in range(64)]


def test_kernel_cache_sees_tile_store_rewritten_in_place(world, tmp_path):
    """A tile store rewritten at the same path is read afresh: the
    cached kernel's key carries the files' mtime and size."""
    import os
    import shutil

    import greenex_py_ray as gx

    tiles = str(tmp_path / "tiles")
    shutil.copytree(world["tiles"], tiles)

    def mean_ndvi():
        t = _table(gx.get_mean_NDVI(world["documents"], tiles,
                                    buffer_dist=300.0))
        return _by_doc_id(t).column("mean_NDVI").to_pylist()

    before = mean_ndvi()
    path = os.path.join(tiles, "tiles_ndvi.parquet")
    t = pq.read_table(path)
    flat = [np.full(h * w, 0.25).tobytes() for h, w in
            zip(t.column("h").to_pylist(), t.column("w").to_pylist())]
    pq.write_table(t.set_column(t.schema.get_field_index("data"), "data",
                                pa.array(flat, pa.binary())), path)
    after = mean_ndvi()
    assert before != after
    assert set(after) == {0.25}


def test_geom_probe_of_a_path_runs_no_ray_job(world, monkeypatch):
    """The geometry-type probe of a documents path reads the first row
    with pyarrow in the calling process, not through a ``limit(1)``
    Ray job."""
    import greenex_py_ray as gx

    def no_limit(self, *args, **kwargs):
        raise AssertionError("Dataset.limit called")

    monkeypatch.setattr(ray.data.Dataset, "limit", no_limit)
    ds = gx.get_mean_NDVI(world["documents"], world["tiles"],
                          buffer_dist=300.0)
    assert _table(ds).num_rows == 300
