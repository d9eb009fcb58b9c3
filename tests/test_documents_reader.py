"""The documents reader (``sources/documents.read_documents``) and the
append path that runs inside its read tasks: the task plan, what the
tasks read, the fused plan of the public API, the kernel batch cap and
the mixed-geometry check."""

import ast
import glob
import inspect
import os
import re
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray
import ray.data

import greenex_py_ray as gx
from greenex_py_ray.functions.joins import (KernelStage, append_metrics,
                                            cluster_cpus)
from greenex_py_ray.sources import documents as doc_src
from greenex_py_ray.sources.synth import DOC_SCHEMA, SPAN_TYPE


def _docs(ids, wkts):
    rows = [[{"kind": "geom", "text": w, "media_ref": "m", "offset": 1}]
            if w else [{"kind": "text", "text": "no geometry",
                        "media_ref": "", "offset": 0}]
            for w in wkts]
    return pa.table({"doc_id": pa.array(ids, pa.string()),
                     "spans": pa.array(rows, pa.list_(SPAN_TYPE))},
                    schema=DOC_SCHEMA)


def _point_docs(start, n):
    return _docs([f"d{i:05d}" for i in range(start, start + n)],
                 [f"POINT({1000.0 + 7 * i!r} {2000.0 + 3 * i!r})"
                  for i in range(start, start + n)])


def _fragments(tmp_path, sizes, row_group_size):
    """A directory of fragments of ``sizes`` rows (ids in file order),
    written with pandas schema metadata like the synthetic world."""
    root = tmp_path / "docs"
    root.mkdir()
    start = 0
    for f, n in enumerate(sizes):
        t = _point_docs(start, n).replace_schema_metadata(
            {b"pandas": b'{"index_columns": []}'})
        pq.write_table(t, str(root / f"frag-{f:05d}.parquet"),
                       row_group_size=row_group_size)
        start += n
    return str(root)


def _expected(path):
    files = sorted(glob.glob(os.path.join(path, "*.parquet")))
    return pa.concat_tables([pq.read_table(f) for f in files])


def _read(ds) -> pa.Table:
    """``ds``'s blocks in task order (Ray yields them as tasks finish
    unless asked to keep the order)."""
    ds.context.execution_options.preserve_order = True
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


@pytest.mark.parametrize("sizes,rgs", [
    ((37, 0, 101, 64), 16),    # several fragments, an empty one, uneven groups
    ((3,), 2),                 # fewer rows than CPUs
    ((50, 29), 50),            # one row group per fragment
])
def test_read_equals_files_in_sorted_order(tmp_path, sizes, rgs):
    path = _fragments(tmp_path, sizes, rgs)
    got = _read(doc_src.read_documents(path))
    want = _expected(path)
    assert got.schema.metadata is None
    assert want.schema.metadata  # the files do carry metadata
    assert got.schema == want.schema.remove_metadata()
    assert got.to_pylist() == want.to_pylist()


def test_leaf_projection_reads_kind_and_text(tmp_path):
    path = _fragments(tmp_path, (40, 23), 8)
    ds = doc_src.read_documents(path, fields=("kind", "text"))
    got = _read(ds)
    assert got.schema.metadata is None
    assert got.schema == ds.schema().base_schema
    assert [f.name for f in got.column("spans").type.value_type] == [
        "kind", "text"]
    want = _expected(path)
    assert got.column("doc_id").to_pylist() == want.column("doc_id").to_pylist()
    assert [[(s["kind"], s["text"]) for s in r] for r in
            got.column("spans").to_pylist()] == \
        [[(s["kind"], s["text"]) for s in r] for r in
         want.column("spans").to_pylist()]


def test_plan_takes_whole_row_groups():
    """Tasks of whole row groups near-equal in rows: no group in two
    tasks, no more tasks than groups, every row once and in order."""
    groups = [("a", 0, 10, 100), ("a", 1, 3, 30), ("b", 0, 0, 0),
              ("b", 1, 8, 80), ("b", 2, 4, 40)]
    assert doc_src.plan_reads(groups, 2) == [
        [("a", 0, 10), ("a", 1, 3)], [("b", 1, 8), ("b", 2, 4)]]
    assert doc_src.plan_reads(groups, 4) == [
        [("a", 0, 10)], [("a", 1, 3)], [("b", 1, 8)], [("b", 2, 4)]]
    # more tasks than non-empty groups: one task per group
    assert doc_src.plan_reads(groups, 64) == doc_src.plan_reads(groups, 4)
    assert doc_src.plan_reads(groups, 1) == [
        [("a", 0, 10), ("a", 1, 3), ("b", 1, 8), ("b", 2, 4)]]
    assert doc_src.plan_reads([("a", 0, 0, 0)], 4) == [[]]
    equal = [("a", g, 16, 1) for g in range(19)]
    tasks = doc_src.plan_reads(equal, 4)
    assert [len(t) for t in tasks] == [5, 4, 5, 5]
    assert [g for t in tasks for g in t] == [(f, g, n) for f, g, n, _ in equal]


def test_limited_plan_takes_the_first_rows_in_file_order(tmp_path):
    """Two fragments: a limit reads rows [0, L) in file order, each row
    group in one task only, however the fragments finish; Ray splits
    the read's blocks, so the next stage still gets several."""
    path = _fragments(tmp_path, (30, 30), 8)
    _, groups = doc_src._row_groups(path, None)
    offsets, first = {}, 0
    for f, rg, n, _ in groups:
        offsets[f, rg] = first
        first += n
    for limit in (5, 30, 41):
        tasks = doc_src.plan_reads(doc_src._first_rows(groups, limit), 4)
        read = [(f, rg) for t in tasks for f, rg, _ in t]
        assert len(read) == len(set(read))
        rows = [offsets[f, rg] + r for t in tasks for f, rg, n in t
                for r in range(n)]
        assert rows == list(range(limit))
        ds = doc_src.read_documents(path, limit=limit)
        ds.context.execution_options.preserve_order = True
        ds = ds.materialize()
        assert ds.num_blocks() >= 2
        assert _read(ds).column("doc_id").to_pylist() == [
            f"d{i:05d}" for i in range(limit)]


def test_single_row_group_is_read_once(tmp_path, monkeypatch):
    """A file of one row group is one read task that reads the group
    once, and reports the group's whole size."""
    path = _fragments(tmp_path, (200,), 1 << 20)
    src = doc_src._DocumentsSource(path)
    (task,) = src.get_read_tasks(1)
    (_, _, _, size), = doc_src._row_groups(path, None)[1]
    assert task.metadata.num_rows == 200
    assert task.metadata.size_bytes == size
    reads = []
    group = pq.ParquetFile.read_row_group
    monkeypatch.setattr(pq.ParquetFile, "read_row_group",
                        lambda self, i, **kw: reads.append(i) or group(
                            self, i, **kw))
    blocks = list(task())
    assert reads == [0]
    assert sum(b.num_rows for b in blocks) == 200


def test_tasks_are_planned_when_ray_runs_the_read(tmp_path, monkeypatch):
    """The task count follows the cluster's CPUs when the read runs,
    not when the Dataset was built."""
    from greenex_py_ray.functions import joins

    path = _fragments(tmp_path, (160,), 16)
    src = doc_src._DocumentsSource(path)
    monkeypatch.setattr(joins, "cluster_cpus", lambda default=8: 3)
    assert len(src.get_read_tasks(1)) == 3
    monkeypatch.setattr(joins, "cluster_cpus", lambda default=8: 6)
    assert len(src.get_read_tasks(1)) == 6


_NO_INIT = """
import re, sys
import ray
import greenex_py_ray as gx
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
ds = gx.get_mean_NDVI(sys.argv[1], sys.argv[2], buffer_dist=300.0)
n = sum(b.num_rows for b in ds.iter_batches(batch_size=None,
                                             batch_format="pyarrow"))
tasks = {o.operator_name: int(re.search(r"(\\d+) tasks executed",
                                        o.block_execution_summary_str)[1])
         for o in ds._get_stats_summary().operators_stats}
print(n, int(ray.cluster_resources()["CPU"]), tasks)
"""


def test_api_plans_the_read_without_a_prior_ray_init(world, tmp_path):
    """A script that leaves starting Ray to Ray Data gets one fused task
    per CPU of the cluster Ray starts, not a fixed default."""
    path = _resplit(world, tmp_path, 8)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(gx.__file__))]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
           if p]))
    env.pop("RAY_ADDRESS", None)
    p = subprocess.run([sys.executable, "-c", _NO_INIT, path, world["tiles"]],
                       capture_output=True, text=True, timeout=300, env=env)
    assert p.returncode == 0, p.stderr[-3000:]
    n, cpus, tasks = p.stdout.strip().splitlines()[-1].split(" ", 2)
    assert int(n) == 300
    assert ast.literal_eval(tasks) == {
        "ReadDocuments->MapBatches(_run_kernel)": min(int(cpus), 38)}


def test_ray_read_task_signatures():
    """The reader builds ``ReadTask(read_fn, metadata, schema=…)`` and
    ``BlockMetadata(num_rows, size_bytes, exec_stats, input_files)``;
    Ray has changed both between releases."""
    from ray.data.block import BlockMetadata
    from ray.data.datasource import ReadTask

    assert list(inspect.signature(ReadTask.__init__).parameters)[:4] == [
        "self", "read_fn", "metadata", "schema"]
    assert list(inspect.signature(BlockMetadata).parameters) == [
        "num_rows", "size_bytes", "exec_stats", "input_files"]


def _operator_tasks(ds) -> dict:
    """Executed operator name → its task count, from Ray's stats."""
    out, todo = {}, [ds._get_stats_summary()]
    while todo:
        s = todo.pop()
        for op in s.operators_stats:
            m = re.search(r"(\d+) tasks executed",
                          op.block_execution_summary_str)
            out[op.operator_name] = int(m.group(1)) if m else None
        todo += s.parents
    return out


def _resplit(world, tmp_path, rows):
    """The world's documents rewritten as one file of ``rows``-row
    groups."""
    path = str(tmp_path / "docs.parquet")
    pq.write_table(_expected(world["documents"]), path, row_group_size=rows)
    return path


def test_api_runs_one_fused_read_task_per_cpu(world, tmp_path):
    """get_mean_NDVI and get_shortest_distance_greenspace on a path each
    execute as one read operator fused with the kernel map, one task
    per CPU (the file has more row groups than CPUs)."""
    path = _resplit(world, tmp_path, 16)
    for ds in (gx.get_mean_NDVI(path, world["tiles"], buffer_dist=300.0),
               gx.get_shortest_distance_greenspace(
                   path, world["greenspace"], target_dist=300.0)):
        assert _read(ds).num_rows == 300
        ops = _operator_tasks(ds)
        fused = [n for n in ops
                 if n.startswith("Read") and n.endswith(
                     "->MapBatches(_run_kernel)")]
        assert fused == ["ReadDocuments->MapBatches(_run_kernel)"], ops
        assert ops[fused[0]] == cluster_cpus(), ops


def test_api_keeps_costly_kernels_out_of_the_read(world):
    """A stage not marked ``fused`` (the isochrone zonal kernel) keeps
    its own batch size after a read whose blocks Ray splits, so it is
    balanced over several tasks even on one row group."""
    ds = gx.get_mean_NDVI(world["documents"], world["tiles"],
                          buffer_dist=300.0, buffer_type="network",
                          network_nodes_file=world["network_nodes"],
                          network_edges_file=world["network_edges"])
    assert _read(ds).num_rows == 300
    ops = _operator_tasks(ds)
    assert ops["MapBatches(_run_kernel)"] >= 2, ops


def test_limited_read_fans_the_kernel_out(world):
    """A limited read hands the next kernel stage several blocks, so
    the viewshed kernel of a limited gate runs in more than one task."""
    from greenex_py_ray.pipelines.visibility import viewshed_stage

    docs = doc_src.read_documents(world["documents"], fields=("kind", "text"),
                                  limit=120)
    poi = doc_src.decode_geom(docs).select_columns(["doc_id", "x", "y"])
    ds = viewshed_stage(world["network_nodes"], world["network_edges"],
                        world["tiles"], buffer_dist=100.0).on(poi)
    assert _read(ds).num_rows == 120
    tasks = [n for op, n in _operator_tasks(ds).items()
             if op.endswith("MapBatches(_run_kernel)")]
    assert len(tasks) == 1 and tasks[0] >= 2, _operator_tasks(ds)


def test_append_kernel_sees_at_most_batch_size_rows(world):
    class Rows:
        """Reports the rows of the batch it was called on."""

        def __call__(self, batch):
            return pa.table({"doc_id": batch.column("doc_id"),
                             "rows": pa.array(np.full(batch.num_rows,
                                                      batch.num_rows))})

    out = append_metrics(
        doc_src.read_documents(world["documents"], fused=True),
        KernelStage(Rows, {}, dict(batch_size=16), fused=True))
    rows = _read(out).column("rows").to_numpy()
    assert len(rows) == 300
    assert rows.max() == 16
    assert "ReadDocuments->MapBatches(_run_kernel)" in _operator_tasks(out)


def _mixed(tmp_path, wkts):
    path = str(tmp_path / "mixed.parquet")
    pq.write_table(_docs([f"m{i}" for i in range(len(wkts))], wkts), path)
    return path


_POLY = "POLYGON((5000 5000, 5300 5000, 5300 5300, 5000 5300, 5000 5000))"


@pytest.mark.parametrize("call", [
    lambda p, w: gx.get_mean_NDVI(p, w["tiles"], buffer_dist=300.0),
    lambda p, w: gx.get_shortest_distance_greenspace(p, w["greenspace"]),
])
def test_point_first_then_polygon_raises(world, tmp_path, call):
    path = _mixed(tmp_path, ["POINT(5000.0 6000.0)"] * 3 + [_POLY])
    with pytest.raises(Exception,
                       match="geometries must all be of the same type"):
        call(path, world).materialize()


@pytest.mark.parametrize("buffer_type", [None, "euclidean"])
def test_polygon_first_then_point_raises(world, tmp_path, buffer_type):
    path = _mixed(tmp_path, [_POLY, "POINT(5000.0 6000.0)"])
    with pytest.raises(Exception,
                       match="geometries must all be of the same type"):
        gx.get_mean_NDVI(path, world["tiles"], buffer_dist=300.0,
                         buffer_type=buffer_type).materialize()


def test_rows_without_geometry_still_get_nan(world, tmp_path):
    path = _mixed(tmp_path, ["POINT(5000.0 6000.0)", "",
                             "POINT(7000.0 6000.0)"])
    t = _read(gx.get_mean_NDVI(path, world["tiles"], buffer_dist=300.0))
    got = dict(zip(t.column("doc_id").to_pylist(),
                   t.column("mean_NDVI").to_pylist()))
    assert np.isnan(got["m1"])
    assert np.isfinite(got["m0"]) and np.isfinite(got["m2"])
