"""Traced run: spans around the API call, the consume step and in-process
calls into each layer's public functions, plus Ray's own operator stats.

Layer calls run in the worker process on the workload's inputs.  Layers
the workload's API call does not reach run on at most
``spec.OFF_PATH_ROWS`` rows (``spec.VIS_LAYER_DOCS`` documents for the
viewshed kernel), so every per-layer metric exists on every workload.
"""

from __future__ import annotations

import os
import shutil
import time
from contextlib import contextmanager

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from . import spec

#: Sub-operator names of Ray Data's all-to-all (exchange) operators.
_EXCHANGE = ("Sort", "Aggregate", "Repartition", "Shuffle", "Join", "GroupBy")


class Tracer:
    """In-memory spans: name, start, end, parent id and run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "run_id": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.monotonic(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.monotonic()
            self._stack.pop()

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


def operator_stats(ds) -> list:
    """Flattened ``OperatorStatsSummary`` list of an executed Dataset."""
    out, todo, seen = [], [ds._get_stats_summary()], set()
    while todo:
        s = todo.pop()
        if id(s) in seen:
            continue
        seen.add(id(s))
        out.extend(s.operators_stats)
        todo.extend(s.parents)
    return out


def peak_heap_mb(ds) -> float:
    """Largest per-operator peak heap memory in the Dataset's stats."""
    return max((op.memory or {}).get("max", 0.0) for op in operator_stats(ds))


def exchange_stats(ds) -> tuple[float, int]:
    """Seconds and output bytes summed over all-to-all operators."""
    secs, nbytes = 0.0, 0
    for op in operator_stats(ds):
        if any(k in op.operator_name for k in _EXCHANGE):
            secs += op.time_total_s or 0.0
            nbytes += int((op.output_size_bytes or {}).get("sum", 0))
    return secs, nbytes


def _timed_store(tile_root: str):
    """A ``TileStore`` that also sums the seconds spent in ``get``."""
    from greenex_py_ray.state.tiles import TileStore

    class TimedTileStore(TileStore):
        busy_s = 0.0

        def get(self, band, tix, tiy):
            t = time.perf_counter()
            try:
                return super().get(band, tix, tiy)
            finally:
                self.busy_s += time.perf_counter() - t

    return TimedTileStore(tile_root)


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def run_layers(tr: Tracer, workload: str, paths: dict, out_dir: str) -> dict:
    """Time each layer in this process; returns per-layer metric values
    (without the ``api.*``, ``ray.*``, ``engine.*`` and ``trace.*``
    ones, which come from the traced API call)."""
    import ray.data

    from greenex_py_ray import api
    from greenex_py_ray.functions.joins import bucket_join_attach
    from greenex_py_ray.lineage import resumable_write
    from greenex_py_ray.pipelines import visibility as vis_pipe
    from greenex_py_ray.sources.documents import DecodeGeom
    from greenex_py_ray.stages import visibility as vis
    from greenex_py_ray.stages.access import NearestGreenspace
    from greenex_py_ray.stages.zonal import ZonalStatsLocal

    # each layer runs with the parameters of the workload that drives it
    radius = spec.WORKLOADS["ndvi_docs"]["buffer_dist"]
    vis_buffer = spec.WORKLOADS["viewshed_gvi"]["buffer_dist"]
    target = spec.WORKLOADS["access_write"]["target_dist"]
    on_path = spec.IN_PATH[workload]
    m: dict[str, float] = {}

    def cap(layer: str, t: pa.Table, rows: int = spec.OFF_PATH_ROWS) -> pa.Table:
        return t if layer in on_path else t.slice(0, rows)

    with tr.span("sources.read"):
        docs = pq.read_table(paths["documents"])
    with tr.span("sources.decode"):
        pts = DecodeGeom()(docs).select(["doc_id", "x", "y"])
    m["sources.read_s"] = tr.seconds("sources.read")
    m["sources.read_bytes"] = _dir_bytes(paths["documents"])
    m["sources.decode_s"] = tr.seconds("sources.decode")
    m["sources.rows"] = docs.num_rows

    zonal = ZonalStatsLocal(paths["tiles"], "ndvi", radius)
    zonal.store = _timed_store(paths["tiles"])
    zin = cap("stages.zonal", pts)
    with tr.span("stages.zonal"):
        zout = zonal(zin)
    m["stages.zonal.busy_s"] = tr.seconds("stages.zonal")
    m["stages.zonal.rows"] = zin.num_rows

    vin = cap("stages.visibility", pts, spec.VIS_LAYER_DOCS)
    edges = vis_pipe.edge_coords_table(paths["network_nodes"], paths["network_edges"])
    sampler = vis.SamplePointsViewshed(edges, buffer_dist=vis_buffer, sample_dist=50.0)
    with tr.span("stages.visibility.sample"):
        sp = sampler(vin)
    kernel = vis.ViewshedGVI(paths["tiles"], viewing_dist=250.0)
    kernel.store = _timed_store(paths["tiles"])
    with tr.span("stages.visibility.kernel"):
        scored = kernel(sp)
    m["stages.visibility.sample_s"] = tr.seconds("stages.visibility.sample")
    m["stages.visibility.sample_points"] = sp.num_rows
    m["stages.visibility.kernel_s"] = tr.seconds("stages.visibility.kernel")
    m["state.viewshed.us_per_point"] = 1e6 * m["stages.visibility.kernel_s"] / max(1, sp.num_rows)

    store = kernel.store if workload == "viewshed_gvi" else zonal.store
    m["state.tiles.hits"] = store.hits
    m["state.tiles.misses"] = store.misses
    m["state.tiles.load_s"] = store.busy_s

    gs = api._dissolve_units(pq.read_table(paths["greenspace"]))
    centroids = pa.table({"gs_id": gs.column("gs_id"), "cx": gs.column("centroid_x"),
                          "cy": gs.column("centroid_y")})
    ain = cap("stages.access", pts)
    flag = f"greenspace_within_{int(target)}m"
    with tr.span("stages.access"):
        aout = NearestGreenspace(centroids, target, flag_name=flag)(ain)
    m["stages.access.busy_s"] = tr.seconds("stages.access")

    if workload == "ndvi_docs":
        metrics = zout
    elif workload == "access_write":
        metrics = aout.select(["doc_id", "distance_to_greenspace", flag])
    else:
        metrics = _rollup(scored)
    left = ray.data.from_arrow(docs).materialize()
    right = ray.data.from_arrow(metrics).materialize()
    with tr.span("functions.joins.attach"):
        joined = bucket_join_attach(left, right, key="doc_id").materialize()
    m["functions.joins.attach_s"] = tr.seconds("functions.joins.attach")
    m["functions.joins.attach_rows"] = joined.count()
    m["functions.joins.attach_bytes"] = left.size_bytes() + right.size_bytes()

    if "lineage" not in on_path:
        joined = joined.limit(spec.OFF_PATH_ROWS).materialize()
    shutil.rmtree(out_dir, ignore_errors=True)
    with tr.span("lineage.write"):
        manifest = resumable_write(joined, out_dir, key="doc_id")
    m["lineage.write_s"] = tr.seconds("lineage.write")
    m["lineage.bytes_written"] = sum(r["bytes"] for r in manifest)
    m["lineage.partitions"] = len(manifest)
    shutil.rmtree(out_dir, ignore_errors=True)
    return m


def gvi_rollup(scored: pa.Table) -> tuple[list, np.ndarray, np.ndarray]:
    """Per-doc unrounded mean GVI and sample-point count of the kernel's
    per-point output."""
    keys = scored.column("doc_id").to_numpy(zero_copy_only=False)
    gvi = scored.column("GVI").to_numpy(zero_copy_only=False)
    uniq, inv = np.unique(keys, return_inverse=True)
    n = np.bincount(inv)
    return uniq.tolist(), np.bincount(inv, gvi) / n, n


def _rollup(scored: pa.Table) -> pa.Table:
    keys, mean, n = gvi_rollup(scored)
    return pa.table({"doc_id": pa.array(keys, pa.string()),
                     "GVI": pa.array(np.round(mean, 3)),
                     "nr_of_points": pa.array(n.astype(np.int64))})


#: Busy-time metric(s) of each layer, counted by ``engine.cpu_per_busy``
#: when the layer is on the workload's path (tile loads are part of the
#: zonal and viewshed calls, so they are not counted twice).
_BUSY = {
    "sources": ("sources.read_s", "sources.decode_s"),
    "stages.zonal": ("stages.zonal.busy_s",),
    "stages.visibility": ("stages.visibility.sample_s", "stages.visibility.kernel_s"),
    "stages.access": ("stages.access.busy_s",),
    "functions.joins": ("functions.joins.attach_s",),
    "lineage": ("lineage.write_s",),
}


def in_path_busy(workload: str, m: dict) -> float:
    """Seconds of useful in-process layer work on the workload's path."""
    return sum(m[k] for layer in spec.IN_PATH[workload] for k in _BUSY.get(layer, ()))
