"""Workloads, metrics and the layer map of the benchmark: one source
for the runner, the worker, the self-tests and ``BENCHMARK.json``."""

from __future__ import annotations

#: Ray cluster width every timed process starts with.
NUM_CPUS = 4
#: Object store cap, so a run stays small on a shared machine.
OBJECT_STORE_BYTES = 1_000_000_000

#: Workload → input size and call parameters.  ``n_docs`` is the size
#: handed to ``synth.ensure_world``; ``sample`` is how many keys the
#: output check recomputes independently.  ``viewshed_gvi`` runs by
#: hand only: its calls take ~12 s and stall now and then, which does
#: not fit the run budget of ``BENCHMARK.json``; its layers are still
#: timed in every traced run.
WORKLOADS = {
    "ndvi_docs": dict(n_docs=20_000, buffer_dist=300.0, sample=256,
                      columns={"mean_NDVI": (0, 3), "std_NDVI": (1, 3)}),
    "viewshed_gvi": dict(n_docs=200, buffer_dist=100.0, sample=48,
                         columns={"GVI": (0, 3), "nr_of_points": (1, None)}),
    "access_write": dict(n_docs=20_000, target_dist=300.0, sample=256,
                         columns={"distance_to_greenspace": (0, 0),
                                  "greenspace_within_300m": (1, None)}),
}

#: Extra setup-only processes per run; with the worker's own start
#: the reported ``setup_s`` is a median of ``SETUP_PROBES + 1``.
SETUP_PROBES = 1

#: Untimed calls before the timed closed loop (actor pools and worker
#: imports warm up on the first call).
WARMUP_CALLS = 1
#: Timed calls run until both this many are done and ``--seconds`` of
#: wall time have passed.
MIN_TIMED_CALLS = 2

#: A worker still running this many seconds after its run started is
#: killed and the run fails; a setup probe gets ``SETUP_DEADLINE_S``.
RUN_DEADLINE_S = 160
SETUP_DEADLINE_S = 30

#: In-process layer calls of the traced run never take more rows than
#: this for layers the workload's API call does not reach, and never
#: more than ``VIS_LAYER_DOCS`` documents for the viewshed kernel.
OFF_PATH_ROWS = 2_000
VIS_LAYER_DOCS = 200

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("pois_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_heap_mb", "MB", "lower"),
]

#: Per-layer metric → (unit, better, [(end-to-end metric, workload)…]
#: it should move).  On other workloads the prediction is little or no
#: change.
PER_LAYER = {
    "api.call_s": ("s", "lower", [("pois_per_s", "viewshed_gvi"),
                                  ("pois_per_s", "ndvi_docs")]),
    "api.consume_s": ("s", "lower", [("pois_per_s", "viewshed_gvi"),
                                     ("pois_per_s", "ndvi_docs")]),
    "sources.read_s": ("s", "lower", [("pois_per_s", "ndvi_docs"),
                                      ("pois_per_s", "access_write")]),
    "sources.read_bytes": ("bytes", "lower", [("pois_per_s", "ndvi_docs"),
                                              ("pois_per_s", "access_write")]),
    "sources.decode_s": ("s", "lower", [("pois_per_s", "ndvi_docs"),
                                        ("pois_per_s", "access_write")]),
    "sources.rows": ("count", "higher", [("pois_per_s", "ndvi_docs"),
                                         ("pois_per_s", "access_write")]),
    "stages.zonal.busy_s": ("s", "lower", [("pois_per_s", "ndvi_docs"),
                                           ("cpu_s", "ndvi_docs")]),
    "stages.zonal.rows": ("count", "higher", [("pois_per_s", "ndvi_docs")]),
    "state.tiles.hits": ("count", "higher", [("pois_per_s", "ndvi_docs"),
                                             ("pois_per_s", "viewshed_gvi")]),
    "state.tiles.misses": ("count", "lower", [("pois_per_s", "ndvi_docs"),
                                              ("pois_per_s", "viewshed_gvi")]),
    "state.tiles.load_s": ("s", "lower", [("pois_per_s", "ndvi_docs"),
                                          ("pois_per_s", "viewshed_gvi")]),
    "stages.visibility.sample_s": ("s", "lower",
                                   [("pois_per_s", "viewshed_gvi"),
                                    ("cpu_s", "viewshed_gvi")]),
    "stages.visibility.sample_points": ("count", "higher",
                                        [("pois_per_s", "viewshed_gvi")]),
    "stages.visibility.kernel_s": ("s", "lower",
                                   [("pois_per_s", "viewshed_gvi"),
                                    ("cpu_s", "viewshed_gvi")]),
    "state.viewshed.us_per_point": ("us", "lower",
                                    [("pois_per_s", "viewshed_gvi"),
                                     ("cpu_s", "viewshed_gvi")]),
    "stages.access.busy_s": ("s", "lower", [("pois_per_s", "access_write")]),
    "functions.joins.attach_s": ("s", "lower", [("pois_per_s", "ndvi_docs"),
                                                ("pois_per_s", "access_write")]),
    "functions.joins.attach_rows": ("count", "higher",
                                    [("pois_per_s", "ndvi_docs"),
                                     ("pois_per_s", "access_write")]),
    "functions.joins.attach_bytes": ("bytes", "lower",
                                     [("pois_per_s", "ndvi_docs"),
                                      ("pois_per_s", "access_write")]),
    "lineage.write_s": ("s", "lower", [("pois_per_s", "access_write")]),
    "lineage.bytes_written": ("bytes", "lower", [("pois_per_s", "access_write")]),
    "lineage.partitions": ("count", "higher", [("pois_per_s", "access_write")]),
    "ray.exchange_s": ("s", "lower", [("pois_per_s", "ndvi_docs"),
                                      ("pois_per_s", "access_write")]),
    "ray.exchange_bytes": ("bytes", "lower", [("pois_per_s", "ndvi_docs"),
                                              ("pois_per_s", "access_write")]),
    "engine.cpu_per_busy": ("ratio", "lower", [("cpu_s", "ndvi_docs"),
                                               ("cpu_s", "viewshed_gvi"),
                                               ("cpu_s", "access_write")]),
    "trace.overhead_s": ("s", "lower", []),
}

#: Layers each workload's API call runs through; other layers are
#: timed on at most ``OFF_PATH_ROWS`` rows in its traced run.
IN_PATH = {
    "ndvi_docs": {"sources", "stages.zonal", "state.tiles", "functions.joins"},
    "viewshed_gvi": {"sources", "stages.visibility", "state.tiles",
                     "state.viewshed", "functions.joins"},
    "access_write": {"sources", "stages.access", "functions.joins",
                     "lineage"},
}
