"""One fresh benchmark process.

Sets up the API (imports plus ``ray.init``) and reports how long that
took from the moment the parent spawned it.  Unless ``--setup-only``, it
then calls the workload's public API function in a closed loop with one
client, consumes each result, and checks it outside the timed interval.
With ``--trace 1`` it adds one traced call and the in-process layer
calls.  The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import time
import traceback


def cpu_times() -> tuple[float, float]:
    """Busy and stolen CPU-seconds of the machine so far, from
    ``/proc/stat`` (busy = user + nice + system + irq + softirq)."""
    with open("/proc/stat") as f:
        fields = f.readline().split()[1:]
    user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, fields[:8])
    hz = os.sysconf("SC_CLK_TCK")
    return (user + nice + system + irq + softirq) / hz, steal / hz


def unstolen(wall: float, busy: float, steal: float) -> float:
    """Wall time scaled by the unstolen share of the CPU demand.  Steal
    is CPU time the hypervisor gave to other guests while this machine's
    CPUs had work, so this estimates the interval on a machine of its
    own."""
    return wall * busy / (busy + steal) if busy + steal > 0 else wall


def call_api(gx, workload: str, paths: dict, out_dir: str):
    """The workload's public API call; returns the lazy result Dataset."""
    from . import spec

    cfg = spec.WORKLOADS[workload]
    if workload == "ndvi_docs":
        return gx.get_mean_NDVI(paths["documents"], paths["tiles"],
                                buffer_dist=cfg["buffer_dist"])
    if workload == "viewshed_gvi":
        rollup, _per_point = gx.get_viewshed_GVI(
            paths["documents"], paths["tiles"], paths["network_nodes"],
            paths["network_edges"], buffer_dist=cfg["buffer_dist"])
        return rollup
    return gx.get_shortest_distance_greenspace(
        paths["documents"], paths["greenspace"], target_dist=cfg["target_dist"],
        write_to_file=True, output_dir=out_dir)


def check_written(out_dir: str, n: int) -> list[str]:
    """``access_write``: the parquet files and manifest account for all
    ``n`` rows."""
    import pyarrow.parquet as pq

    from greenex_py_ray.lineage import read_manifest

    base = os.path.join(out_dir, "shortest_distance_greenspace")
    manifest = read_manifest(base)
    errors = []
    if sum(r["row_count"] for r in manifest) != n:
        errors.append(f"manifest rows {sum(r['row_count'] for r in manifest)} != {n}")
    files = [f for f in os.listdir(base) if f.endswith(".parquet")]
    if len(files) != len(manifest):
        errors.append(f"{len(files)} part files, {len(manifest)} manifest rows")
    written = sum(pq.ParquetFile(os.path.join(base, f)).metadata.num_rows for f in files)
    if written != n:
        errors.append(f"files hold {written} rows, expected {n}")
    return errors


class Runner:
    def __init__(self, args, gx):
        from . import spec

        self.args = args
        self.gx = gx
        with open(args.job) as f:
            job = json.load(f)
        self.paths = job["paths"]
        self.expect = job["expected"]
        self.columns = spec.WORKLOADS[args.workload]["columns"]
        self.work = job["work"]
        self.out_dir = os.path.join(self.work, "out", args.workload)
        self.progress = job["progress"]
        self.calls: list[dict] = []

    def one_call(self, tr=None) -> dict:
        """Call, consume, then check; appends a record and returns it."""
        import pyarrow as pa

        from . import checks
        from .layers import exchange_stats, peak_heap_mb

        wl = self.args.workload
        shutil.rmtree(self.out_dir, ignore_errors=True)
        rec = {"index": len(self.calls), "traced": tr is not None, "ok": False}
        try:
            cpu0, steal0 = cpu_times()
            t0 = time.monotonic()
            if tr is None:
                ds = call_api(self.gx, wl, self.paths, self.out_dir)
                t1 = time.monotonic()
                blocks = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
            else:
                with tr.span("request"):
                    with tr.span("api.call"):
                        ds = call_api(self.gx, wl, self.paths, self.out_dir)
                    t1 = time.monotonic()
                    with tr.span("api.consume"):
                        blocks = list(ds.iter_batches(batch_size=None,
                                                      batch_format="pyarrow"))
            t2 = time.monotonic()
            cpu1, steal1 = cpu_times()
            tbl = pa.concat_tables(blocks, promote_options="default")
            rec.update(call_s=t1 - t0, consume_s=t2 - t1, wall_s=t2 - t0,
                       steal_s=steal1 - steal0,
                       unstolen_s=unstolen(t2 - t0, cpu1 - cpu0, steal1 - steal0),
                       rows=tbl.num_rows, cpu_s=cpu1 - cpu0,
                       peak_heap_mb=peak_heap_mb(ds))
            rec["exchange_s"], rec["exchange_bytes"] = exchange_stats(ds)
            errors = checks.check_result(tbl, self.expect, self.columns)
            if wl == "access_write":
                errors += check_written(self.out_dir, self.expect["n"])
            rec["errors"] = errors
            rec["ok"] = not errors
        except Exception:
            rec["errors"] = [traceback.format_exc(limit=5)]
        self.calls.append(rec)
        with open(self.progress, "a") as f:
            f.write(json.dumps(rec) + "\n")
        return rec

    def closed_loop(self, warmup: int, seconds: float) -> list[dict]:
        from . import spec

        for _ in range(warmup):
            self.one_call()
        timed = []
        while (len(timed) < spec.MIN_TIMED_CALLS
               or sum(r.get("wall_s", 0.0) for r in timed) < seconds):
            rec = self.one_call()
            timed.append(rec)
            if not rec["ok"] and "wall_s" not in rec:
                break
        return timed

    def traced(self, untraced: list[dict]) -> dict:
        from . import spec
        from .layers import Tracer, in_path_busy, run_layers

        wl = self.args.workload
        tr = Tracer(f"{wl}-seed{self.args.seed}")
        rec = self.one_call(tr)
        with tr.span("layers"):
            m = run_layers(tr, wl, self.paths, self.out_dir + "_layers")
        m["api.call_s"] = rec["call_s"]
        m["api.consume_s"] = rec["consume_s"]
        m["ray.exchange_s"] = rec["exchange_s"]
        m["ray.exchange_bytes"] = rec["exchange_bytes"]
        m["engine.cpu_per_busy"] = rec["cpu_s"] / in_path_busy(wl, m)
        walls = [r["wall_s"] for r in untraced if "wall_s" in r]
        m["trace.overhead_s"] = rec["wall_s"] - statistics.median(walls)
        spans_dir = os.path.join(self.work, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        path = os.path.join(spans_dir, f"{tr.run_id}.json")
        with open(path, "w") as f:
            json.dump({"run_id": tr.run_id, "spans": tr.spans}, f, indent=1)
        missing = set(spec.PER_LAYER) - set(m)
        if missing:
            raise RuntimeError(f"per-layer metrics not measured: {sorted(missing)}")
        return {"layers": m, "spans_file": path}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--spawned-at", type=float, nargs=3, required=True,
                   metavar=("MONOTONIC", "BUSY", "STEAL"),
                   help="time.monotonic() and cpu_times() of the parent just "
                        "before spawning")
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--job")
    args = p.parse_args(argv)

    import ray
    import greenex_py_ray as gx
    from greenex_py_ray import api  # noqa: F401  (the public functions' module)
    from ray.data import DataContext

    from . import spec

    ray.init(address="local", num_cpus=spec.NUM_CPUS, include_dashboard=False,
             logging_level="ERROR", object_store_memory=spec.OBJECT_STORE_BYTES)
    DataContext.get_current().enable_progress_bars = False
    t0, busy0, steal0 = args.spawned_at
    wall = time.monotonic() - t0
    busy, steal = cpu_times()
    result = {"setup_wall_s": wall,
              "setup_s": unstolen(wall, busy - busy0, steal - steal0)}
    try:
        if not args.setup_only:
            run = Runner(args, gx)
            timed = run.closed_loop(spec.WARMUP_CALLS, args.seconds)
            result["timed"] = timed
            if args.trace and all(r["ok"] for r in run.calls):
                result.update(run.traced(timed))
            result["calls"] = run.calls
    finally:
        ray.shutdown()
    with open(args.out, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
