"""Greenness-exposure benchmark for ``greenex_py_ray``.

    python3 perfbench/run.py --workload ndvi_docs --seed 1 --seconds 16 --trace 0

Run from the repository root.  One run:

1. stops any Ray cluster left on the machine (``ray stop --force``);
2. generates the seeded world under ``.perfbench_work/`` and prepares
   the expected outputs (neither is timed);
3. with ``--trace 0``, starts ``SETUP_PROBES`` setup-only processes;
4. starts one fresh worker process that sets up the API, makes warm-up
   calls and then at least ``MIN_TIMED_CALLS`` timed calls, for at
   least ``--seconds``, of the workload's public function in a closed
   loop with one client, and checks every output; with ``--trace 1`` it
   adds a traced call and in-process layer calls;
5. stops Ray again and prints one JSON line: ``correct``, ``attempted``,
   ``failed`` (calls, counting warm-up and traced calls) and
   ``metrics`` — the end-to-end metrics for ``--trace 0``, the
   per-layer ones for ``--trace 1``.

End-to-end metrics are medians over the run's samples:

* ``setup_s`` — spawn of a fresh process until the API is ready
  (imports plus ``ray.init``), over the probes and the worker;
* ``pois_per_s`` — output rows over the time from the API call until
  the result is consumed, per timed call;
* ``cpu_s`` — busy CPU-seconds of the machine during a timed call;
* ``peak_heap_mb`` — the largest per-operator peak heap memory in Ray
  Data's stats of a timed call's result.

The two times are scaled by the share of the machine's CPU demand that
the hypervisor did not steal for other guests (``worker.unstolen``), so
that load from neighbours on a shared host does not read as a change in
the program.  Raw wall and steal seconds go to stderr with the other
details (sample counts, per-call values, the spans file).

A worker still running ``RUN_DEADLINE_S`` after the run started is
killed and the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")

if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import spec  # noqa: E402
from perfbench.worker import cpu_times  # noqa: E402


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def child_env() -> dict:
    """Environment for every child: Ray workers import
    ``greenex_py_ray`` and ``perfbench`` from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env.setdefault("RAY_DEDUP_LOGS", "0")
    env["PYTHONWARNINGS"] = "ignore"
    # Ray's session files go under the checkout too, unless the path is
    # too long for the AF_UNIX sockets Ray puts there (~70 more bytes)
    tmp = os.path.join(WORK, "tmp")
    if len(tmp) <= 36:
        os.makedirs(tmp, exist_ok=True)
        env["RAY_TMPDIR"] = env["TMPDIR"] = tmp
    else:
        log("checkout path too long for Ray sockets; Ray uses its default temp dir")
    return env


def ray_stop(env: dict) -> None:
    subprocess.run([sys.executable, "-m", "ray.scripts.scripts", "stop", "--force"],
                   env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=120, check=False)


def spawn(args: list[str], env: dict, out: str, deadline_s: float) -> dict | None:
    """Run a fresh worker process; its result, or None when it failed or
    passed the deadline (it is then killed with its process group)."""
    if os.path.exists(out):
        os.remove(out)
    busy, steal = cpu_times()
    cmd = [sys.executable, "-m", "perfbench.worker", "--out", out,
           "--spawned-at", repr(time.monotonic()), repr(busy), repr(steal)] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=deadline_s)
    except subprocess.TimeoutExpired:
        log(f"worker passed its {deadline_s:.0f} s deadline; killing it")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None
    if code != 0 or not os.path.exists(out):
        log(f"worker exited with code {code}")
        return None
    with open(out) as f:
        return json.load(f)


def metric(name: str, value: float) -> dict:
    unit = dict((n, u) for n, u, _ in spec.END_TO_END)
    unit.update({n: v[0] for n, v in spec.PER_LAYER.items()})
    return {"value": float(value), "unit": unit[name]}


def end_to_end(setups: list[float], timed: list[dict]) -> dict:
    ok = [r for r in timed if r["ok"]]
    return {
        "setup_s": metric("setup_s", statistics.median(setups)),
        "pois_per_s": metric("pois_per_s", statistics.median(
            r["rows"] / r["unstolen_s"] for r in ok)),
        "cpu_s": metric("cpu_s", statistics.median(r["cpu_s"] for r in ok)),
        "peak_heap_mb": metric("peak_heap_mb", statistics.median(
            r["peak_heap_mb"] for r in ok)),
    }


def per_layer(layers: dict) -> dict:
    return {name: metric(name, layers[name]) for name in spec.PER_LAYER}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "greenex_py_ray", "__init__.py")):
        log(f"no greenex_py_ray package under {ROOT}; run from a full checkout")
        return 2
    from perfbench import inputs

    env = child_env()
    os.makedirs(WORK, exist_ok=True)
    ray_stop(env)
    cfg = spec.WORKLOADS[args.workload]
    t = time.monotonic()
    paths = inputs.world(WORK, cfg["n_docs"], args.seed)
    expect = inputs.expected(WORK, args.workload, paths, args.seed)
    log(f"inputs ready in {time.monotonic() - t:.1f} s: {cfg['n_docs']} docs, seed {args.seed}")
    progress = os.path.join(WORK, "progress.jsonl")
    if os.path.exists(progress):
        os.remove(progress)
    job = os.path.join(WORK, "job.json")
    with open(job, "w") as f:
        json.dump({"paths": paths, "expected": expect, "work": WORK,
                   "progress": progress}, f)

    setups = []
    if not args.trace:
        for _ in range(spec.SETUP_PROBES):
            r = spawn(["--setup-only"], env, os.path.join(WORK, "setup.json"),
                      spec.SETUP_DEADLINE_S)
            if r is not None:
                setups.append(r)
    res = spawn(["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--job", job], env, os.path.join(WORK, "result.json"),
                spec.RUN_DEADLINE_S - (time.monotonic() - started))
    ray_stop(env)

    calls = res["calls"] if res else []
    if res is None and os.path.exists(progress):
        with open(progress) as f:
            calls = [json.loads(line) for line in f]
    attempted = max(1, len(calls) + (res is None))
    failed = sum(not r["ok"] for r in calls) + (res is None)
    for r in calls:
        if not r["ok"]:
            log(f"call {r['index']} failed: {r['errors']}")
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": {}}
    if res is not None and not failed:
        setups.append(res)
        if args.trace:
            out["metrics"] = per_layer(res["layers"])
            log(f"spans written to {res['spans_file']}")
        else:
            out["metrics"] = end_to_end([r["setup_s"] for r in setups], res["timed"])
        log("details: " + json.dumps({
            "workload": args.workload, "seed": args.seed,
            "setup_samples": [r["setup_s"] for r in setups],
            "setup_walls": [r["setup_wall_s"] for r in setups],
            "timed_calls": len(res["timed"]),
            "calls": [{k: r.get(k) for k in (
                "index", "traced", "call_s", "consume_s", "wall_s", "steal_s",
                "unstolen_s", "rows", "cpu_s", "peak_heap_mb")} for r in calls]}))
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
