"""Self-tests of the benchmark (no Ray cluster needed):

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from perfbench import checks, inputs, run, spec

ROOT = run.ROOT
N_DOCS = 400


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("work"))
    return work, inputs.world(work, N_DOCS, seed=5)


def _expected(work, workload, paths, seed=5):
    return inputs.expected(work, workload, paths, seed)


def _result_table(paths, expect, workload) -> pa.Table:
    """A correct result: the input rows plus metric columns that hold
    the expected values for the sampled keys."""
    docs = inputs.read_docs(paths)
    cols = spec.WORKLOADS[workload]["columns"]
    ids = docs.column("doc_id").to_pylist()
    out = docs
    for name, (j, digits) in cols.items():
        default = type(next(iter(expect["sample"].values()))[j])()
        vals = []
        for k in ids:
            raw = expect["sample"][k][j] if k in expect["sample"] else default
            vals.append(raw if digits is None else float(np.round(raw, digits)))
        out = out.append_column(name, pa.array(vals))
    return out


def _mutate(tbl: pa.Table, column: str, key: str) -> pa.Table:
    vals = tbl.column(column).to_pylist()
    i = tbl.column("doc_id").to_pylist().index(key)
    v = vals[i]
    vals[i] = (not v) if isinstance(v, bool) else v + (1 if isinstance(v, int) else 0.01)
    return tbl.set_column(tbl.schema.get_field_index(column), column,
                          pa.array(vals, tbl.schema.field(column).type))


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {w["name"] for w in bench["workloads"]} <= set(spec.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == \
        spec.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [(n, u, b) for n, (u, b, _) in spec.PER_LAYER.items()]
    assert bench["paths"] == ["perfbench"]


def test_every_metric_is_emitted_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    timed = [{"ok": True, "rows": 100, "wall_s": 2.0, "unstolen_s": 1.9, "cpu_s": 5.0,
              "peak_heap_mb": 200.0}]
    e2e = run.end_to_end([4.0, 5.0], timed)
    assert {k: v["unit"] for k, v in e2e.items()} == \
        {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = run.per_layer({name: 1.0 for name in spec.PER_LAYER})
    assert {k: v["unit"] for k, v in layers.items()} == \
        {m["name"]: m["unit"] for m in bench["per_layer"]}
    for v in list(e2e.values()) + list(layers.values()):
        assert isinstance(v["value"], float)


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_a_single_mutated_value_fails_the_check(world, workload):
    work, paths = world
    expect = _expected(work, workload, paths)
    cols = spec.WORKLOADS[workload]["columns"]
    good = _result_table(paths, expect, workload)
    assert checks.check_result(good, expect, cols) == []
    key = next(iter(expect["sample"]))
    for column in cols:
        bad = _mutate(good, column, key)
        errors = checks.check_result(bad, expect, cols)
        assert errors and key in errors[0], column


def test_lost_duplicated_or_altered_rows_fail_the_check(world):
    work, paths = world
    expect = _expected(work, "ndvi_docs", paths)
    cols = spec.WORKLOADS["ndvi_docs"]["columns"]
    good = _result_table(paths, expect, "ndvi_docs")
    assert checks.check_result(good.slice(1), expect, cols)
    assert checks.check_result(pa.concat_tables([good, good.slice(0, 1)]), expect, cols)
    spans = good.column("spans").to_pylist()
    spans[3][1]["text"] += "!"
    altered = good.set_column(1, "spans", pa.array(spans, good.schema.field("spans").type))
    assert checks.check_result(altered, expect, cols) == \
        ["(doc_id, spans) fingerprint differs from the input"]
    shuffled = good.take(pa.array(np.random.default_rng(0).permutation(good.num_rows)))
    assert checks.check_result(shuffled, expect, cols) == []


def test_same_seed_gives_identical_input_fingerprints(tmp_path, world):
    work, paths = world
    first = _expected(work, "ndvi_docs", paths)
    other = str(tmp_path / "again")
    again = _expected(other, "ndvi_docs", inputs.world(other, N_DOCS, seed=5))
    assert (again["ids_fp"], again["rows_fp"], again["sample"]) == \
        (first["ids_fp"], first["rows_fp"], first["sample"])
    moved = str(tmp_path / "moved")
    diff = _expected(moved, "ndvi_docs", inputs.world(moved, N_DOCS, seed=6), seed=6)
    assert diff["rows_fp"] != first["rows_fp"]


def test_unit_centroids_of_overlapping_rectangles(tmp_path):
    path = str(tmp_path / "gs.parquet")
    pq.write_table(pa.table({"x0": [0.0, 1.0, 10.0], "y0": [0.0, 0.0, 0.0],
                                     "x1": [2.0, 3.0, 12.0], "y1": [1.0, 1.0, 2.0]}), path)
    cen = sorted(map(tuple, inputs.unit_centroids(path)))
    assert cen == [(1.5, 0.5), (11.0, 1.0)]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ndvi_docs",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert p.returncode != 0
    assert p.stdout.strip() == ""


def test_disk_stats_matches_a_dense_window():
    res = 10.0
    arr = np.arange(16.0).reshape(4, 4) - 3.0
    tiles = {(0, 0): (0.0, 0.0, arr)}
    mean, std = inputs.disk_stats(tiles, res, 20.0, 20.0, 10.0)
    centres = (np.arange(4) + 0.5) * res
    gx, gy = np.meshgrid(centres, centres)
    v = np.maximum(arr[(gx - 20.0) ** 2 + (gy - 20.0) ** 2 <= 100.0], 0.0)
    assert (mean, std) == (v.mean(), v.std())
