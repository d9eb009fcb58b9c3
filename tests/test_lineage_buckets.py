"""resumable_write's key → partition assignment is part of the on-disk
contract: a resumed run must put every key in the partition an earlier
run's manifest recorded for it."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data

from greenex_py_ray.lineage import resumable_write


@pytest.mark.parametrize("keys, parts", [
    (pa.array(["doc-000000000000", "doc-000000000001", "doc-000000012345",
               "poi-7", "", None], pa.string()), [17, 27, 0, 20, 6, 31]),
    # int keys: the partitions the same keys get in a batch without a
    # null (a null key takes the fixed null partition)
    (pa.array([0, 1, 17, 123456789, -5, None], pa.int64()),
     [0, 5, 30, 0, 14, 31]),
])
def test_resumable_write_pins_key_partitions(tmp_path, keys, parts):
    out = str(tmp_path / "out")
    ds = ray.data.from_arrow(pa.table({"k": keys, "v": range(len(keys))}))
    manifest = resumable_write(ds, out, key="k", num_partitions=32)
    got = {}
    for row in manifest:
        part = pq.read_table(
            os.path.join(out, f"part-{row['partition_id']:05d}.parquet"))
        for v in part.column("v").to_pylist():
            got[v] = row["partition_id"]
    assert [got[v] for v in range(len(keys))] == parts


def _checksum_sorting_always(tbl: pa.Table) -> int:
    """``lineage._checksum`` as it was before it skipped sorted keys:
    every table is dictionary-encoded, tie-broken, sorted and taken."""
    import zlib

    import numpy as np
    import pyarrow.compute as pc

    if tbl.num_rows == 0:
        return 0
    key = tbl.column(0).combine_chunks()
    codes = pc.fill_null(pc.dictionary_encode(key).indices, -1).to_numpy() + 1
    tie = np.zeros(tbl.num_rows, dtype=np.int64)
    for i in np.flatnonzero(np.bincount(codes)[codes] > 1):
        tie[i] = zlib.crc32(repr(tbl.slice(i, 1).to_pylist()).encode())
    order = pc.sort_indices(pa.table({"key": key, "tie": tie}),
                            sort_keys=[("key", "ascending"), ("tie", "ascending")])
    tbl = tbl.take(order).combine_chunks()
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, tbl.schema) as w:
        w.write_table(tbl)
    return zlib.crc32(sink.getvalue().to_pybytes())


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("dups", [False, True])
def test_checksum_matches_sorting_every_table(seed, dups):
    """Skipping the sort for strictly increasing keys leaves every
    checksum as it was: on random tables (string and int keys, nulls in
    keys and values, nested lists, several chunks), shuffled and
    key-sorted the way ``resumable_write`` hands partitions over."""
    import numpy as np
    import pyarrow.compute as pc

    from greenex_py_ray.lineage import _checksum

    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    ids = (rng.integers(0, n // 2 + 1, n) if dups
           else rng.permutation(10 * n)[:n])
    keys = (pa.array([f"doc-{i:06d}" for i in ids]) if seed % 2
            else pa.array(ids, pa.int64()))
    if seed % 3 == 0:
        keys = pc.if_else(pa.array(rng.random(n) < 0.1),
                          pa.nulls(n, keys.type), keys)
    vals = pa.array(np.where(rng.random(n) < 0.2, np.nan, rng.random(n)))
    lists = pa.array([[{"x": float(v)} for v in rng.random(int(k))]
                      if k else None for k in rng.integers(0, 4, n)])
    tbl = pa.table({"k": keys, "v": vals, "l": lists,
                    "m": pa.array(rng.integers(0, 3, n)).cast(pa.int32())})
    tbl = pa.concat_tables([tbl.slice(0, n // 2), tbl.slice(n // 2)])
    for t in (tbl, tbl.take(pc.sort_indices(tbl.column("k")))):
        assert _checksum(t) == _checksum_sorting_always(t)


def _reference_write(tbl: pa.Table, out: str, key: str,
                     num_partitions: int) -> None:
    """In-process reference: ``stable_bucket`` → stable key sort →
    ``write_partition``, one partition per non-empty bucket."""
    import numpy as np
    import pyarrow.compute as pc

    from greenex_py_ray.functions.exchange import stable_bucket
    from greenex_py_ray.lineage import write_partition

    bucket = stable_bucket([tbl.column(key)], num_partitions)
    for p in range(num_partitions):
        rows = tbl.filter(pa.array(bucket == p))
        if rows.num_rows:
            write_partition(rows.take(pc.sort_indices(rows.column(key))),
                            out, p)


def _no_exchange(*args, **kwargs):
    raise AssertionError("resumable_write ran a Ray Data exchange")


@pytest.mark.parametrize("keys", [
    ["a", "b", "b", None, "c", "d", "a", "e", None, "f", "g", "h"] * 3,
    [5, 3, 3, None, 17, 2, 5, 9, -1, 123456789, 64, 0] * 3,
])
def test_resumable_write_matches_reference_without_exchange(
        tmp_path, monkeypatch, keys):
    """A multi-block input (with an empty block, null keys and duplicate
    keys) is written as the in-process reference writes it: equal
    manifests, byte-equal part files where the keys are unique.  The
    write runs no Ray Data groupby or sort."""
    from greenex_py_ray.lineage import read_manifest

    monkeypatch.setattr(ray.data.Dataset, "groupby", _no_exchange)
    monkeypatch.setattr(ray.data.Dataset, "sort", _no_exchange)
    keys = keys[:20] + [f"u{i}" if isinstance(keys[0], str) else 1000 + i
                        for i in range(40)]
    tbl = pa.table({"k": keys, "v": [float(i) for i in range(len(keys))]})
    blocks = [tbl.slice(0, 25), tbl.slice(0, 0), tbl.slice(25, 10),
              tbl.slice(35)]
    out, ref = str(tmp_path / "out"), str(tmp_path / "ref")
    got = resumable_write(ray.data.from_arrow(blocks), out, key="k",
                          num_partitions=8)
    _reference_write(tbl, ref, "k", 8)

    def rows(manifest):
        return [{k: v for k, v in r.items() if k != "wall_ms"}
                for r in manifest]

    assert rows(got) == rows(read_manifest(ref))
    assert sum(r["row_count"] for r in got) == tbl.num_rows
    for r in got:
        name = f"part-{r['partition_id']:05d}.parquet"
        part = pq.read_table(os.path.join(ref, name)).column("k")
        if len(part.unique()) == len(part):
            with open(os.path.join(out, name), "rb") as a, \
                    open(os.path.join(ref, name), "rb") as b:
                assert a.read() == b.read(), name

    empty = str(tmp_path / "empty")
    assert resumable_write(ray.data.from_arrow(tbl.slice(0, 0)), empty,
                           key="k", num_partitions=8) == []
    assert not [f for f in os.listdir(empty) if f.endswith(".parquet")]


# -- kill and resume --------------------------------------------------

_CHILD = """
import sys
import ray
ray.init(num_cpus=1, object_store_memory=200 * 1024 ** 2,
         include_dashboard=False, logging_level="ERROR")
import ray.data
from greenex_py_ray.lineage import resumable_write
resumable_write(ray.data.read_parquet(sys.argv[1]), sys.argv[2], key="k")
"""


def _resume_input(path) -> str:
    """A 400k-row input: 32 partitions of ~12.5k rows, so a one-writer
    run writes them one after another for long enough to be killed."""
    import numpy as np

    n = 400_000
    rng = np.random.default_rng(0)
    pq.write_table(pa.table({
        "k": np.arange(n, dtype=np.int64),
        "v": rng.normal(size=n),
        "s": pa.array([f"s{i % 977}" for i in range(n)]),
    }), path, row_group_size=50_000)
    return str(path)


def _state(out_dir: str) -> tuple:
    """The manifest rows without their wall time, and every file's
    bytes by name."""
    from greenex_py_ray.lineage import read_manifest

    rows = [{k: v for k, v in r.items() if k != "wall_ms"}
            for r in read_manifest(out_dir)]
    files = {}
    for d, _, names in os.walk(out_dir):
        for n in names:
            if not n.endswith(".json"):
                with open(os.path.join(d, n), "rb") as f:
                    files[os.path.relpath(os.path.join(d, n), out_dir)] = \
                        f.read()
    return rows, files


def _group_alive(pgid: int) -> list:
    alive = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            alive.append(int(pid))
    return alive


def test_resume_after_sigkill_matches_an_uninterrupted_write(tmp_path):
    """A write killed with SIGKILL part way (in a child process with its
    own Ray cluster, killed as a whole process group) and then resumed
    leaves the manifest rows and part files of an uninterrupted write."""
    import signal
    import subprocess
    import sys
    import time

    src = _resume_input(tmp_path / "in.parquet")
    ref, out = str(tmp_path / "ref"), str(tmp_path / "out")
    resumable_write(ray.data.read_parquet(src), ref, key="k")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    child = subprocess.Popen([sys.executable, "-c", _CHILD, src, out],
                             env=env, start_new_session=True,
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    mdir = os.path.join(out, "_manifest")
    try:
        deadline = time.time() + 120
        while child.poll() is None and time.time() < deadline:
            if os.path.isdir(mdir) and any(
                    n.endswith(".json") for n in os.listdir(mdir)):
                break
            time.sleep(0.001)
    finally:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        deadline = time.time() + 60
        while _group_alive(child.pid) and time.time() < deadline:
            time.sleep(0.2)
    assert _group_alive(child.pid) == []
    done = [n for n in os.listdir(mdir) if n.endswith(".json")]
    assert 0 < len(done) < 32, "the kill did not land mid-write"

    resumable_write(ray.data.read_parquet(src), out, key="k")
    assert _state(out) == _state(ref)


def test_resume_repairs_the_states_a_kill_leaves(tmp_path):
    """The states a kill can leave, built by hand: a part ``.tmp`` that
    was never renamed, a part file with no manifest row, a manifest
    ``.tmp`` and a partition never started.  A resumed write redoes
    exactly those partitions and matches an uninterrupted write."""
    src = _resume_input(tmp_path / "in.parquet")
    ref, out = str(tmp_path / "ref"), str(tmp_path / "out")
    resumable_write(ray.data.read_parquet(src), ref, key="k")
    resumable_write(ray.data.read_parquet(src), out, key="k")

    def part(p):
        return os.path.join(out, f"part-{p:05d}.parquet")

    def manifest(p):
        return os.path.join(out, "_manifest", f"partition-{p}.json")

    os.remove(manifest(3))  # killed after the rename
    os.remove(manifest(5))  # killed before the rename
    os.replace(part(5), part(5) + ".tmp")
    with open(part(5) + ".tmp", "r+b") as f:
        f.truncate(100)
    os.remove(manifest(9))  # killed while writing its manifest
    with open(manifest(9) + ".tmp", "w") as f:
        f.write('{"partition_id": 9, "row_co')
    os.remove(manifest(12))  # never started
    os.remove(part(12))
    kept = {p: os.stat(part(p)).st_mtime_ns for p in range(32)
            if p not in (5, 12)}

    resumable_write(ray.data.read_parquet(src), out, key="k")
    assert _state(out) == _state(ref)
    assert not [n for _, _, ns in os.walk(out) for n in ns
                if n.endswith(".tmp")]
    assert [p for p, t in kept.items()
            if os.stat(part(p)).st_mtime_ns != t] == [3, 9]
