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
