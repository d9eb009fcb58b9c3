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
