"""grid DBSCAN / skyline / postings / upsert-compaction unit tests."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from greenex_py_ray.stages.clustering import grid_dbscan
from greenex_py_ray.stages.compaction import compact_latest
from greenex_py_ray.stages.text import build_postings
from greenex_py_ray.stages.topk import _skyline_mask, group_skyline


def _pts(coords):
    return rd.from_arrow(pa.table({
        "x": pa.array([c[0] for c in coords], pa.float64()),
        "y": pa.array([c[1] for c in coords], pa.float64()),
    }))


@pytest.mark.parametrize("shift", [0, -20], ids=["origin", "negative"])
def test_grid_dbscan_two_blobs_and_noise(shift):
    # blob A: 12 points in cell (0,0); blob B: 12 in (10,10);
    # loner: 1 point in (5,5); straggler next to blob A in (1,0);
    # shift moves every cell by (shift, shift), west/south of the origin
    coords = ([(0.5, 0.5)] * 12 + [(10.5, 10.5)] * 12
              + [(5.5, 5.5)] + [(1.5, 0.5)] * 2)
    coords = [(x + shift, y + shift) for x, y in coords]
    out = grid_dbscan(_pts(coords), 1.0, 10).take_all()
    rows = {(r["ix"] - shift, r["iy"] - shift): r for r in out}
    assert len(rows) == 4
    a, b = rows[(0, 0)], rows[(10, 10)]
    assert a["core"] and b["core"]
    assert a["cluster"] != b["cluster"]          # two separate clusters
    edge = rows[(1, 0)]                          # 14 pts in 3x3 → core
    assert edge["core"] and edge["cluster"] == a["cluster"]
    loner = rows[(5, 5)]
    assert not loner["core"] and loner["cluster"] is None  # noise


def test_grid_dbscan_blocks_type_cluster_int64():
    """Every output block types ``cluster`` int64, the blocks whose
    cells are all noise too (a groupby-min over only null labels would
    make it a null-typed column)."""
    import ray

    rng = np.random.default_rng(5)
    # one dense blob and 200 lone points, each in a cell of its own
    lone = rng.choice(400 * 400, 200, replace=False)
    coords = ([(0.5, 0.5)] * 40
              + [(10.0 + 3 * (c // 400) + 0.5, 10.0 + 3 * (c % 400) + 0.5)
                 for c in lone])
    out = grid_dbscan(_pts(coords).repartition(8), 1.0, 10)
    tables = ray.get(out.to_arrow_refs())
    assert sum(t.num_rows for t in tables) == 201
    for t in tables:
        if t.num_rows:  # Ray's exchange may add empty, schema-less blocks
            assert t.schema.field("cluster").type == pa.int64()


def test_grid_dbscan_border_cell():
    # spread mass: cells (0..2, 0) hold 6 points each → (1,0) sees 18
    # (core) while (0,0)/(2,0) see only 12 (non-core) but are adjacent
    # to the core cell → border with its cluster label; (5,0) is noise
    coords = ([(0.5, 0.5)] * 6 + [(1.5, 0.5)] * 6 + [(2.5, 0.5)] * 6
              + [(5.5, 0.5)])
    out = grid_dbscan(_pts(coords), 1.0, 15).take_all()
    rows = {(r["ix"], r["iy"]): r for r in out}
    core = rows[(1, 0)]
    assert core["core"]
    for b in (rows[(0, 0)], rows[(2, 0)]):
        assert not b["core"]
        assert b["cluster"] == core["cluster"]
    assert rows[(5, 0)]["cluster"] is None


def test_skyline_mask_basic():
    # maximize x, minimize y
    x = np.array([5, 5, 4, 3, 3, 1], dtype=np.int64)
    y = np.array([4, 3, 1, 9, 1, 0], dtype=np.int64)
    keep = _skyline_mask(x, y)
    # (5,3) dominates (5,4); (4,1) survives; (3,1) dominated by (4,1);
    # (3,9) dominated; (1,0) survives (lowest y)
    assert keep.tolist() == [False, True, True, False, False, True]


def test_skyline_duplicates_survive_together():
    x = np.array([2, 2, 1], dtype=np.int64)
    y = np.array([5, 5, 7], dtype=np.int64)
    keep = _skyline_mask(x, y)
    assert keep.tolist() == [True, True, False]


def test_group_skyline_matches_bruteforce():
    rng = np.random.default_rng(11)
    g = rng.integers(0, 4, 300)
    x = rng.integers(0, 40, 300).astype(np.int64)
    y = rng.integers(0, 40, 300).astype(np.int64)
    ds = rd.from_arrow(pa.table({"g": g, "x": x, "y": y}))
    got = {(r["g"], r["x"], r["y"])
           for r in group_skyline(ds, "g", "x", "y").take_all()}
    expect = set()
    for i in range(300):
        dom = ((g == g[i]) & (x >= x[i]) & (y <= y[i])
               & ((x > x[i]) | (y < y[i])))
        if not dom.any():
            expect.add((g[i], x[i], y[i]))
    assert got == expect


def test_build_postings():
    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": ["Cat dog cat", "dog  bird", "cat"],
    })
    out = {r["token"]: r for r in
           build_postings(rd.from_arrow(t), min_df=2).take_all()}
    assert set(out) == {"cat", "dog"}
    assert out["cat"]["df"] == 2 and out["cat"]["postings"] == "1,3"
    assert out["dog"]["df"] == 2 and out["dog"]["postings"] == "1,2"


def test_compact_latest_latest_wins():
    base = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3], pa.int64()),
        "v": pa.array([1, 1, 1], pa.int64()),
        "payload": ["a", "b", "c"],
    }))
    upd = rd.from_arrow(pa.table({
        "k": pa.array([2, 4], pa.int64()),
        "v": pa.array([2, 2], pa.int64()),
        "payload": ["B2", "D2"],
    }))
    got = {r["k"]: r for r in
           compact_latest(base, upd, "k", "v").take_all()}
    assert len(got) == 4
    assert got[1]["payload"] == "a"
    assert got[2]["payload"] == "B2" and got[2]["v"] == 2
    assert got[4]["payload"] == "D2"


def test_group_medoid_matches_pairwise():
    """Sum-trick medoid == brute-force pairwise argmin; ties break to
    the smaller vec_id."""
    import ray
    import ray.data

    from greenex_py_ray.stages.similarity import MEDOID_Q, group_medoid

    rng = np.random.default_rng(3)
    dim, n = 8, 60
    V = rng.normal(size=(n, dim)).astype(np.float32)
    lab = (np.arange(n) % 3).astype(np.int32)
    # force a tie in group 2: duplicate vector for ids 57 and 59
    V[59] = V[57]
    lab[57] = lab[59] = 2
    tbl = pa.table({"vec_id": pa.array(np.arange(n, dtype=np.int64)),
                    "embedding": pa.array(list(V), pa.list_(pa.float32())),
                    "label": pa.array(lab, pa.int32())})
    out = (group_medoid(ray.data.from_arrow(tbl).repartition(4), dim)
           .to_pandas().sort_values("grp").reset_index(drop=True))
    q = np.round(V.astype(np.float64) * MEDOID_Q).astype(np.int64)
    for g in range(3):
        idx = np.flatnonzero(lab == g)
        d2 = ((q[idx][:, None, :] - q[idx][None, :, :]) ** 2).sum(
            axis=(1, 2))
        best = idx[np.lexsort((idx, d2))][0]
        assert int(out.loc[out.grp == g, "vec_id"].iloc[0]) == best
