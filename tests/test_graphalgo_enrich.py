"""PageRank / Moran's I / per-group min-max scaling unit tests.

Reference parity: the reference repo has no graph or feature-scaling
operators; these verify the engine's own documented contracts (integer
fixed-point PageRank recurrence, textbook Moran's I sign behavior,
[0, 1] scaling bounds with NULL degenerate groups).
"""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from greenex_py_ray.stages.enrich import group_minmax_scale
from greenex_py_ray.stages.geostats import morans_i
from greenex_py_ray.stages.graphalgo import pagerank


def _pagerank_reference(edges, iters=3, scale=1_000_000):
    """Pure-python replay of the documented integer recurrence."""
    nodes = sorted({u for u, _ in edges} | {v for _, v in edges})
    deg = {}
    for u, _ in edges:
        deg[u] = deg.get(u, 0) + 1
    r = {n: scale for n in nodes}
    for _ in range(iters):
        c = {n: 0 for n in nodes}
        for u, v in edges:
            c[v] += r[u] // deg[u]
        r = {n: (15 * scale + 85 * c[n]) // 100 for n in nodes}
    return r


def test_pagerank_matches_integer_recurrence():
    # small multigraph with a dangling node (3) and a no-in-edge node (0)
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (1, 2), (4, 1)]
    ds = rd.from_arrow(pa.table({
        "src": pa.array([u for u, _ in edges], pa.int64()),
        "dst": pa.array([v for _, v in edges], pa.int64()),
    }))
    got = {r["node"]: r["rank"] for r in pagerank(ds, iters=3).take_all()}
    assert got == _pagerank_reference(edges, iters=3)
    # no-in-edge node sits at the base rank
    assert got[0] == (15 * 1_000_000) // 100
    # the sink node (3) accumulates the most rank
    assert max(got, key=got.get) == 2 or got[2] > got[0]


def test_pagerank_sink_ordering():
    # star: everyone points at node 9 → node 9 dominates
    ds = rd.from_arrow(pa.table({
        "src": pa.array(list(range(8)), pa.int64()),
        "dst": pa.array([9] * 8, pa.int64()),
    }))
    got = {r["node"]: r["rank"] for r in pagerank(ds, iters=2).take_all()}
    assert got[9] > max(v for k, v in got.items() if k != 9)


def _moran_of(points, cell=1.0):
    ds = rd.from_arrow(pa.table({
        "x": pa.array([p[0] for p in points], pa.float64()),
        "y": pa.array([p[1] for p in points], pa.float64()),
    }))
    row = morans_i(ds, cell).take_all()[0]
    return row


def test_morans_i_clustered_positive():
    # two dense blobs far apart: neighboring cells have similar (high
    # or zero-adjacent) counts → positive autocorrelation
    rng = np.random.default_rng(7)
    blob_a = rng.uniform(0.0, 3.0, size=(120, 2))
    blob_b = rng.uniform(17.0, 20.0, size=(120, 2))
    sparse = rng.uniform(6.0, 14.0, size=(8, 2))
    pts = np.vstack([blob_a, blob_b, sparse])
    row = _moran_of([tuple(p) for p in pts], cell=1.0)
    assert row["w_pairs"] > 0
    assert row["moran_i"] > 0.2


def test_morans_i_checkerboard_negative():
    # alternating occupied-cell intensity 1/5 → negative autocorrelation
    pts = []
    for ix in range(6):
        for iy in range(6):
            reps = 5 if (ix + iy) % 2 == 0 else 1
            pts.extend([(ix + 0.5, iy + 0.5)] * reps)
    row = _moran_of(pts, cell=1.0)
    assert row["moran_i"] < -0.5


@pytest.mark.parametrize("shift", [0.0, -4.0], ids=["origin", "negative"])
def test_morans_i_matches_textbook_formula(shift):
    # a negative shift puts half the cells west/south of the origin
    rng = np.random.default_rng(3)
    pts = shift + rng.uniform(0, 8, size=(200, 2))
    row = _moran_of([tuple(p) for p in pts], cell=2.0)
    # dense textbook recompute
    ij = np.floor(pts / 2.0).astype(np.int64)
    cells, counts = np.unique(ij, axis=0, return_counts=True)
    n = len(cells)
    xbar = counts.mean()
    d = np.abs(cells[:, None, :] - cells[None, :, :]).sum(axis=2)
    w = (d == 1).astype(float)
    dev = counts - xbar
    expected = (n / w.sum()) * (dev @ w @ dev) / (dev ** 2).sum()
    assert row["n_cells"] == n
    assert row["w_pairs"] == int(w.sum())
    assert row["moran_i"] == pytest.approx(expected, rel=1e-9)


def test_group_minmax_scale_bounds_and_nulls():
    t = pa.table({
        "event_id": pa.array(list(range(7)), pa.int64()),
        "event_type": pa.array(["a", "a", "a", "b", "b", "c", "c"]),
        "value": pa.array([1.0, 2.0, 4.0, -1.0, 3.0, 5.0, 5.0],
                          pa.float64()),
    })
    out = group_minmax_scale(rd.from_arrow(t), "event_type", "value",
                             q_scale=100.0)
    rows = {r["event_id"]: r for r in out.take_all()}
    assert rows[0]["scaled"] == 0.0
    assert rows[2]["scaled"] == 1.0
    assert rows[1]["scaled"] == pytest.approx(1.0 / 3.0)
    assert rows[3]["scaled"] == 0.0 and rows[4]["scaled"] == 1.0
    # constant group → NULL
    assert rows[5]["scaled"] is None and rows[6]["scaled"] is None


def test_pagerank_join_plan_matches_broadcast_plan():
    rng = np.random.default_rng(9)
    src = rng.integers(0, 50, 400)
    dst = rng.integers(0, 50, 400)
    ds = rd.from_arrow(pa.table({"src": src, "dst": dst}))
    a = {r["node"]: r["rank"]
         for r in pagerank(ds, iters=3).take_all()}
    b = {r["node"]: r["rank"]
         for r in pagerank(ds, iters=3,
                           broadcast_threshold=0).take_all()}
    assert a == b


def test_triangle_count_known_graph():
    from greenex_py_ray.stages.graphalgo import triangle_count

    # K4 on {0,1,2,3}: 4 triangles, 12 wedges
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    ds = rd.from_arrow(pa.table({
        "u": pa.array([e[0] for e in edges], pa.int64()),
        "v": pa.array([e[1] for e in edges], pa.int64()),
    }))
    row = triangle_count(ds).take_all()[0]
    assert row["n_triangles"] == 4
    assert row["n_wedges"] == 12


def test_triangle_count_triangle_free():
    from greenex_py_ray.stages.graphalgo import triangle_count

    # path 0-1-2-3: 2 wedges, 0 triangles
    ds = rd.from_arrow(pa.table({
        "u": pa.array([0, 1, 2], pa.int64()),
        "v": pa.array([1, 2, 3], pa.int64()),
    }))
    row = triangle_count(ds).take_all()[0]
    assert row["n_triangles"] == 0 and row["n_wedges"] == 2


def test_embedding_gram_matches_numpy():
    from greenex_py_ray.stages.similarity import embedding_gram

    rng = np.random.default_rng(2)
    v = rng.normal(size=(40, 8)).astype(np.float32)
    ds = rd.from_arrow(pa.table({
        "embedding": pa.array([list(r) for r in v],
                              pa.list_(pa.float32())),
    }))
    out = embedding_gram(ds, dim=8).take_all()
    got = np.zeros((8, 8), dtype=np.int64)
    for r in out:
        got[r["i"], r["j"]] = r["gram_q"]
    q = np.round(v.astype(np.float64) * 1e4).astype(np.int64)
    assert np.array_equal(got, q.T @ q)
