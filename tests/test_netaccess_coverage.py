"""Network distance, isochrone zonal, coverage and dissolve tests with
independent straight-line oracles."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from greenex_py_ray import geom
from greenex_py_ray.sources import documents as doc_src
from greenex_py_ray.sources import synth
from greenex_py_ray.stages.coverage import PolygonCoverage, union_area_of_convex
from greenex_py_ray.stages.dissolve import dissolve_convex
from greenex_py_ray.stages.netaccess import IsochroneZonal, NetworkDistance
from greenex_py_ray.state.graph import CSRGraph, fill_holes


def oracle_dijkstra(nodes_xy, edges, src, cutoff):
    """O(V²) Dijkstra, independent of the CSR/heap implementation."""
    n = len(nodes_xy)
    adj = {i: [] for i in range(n)}
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    dist = {src: 0.0}
    done = set()
    while True:
        cand = [(d, u) for u, d in dist.items() if u not in done]
        if not cand:
            break
        d, u = min(cand)
        done.add(u)
        for v, w in adj[u]:
            nd = d + w
            if nd <= cutoff and nd < dist.get(v, np.inf):
                dist[v] = nd
    return dist


def test_csr_dijkstra_matches_oracle():
    rng = np.random.default_rng(31)
    n = 40
    xy = rng.uniform(0, 1000, (n, 2))
    edges = []
    for _ in range(120):
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.append((int(u), int(v), float(np.hypot(*(xy[u] - xy[v])) + 1)))
    g = CSRGraph(np.arange(n), xy[:, 0], xy[:, 1],
                 np.array([e[0] for e in edges]), np.array([e[1] for e in edges]),
                 np.array([e[2] for e in edges]))
    got = g.dijkstra(0, cutoff=800.0)
    exp = oracle_dijkstra(xy, edges, 0, 800.0)
    assert set(got) == set(exp)
    for k in exp:
        assert abs(got[k] - exp[k]) < 1e-9


def test_fill_holes():
    m = np.zeros((7, 7), dtype=bool)
    m[1:6, 1:6] = True
    m[3, 3] = False  # hole
    f = fill_holes(m)
    assert f[3, 3]
    assert not f[0, 0]
    assert f.sum() == 25


def _world_graph_tables(world):
    nodes = pq.read_table(world["network_nodes"])
    edges = pq.read_table(world["network_edges"])
    return nodes, edges


def test_network_distance_pipeline(world):
    nodes, edges = _world_graph_tables(world)
    gs = pq.read_table(world["greenspace"])
    docs = doc_src.decode_geom(doc_src.read_documents(world["documents"]))
    poi = docs.select_columns(["doc_id", "x", "y"]).limit(40)
    target = 600.0
    out = poi.map_batches(
        NetworkDistance,
        fn_constructor_kwargs=dict(
            nodes_ref=ray.put(nodes), edges_ref=ray.put(edges),
            greenspace_ref=ray.put(gs), target_dist=target,
            destination="centroids",
        ),
        batch_format="pyarrow", concurrency=2, num_cpus=1,
    ).to_pandas()
    assert len(out) == 40
    assert (out["distance_to_greenspace"] <= target).all()
    assert out["greenspace_within_target"].dtype == bool
    # flagged rows must have distance strictly from the network path
    hit = out[out["greenspace_within_target"]]
    assert len(hit) > 0
    assert (hit["distance_to_greenspace"] == hit["distance_to_greenspace"].round(0)).all()


def test_network_distance_matches_oracle_single_poi(world):
    """Full independent recomputation for a handful of PoIs."""
    nodes, edges = _world_graph_tables(world)
    gs = pq.read_table(world["greenspace"])
    docs = doc_src.decode_geom(doc_src.read_documents(world["documents"]))
    pdf = docs.select_columns(["doc_id", "x", "y"]).limit(8).to_pandas()
    target = 600.0

    nid = nodes.column("node_id").to_numpy(zero_copy_only=False)
    nx = nodes.column("x").to_numpy(zero_copy_only=False)
    ny = nodes.column("y").to_numpy(zero_copy_only=False)
    pos = {int(i): k for k, i in enumerate(nid)}
    e_list = [
        (pos[int(u)], pos[int(v)], float(w))
        for u, v, w in zip(
            edges.column("u").to_pylist(), edges.column("v").to_pylist(),
            edges.column("length").to_pylist(),
        )
    ]
    rings = [
        np.array([[p["x"], p["y"]] for p in r[0]])
        for r in gs.column("rings").to_pylist()
    ]
    cents = list(zip(gs.column("centroid_x").to_pylist(),
                     gs.column("centroid_y").to_pylist()))

    def seg_dist(px, py, ring):
        ax, ay = ring[:, 0], ring[:, 1]
        bx, by = np.roll(ax, -1), np.roll(ay, -1)
        dx, dy = bx - ax, by - ay
        l2 = dx * dx + dy * dy
        t = np.clip(np.where(l2 > 0, ((px - ax) * dx + (py - ay) * dy) / l2, 0), 0, 1)
        return np.sqrt((px - (ax + t * dx)) ** 2 + (py - (ay + t * dy)) ** 2).min()

    def oracle_one(x, y):
        cand = [i for i, r in enumerate(rings) if seg_dist(x, y, r) <= target]
        if not cand:
            return target, False
        src = int(np.argmin((nx - x) ** 2 + (ny - y) ** 2))
        snap = float(np.hypot(nx[src] - x, ny[src] - y))
        reach = oracle_dijkstra(np.column_stack([nx, ny]), e_list, src, target * 1.5)
        best = np.inf
        for ci in cand:
            for node, nd in reach.items():
                if seg_dist(nx[node], ny[node], rings[ci]) < 20.0:
                    d = nd + snap + np.hypot(nx[node] - cents[ci][0],
                                             ny[node] - cents[ci][1])
                    best = min(best, d)
        if not np.isfinite(best):
            return target, False
        m = round(best, 0)
        return (m, True) if m <= target else (target, False)

    import ray.data as rd

    out = rd.from_pandas(pdf).map_batches(
        NetworkDistance,
        fn_constructor_kwargs=dict(
            nodes_ref=ray.put(nodes), edges_ref=ray.put(edges),
            greenspace_ref=ray.put(gs), target_dist=target,
            destination="centroids",
        ),
        batch_format="pyarrow", concurrency=1, num_cpus=1,
    ).to_pandas().set_index("doc_id")
    for _, row in pdf.iterrows():
        exp_d, exp_f = oracle_one(row.x, row.y)
        got = out.loc[row.doc_id]
        assert got["distance_to_greenspace"] == exp_d, (row.doc_id, got, exp_d)
        assert got["greenspace_within_target"] == exp_f


def test_isochrone_zonal_smoke(world):
    nodes, edges = _world_graph_tables(world)
    docs = doc_src.decode_geom(doc_src.read_documents(world["documents"]))
    poi = docs.select_columns(["doc_id", "x", "y"]).limit(10)
    out = poi.map_batches(
        IsochroneZonal,
        fn_constructor_kwargs=dict(
            nodes_ref=ray.put(nodes), edges_ref=ray.put(edges),
            tile_root=world["tiles"], buffer_dist=500.0,
        ),
        batch_format="pyarrow", concurrency=2, num_cpus=1,
    ).to_pandas()
    assert len(out) == 10
    ok = out["mean_NDVI"].dropna()
    assert len(ok) > 0
    assert ((ok >= 0) & (ok <= 1)).all()


def test_union_area_inclusion_exclusion():
    a = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    b = np.array([[1.0, 0.0], [3.0, 0.0], [3.0, 2.0], [1.0, 2.0]])
    c = np.array([[10.0, 10.0], [11.0, 10.0], [11.0, 11.0], [10.0, 11.0]])
    assert abs(union_area_of_convex([a, b, c]) - (6.0 + 1.0)) < 1e-9


def test_dissolve_components():
    a = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    b = np.array([[1.0, 1.0], [3.0, 1.0], [3.0, 3.0], [1.0, 3.0]])
    c = np.array([[10.0, 10.0], [12.0, 10.0], [12.0, 12.0], [10.0, 12.0]])
    out = dissolve_convex([a, b, c], ids=[7, 3, 9])
    assert len(out["rep_id"]) == 2
    blob = out["rep_id"].index(3)
    assert sorted(out["member_ids"][blob]) == [3, 7]
    assert abs(out["area"][blob] - 7.0) < 1e-9
    lone = out["rep_id"].index(9)
    assert abs(out["area"][lone] - 4.0) < 1e-9


def test_polygon_coverage_oracle(world):
    """Coverage vs dense-grid Monte-Carlo-free oracle (sub-pixel grid
    membership count) — agreement within discretization tolerance."""
    canopy = pq.read_table(world["canopy"])
    docs = doc_src.decode_geom(doc_src.read_documents(world["documents"]))
    pdf = docs.select_columns(["doc_id", "x", "y"]).limit(12).to_pandas()
    r = 250.0
    import ray.data as rd

    out = rd.from_pandas(pdf).map_batches(
        PolygonCoverage,
        fn_constructor_kwargs=dict(
            polys_ref=ray.put(canopy), buffer_dist=r, name="canopy_cover",
        ),
        batch_format="pyarrow", concurrency=1, num_cpus=1,
    ).to_pandas().set_index("doc_id")
    rings = [
        np.array([[p["x"], p["y"]] for p in rl[0]])
        for rl in canopy.column("rings").to_pylist()
    ]
    step = 2.0
    for _, row in pdf.iloc[:5].iterrows():
        xs = np.arange(row.x - r, row.x + r, step) + step / 2
        ys = np.arange(row.y - r, row.y + r, step) + step / 2
        gx, gy = np.meshgrid(xs, ys)
        aoi = geom.buffer_ngon(row.x, row.y, r, 16)
        in_aoi = geom.points_in_polygon(gx.ravel(), gy.ravel(), aoi)
        covered = np.zeros(gx.size, dtype=bool)
        for ring in rings:
            bx0, by0 = ring.min(0)
            bx1, by1 = ring.max(0)
            if bx1 < row.x - r or bx0 > row.x + r or by1 < row.y - r or by0 > row.y + r:
                continue
            covered |= geom.points_in_polygon(gx.ravel(), gy.ravel(), ring)
        exp = (covered & in_aoi).sum() / in_aoi.sum() * 100.0
        got = out.loc[row.doc_id, "canopy_cover"]
        assert abs(got - exp) < 1.0, (row.doc_id, got, exp)


def test_stringified_coverage_format(world):
    canopy = pq.read_table(world["canopy"])
    docs = doc_src.decode_geom(doc_src.read_documents(world["documents"]))
    poi = docs.select_columns(["doc_id", "x", "y"]).limit(5)
    out = poi.map_batches(
        PolygonCoverage,
        fn_constructor_kwargs=dict(
            polys_ref=ray.put(canopy), buffer_dist=200.0, name="canopy_cover",
            stringify=True,
        ),
        batch_format="pyarrow", concurrency=1, num_cpus=1,
    ).to_pandas()
    assert all(s.endswith("%") for s in out["canopy_cover"])


def test_euclidean_entrance_branch(world):
    """distance_type='euclidean' + destination='entrance': straight-line
    distance to the nearest pseudo-entrance node (accessibility.py:286-301)."""
    nodes, edges = _world_graph_tables(world)
    gs = pq.read_table(world["greenspace"])
    docs = doc_src.decode_geom(doc_src.read_documents(world["documents"]))
    pdf = docs.select_columns(["doc_id", "x", "y"]).limit(6).to_pandas()
    target = 600.0
    import ray.data as rd

    out = rd.from_pandas(pdf).map_batches(
        NetworkDistance,
        fn_constructor_kwargs=dict(
            nodes_ref=ray.put(nodes), edges_ref=ray.put(edges),
            greenspace_ref=ray.put(gs), target_dist=target,
            destination="entrance", distance_type="euclidean",
        ),
        batch_format="pyarrow", concurrency=1, num_cpus=1,
    ).to_pandas().set_index("doc_id")

    nid = nodes.column("node_id").to_numpy(zero_copy_only=False)
    nx = nodes.column("x").to_numpy(zero_copy_only=False)
    ny = nodes.column("y").to_numpy(zero_copy_only=False)
    pos = {int(i): k for k, i in enumerate(nid)}
    e_list = [
        (pos[int(u)], pos[int(v)], float(w))
        for u, v, w in zip(edges.column("u").to_pylist(), edges.column("v").to_pylist(),
                           edges.column("length").to_pylist())
    ]
    rings = [np.array([[p["x"], p["y"]] for p in r[0]])
             for r in gs.column("rings").to_pylist()]

    def seg_dist(px, py, ring):
        ax, ay = ring[:, 0], ring[:, 1]
        bx, by = np.roll(ax, -1), np.roll(ay, -1)
        dx, dy = bx - ax, by - ay
        l2 = dx * dx + dy * dy
        t = np.clip(np.where(l2 > 0, ((px - ax) * dx + (py - ay) * dy) / l2, 0), 0, 1)
        return np.sqrt((px - (ax + t * dx)) ** 2 + (py - (ay + t * dy)) ** 2).min()

    for _, row in pdf.iterrows():
        cand = [i for i, r in enumerate(rings) if seg_dist(row.x, row.y, r) <= target]
        exp_d, exp_f = target, False
        if cand:
            src = int(np.argmin((nx - row.x) ** 2 + (ny - row.y) ** 2))
            reach = oracle_dijkstra(np.column_stack([nx, ny]), e_list, src, target * 1.5)
            best = np.inf
            for ci in cand:
                for node in reach:
                    if seg_dist(nx[node], ny[node], rings[ci]) < 20.0:
                        best = min(best, float(np.hypot(nx[node] - row.x, ny[node] - row.y)))
            if np.isfinite(best):
                m = round(best, 0)
                if m <= target:
                    exp_d, exp_f = m, True
        got = out.loc[row.doc_id]
        assert got["distance_to_greenspace"] == exp_d
        assert got["greenspace_within_target"] == exp_f


def test_overlay_union_concave_blob():
    """Dissolve with concave members: two overlapping L-shapes."""
    from greenex_py_ray.stages.dissolve import dissolve_polygons

    L1 = np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], float)  # area 3
    L2 = L1 + np.array([0.5, 0.0])  # overlaps L1
    # union area by rectangle decomposition:
    # L1 = [0,2]x[0,1] ∪ [0,1]x[1,2]; L2 = [.5,2.5]x[0,1] ∪ [.5,1.5]x[1,2]
    # bottom strip union: [0,2.5]x[0,1] = 2.5 ; top strip: [0,1.5]x[1,2] = 1.5
    out = dissolve_polygons([L1, L2], ids=[4, 2])
    assert len(out["rep_id"]) == 1
    assert out["rep_id"][0] == 2
    assert abs(out["area"][0] - 4.0) < 1e-9


def test_polygon_coverage_concave_matches_grid():
    """General overlay path in PolygonCoverage vs a dense-grid estimate."""
    import pyarrow as pa_

    from greenex_py_ray.stages.coverage import PolygonCoverage

    # one concave C-shape around the PoI
    ring = np.array([[ -80, -80], [80, -80], [80, 80], [-80, 80],
                     [-80, 40], [40, 40], [40, -40], [-80, -40]], float)
    rings_col = [[[{"x": float(px), "y": float(py)} for px, py in ring]]]
    gs = pa_.table({"gs_id": pa_.array([1], pa_.int64()),
                    "rings": pa_.array(rings_col)})
    cov = PolygonCoverage(gs, buffer_dist=100.0, name="pct")
    assert not cov.convex_simple[0]
    batch = pa_.table({"doc_id": pa_.array([1], pa_.int64()),
                       "x": pa_.array([0.0]), "y": pa_.array([0.0])})
    got = cov(batch).column("pct").to_numpy(zero_copy_only=False)[0]
    # dense-grid reference
    aoi = geom.buffer_ngon(0.0, 0.0, 100.0, 16)
    g = np.linspace(-101, 101, 900)
    gx, gy = np.meshgrid(g, g)
    in_aoi = geom.points_in_polygon(gx.ravel(), gy.ravel(), aoi)
    in_ring = geom.points_in_polygon(gx.ravel(), gy.ravel(), ring)
    exp = (in_aoi & in_ring).sum() / in_aoi.sum() * 100.0
    assert abs(got - exp) < 1.0  # grid resolution tolerance
    # and the exact overlay agrees with itself via clip_area_general
    exact = geom.clip_area_general(ring, aoi) / geom.polygon_area(aoi) * 100.0
    assert abs(got - round(exact, 2)) < 1e-9


def test_dissolve_distributed_matches_driver(world):
    """dissolve_dataset (cell shuffle + distributed components + blob
    groupby) must reproduce the driver-side dissolve exactly."""
    import pyarrow as pa_
    import pyarrow.parquet as pq_
    import ray.data as rd

    from greenex_py_ray.stages.dissolve import dissolve_dataset, dissolve_polygons

    gs = pq_.read_table(world["greenspace"])
    rings = [np.array([[p["x"], p["y"]] for p in r[0]])
             for r in gs.column("rings").to_pylist()]
    ids = gs.column("gs_id").to_pylist()
    drv = dissolve_polygons(rings, ids=ids)
    polys = rd.from_arrow(pa_.table({
        "gs_id": gs.column("gs_id"),
        "ring_x": pa_.array([r[:, 0].tolist() for r in rings],
                            pa_.list_(pa_.float64())),
        "ring_y": pa_.array([r[:, 1].tolist() for r in rings],
                            pa_.list_(pa_.float64())),
    }))
    dist = dissolve_dataset(polys, key_col="gs_id").to_pandas() \
        .sort_values("rep_id").reset_index(drop=True)
    assert dist["rep_id"].tolist() == sorted(drv["rep_id"])
    drv_by_rep = {r: (len(m), a, cx, cy) for r, m, a, cx, cy in zip(
        drv["rep_id"], drv["member_ids"], drv["area"],
        drv["centroid_x"], drv["centroid_y"])}
    for _, row in dist.iterrows():
        n, a, cx, cy = drv_by_rep[row["rep_id"]]
        assert row["n_members"] == n
        assert abs(row["area"] - a) < 1e-6
        assert abs(row["centroid_x"] - cx) < 1e-6
        assert abs(row["centroid_y"] - cy) < 1e-6


def test_od_matrix_line_graph():
    """ODMatrix on a 5-node line graph: costs are snap + hop sums,
    cutoff prunes far destinations, dest subset honors dest_mod."""
    from greenex_py_ray.stages.netaccess import ODMatrix

    # nodes 0..4 at x = 0, 100, 200, 300, 400 (ids 10,11,12,13,14)
    nodes = pa.table({"node_id": [10, 11, 12, 13, 14],
                      "x": [0.0, 100.0, 200.0, 300.0, 400.0],
                      "y": [0.0] * 5})
    edges = pa.table({"u": [10, 11, 12, 13], "v": [11, 12, 13, 14],
                      "length": [100.0] * 4})
    # origins snap to node 10 (origin A, snap 5) and node 12 (B, snap 0)
    batch = pa.table({"doc_id": ["A", "B"],
                      "x": [0.0, 200.0], "y": [5.0, 0.0]})
    # dests: even ids 10, 12, 14
    od = ODMatrix(nodes, edges, cutoff=250.0, dest_mod=2)
    out = od(batch).to_pandas().sort_values(
        ["doc_id", "dest_node"]).reset_index(drop=True)
    got = {(r.doc_id, r.dest_node): r.cost for r in out.itertuples()}
    # A: snap 5 at node 10 → 10 (0), 12 (200); 14 is 400 > cutoff
    # B: snap 0 at node 12 → 10 (200), 12 (0), 14 (200)
    assert got == {("A", 10): 5.0, ("A", 12): 205.0,
                   ("B", 10): 200.0, ("B", 12): 0.0, ("B", 14): 200.0}


def test_od_matrix_explicit_dest_ids():
    from greenex_py_ray.stages.netaccess import ODMatrix

    nodes = pa.table({"node_id": [1, 2, 3],
                      "x": [0.0, 50.0, 100.0], "y": [0.0, 0.0, 0.0]})
    edges = pa.table({"u": [1, 2], "v": [2, 3], "length": [50.0, 50.0]})
    batch = pa.table({"doc_id": ["p"], "x": [0.0], "y": [0.0]})
    od = ODMatrix(nodes, edges, cutoff=1000.0, dest_ids=[3])
    out = od(batch).to_pandas()
    assert out.dest_node.tolist() == [3] and out.cost.tolist() == [100.0]
