"""Seeded inputs and the expected outputs they imply.

Worlds come from ``synth.ensure_world`` under the benchmark's own work
directory, keyed by size and seed.  Expected values are recomputed here
from the generated files only: brute-force disk statistics over pixel
centres for NDVI, the nearest dissolved-unit centroid for access, and
in-process layer calls for viewshed GVI.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from . import checks, spec
from .layers import gvi_rollup

#: Worlds kept on disk at once (each is ~100 MB, mostly raster tiles).
KEEP_WORLDS = 6


def world(work: str, n_docs: int, seed: int) -> dict[str, str]:
    """Generate (or reuse) the world for ``(n_docs, seed)``."""
    from greenex_py_ray.sources import synth

    base = os.path.join(work, "worlds")
    root = os.path.join(base, f"n{n_docs}_s{seed}")
    paths = synth.ensure_world(root, n_docs=n_docs, seed=seed)
    os.utime(root)
    others = sorted((os.path.join(base, d) for d in os.listdir(base)
                     if d != os.path.basename(root)), key=os.path.getmtime)
    for old in others[:max(0, len(others) - (KEEP_WORLDS - 1))]:
        shutil.rmtree(old, ignore_errors=True)
    return paths


def read_docs(paths: dict) -> pa.Table:
    return pq.read_table(paths["documents"])


def point_xy(docs: pa.Table, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parse ``POINT(x y)`` from the first geom span of selected rows."""
    xs, ys = [], []
    for spans in docs.column("spans").take(pa.array(rows)).to_pylist():
        text = next(s["text"] for s in spans if s["kind"] == "geom")
        x, y = text[text.index("(") + 1:text.rindex(")")].split()
        xs.append(float(x))
        ys.append(float(y))
    return np.array(xs), np.array(ys)


def sample_rows(n: int, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed * 7919 + 17)
    return np.sort(rng.choice(n, size=min(k, n), replace=False))


# ---------------------------------------------------------------------------
# NDVI: disk mean/std over pixel centres
# ---------------------------------------------------------------------------


def load_band(tile_dir: str, band: str) -> tuple[dict, float]:
    """{(tix, tiy): (x0, y0, array)} and the pixel size, read from the
    tile store file."""
    t = pq.read_table(os.path.join(tile_dir, f"tiles_{band}.parquet"),
                      columns=["tix", "tiy", "x0", "y0", "res", "w", "h", "data"])
    tiles = {}
    res = float(t.column("res")[0].as_py())
    for row in t.to_pylist():
        w, h = row["w"], row["h"]
        dtype = np.float64 if len(row["data"]) == 8 * w * h else np.float32
        arr = np.frombuffer(row["data"], dtype=dtype).reshape(h, w)
        tiles[(row["tix"], row["tiy"])] = (row["x0"], row["y0"], arr)
    return tiles, res


def disk_stats(tiles: dict, res: float, x: float, y: float,
               r: float) -> tuple[float, float]:
    """Mean and population std of the pixels (clamped at 0, NaN
    skipped) whose centres lie within ``r`` of ``(x, y)``."""
    vals = []
    for x0, y0, arr in tiles.values():
        h, w = arr.shape
        if x + r < x0 or x - r > x0 + w * res or y + r < y0 or y - r > y0 + h * res:
            continue
        cx = x0 + (np.arange(w) + 0.5) * res
        cy = y0 + (np.arange(h) + 0.5) * res
        cols = np.flatnonzero(np.abs(cx - x) <= r)
        rows = np.flatnonzero(np.abs(cy - y) <= r)
        if not len(cols) or not len(rows):
            continue
        dx2 = (cx[cols] - x) ** 2
        dy2 = (cy[rows] - y) ** 2
        mask = dy2[:, None] + dx2[None, :] <= r * r
        v = arr[np.ix_(rows, cols)][mask]
        vals.append(v[np.isfinite(v)])
    v = np.maximum(np.concatenate(vals), 0.0) if vals else np.empty(0)
    if not len(v):
        return None, None
    return float(v.mean()), float(v.std())


# ---------------------------------------------------------------------------
# Access: nearest dissolved-unit centroid
# ---------------------------------------------------------------------------


def unit_centroids(gs_path: str) -> np.ndarray:
    """Centroids of the union of each group of overlapping greenspace
    rectangles, by coordinate compression (exact for axis-aligned
    rectangles)."""
    t = pq.read_table(gs_path, columns=["x0", "y0", "x1", "y1"])
    x0, y0, x1, y1 = (t.column(c).to_numpy() for c in ("x0", "y0", "x1", "y1"))
    n = len(x0)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if x0[i] <= x1[j] and x0[j] <= x1[i] and y0[i] <= y1[j] and y0[j] <= y1[i]:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    out = []
    for members in groups.values():
        m = np.array(members)
        xs = np.unique(np.concatenate([x0[m], x1[m]]))
        ys = np.unique(np.concatenate([y0[m], y1[m]]))
        mx = (xs[:-1] + xs[1:]) / 2
        my = (ys[:-1] + ys[1:]) / 2
        cover = np.zeros((len(my), len(mx)), dtype=bool)
        for i in m:
            cover |= ((my[:, None] > y0[i]) & (my[:, None] < y1[i])
                      & (mx[None, :] > x0[i]) & (mx[None, :] < x1[i]))
        area = np.outer(np.diff(ys), np.diff(xs)) * cover
        out.append(((area * mx[None, :]).sum() / area.sum(),
                    (area * my[:, None]).sum() / area.sum()))
    return np.array(out)


# ---------------------------------------------------------------------------
# Expected outputs, cached per (workload, size, seed)
# ---------------------------------------------------------------------------


def _viewshed_sample(paths: dict, docs: pa.Table, rows: np.ndarray,
                     cfg: dict) -> dict:
    """Per-doc raw GVI mean and sample-point count from the in-process
    sampler and kernel layers."""
    from greenex_py_ray.pipelines import visibility as vis_pipe
    from greenex_py_ray.sources.documents import DecodeGeom
    from greenex_py_ray.stages import visibility as vis

    sub = docs.take(pa.array(rows))
    pts = DecodeGeom()(sub).select(["doc_id", "x", "y"])
    edges = vis_pipe.edge_coords_table(paths["network_nodes"],
                                       paths["network_edges"])
    sp = vis.SamplePointsViewshed(edges, buffer_dist=cfg["buffer_dist"],
                                  sample_dist=50.0)(pts)
    scored = vis.ViewshedGVI(paths["tiles"], viewing_dist=250.0)(sp)
    keys, mean, n = gvi_rollup(scored)
    return {k: [float(g), int(c)] for k, g, c in zip(keys, mean, n)}


def expected(work: str, workload: str, paths: dict, seed: int) -> dict:
    cfg = spec.WORKLOADS[workload]
    path = os.path.join(work, "expected",
                        f"{workload}_n{cfg['n_docs']}_s{seed}.json")
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    docs = read_docs(paths)
    n = docs.num_rows
    rows = sample_rows(n, cfg["sample"], seed)
    keys = docs.column("doc_id").take(pa.array(rows)).to_pylist()
    if workload == "viewshed_gvi":
        sample = _viewshed_sample(paths, docs, rows, cfg)
    else:
        x, y = point_xy(docs, rows)
        if workload == "ndvi_docs":
            tiles, res = load_band(paths["tiles"], "ndvi")
            sample = {k: list(disk_stats(tiles, res, a, b, cfg["buffer_dist"]))
                      for k, a, b in zip(keys, x, y)}
        else:
            cen = unit_centroids(paths["greenspace"])
            target = cfg["target_dist"]
            d = np.hypot(x[:, None] - cen[None, :, 0],
                         y[:, None] - cen[None, :, 1]).min(axis=1)
            rd = np.round(d, 0)
            sample = {k: [float(a) if r <= target else target, bool(r <= target)]
                      for k, a, r in zip(keys, d, rd)}
    out = {
        "n": n,
        "ids_fp": str(checks.id_fingerprint(docs.column("doc_id"))),
        "rows_fp": str(checks.rows_fingerprint(docs.column("doc_id"),
                                               docs.column("spans"))),
        "sample": sample,
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as f:
        json.dump(out, f)
    os.replace(path + ".tmp", path)
    return out
