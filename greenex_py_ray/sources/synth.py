"""Deterministic synthetic world for the interleaved-document engine.

`BASELINE.json input_hint` fixes the primary input shape:

    documents(doc_id: string,
              spans: list<struct<kind: string, text: string,
                                 media_ref: string, offset: int32>>)

A span with ``kind="geom"`` carries the PoI location as ``POINT(x y)``
WKT in ``text``; ``kind="text"`` carries attribute payloads;
``kind="media"`` carries a ``media_ref`` (``tile://{band}/{tix}_{tiy}``
or ``img://{image_id}``).  The per-row invariant of every pipeline is
span-sequence equality — spans pass through byte-identical and in order.

Side tables mirror the reference's side inputs
(`/root/reference/GreenExp/availability.py` rasters & vectors,
`accessibility.py` greenspaces & network, `visibility.py` DSM/DTM/green
& image features) but are generated from closed-form fields with a fixed
seed, so an independent straight-line oracle can recompute every zonal /
kNN / viewshed value exactly.  No external data, no network.

Everything here is driver-side, small-scale generation for tests and
benchmarks; at production scale these tables are assumed to already
exist as partitioned Parquet/Lance fragments.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# ---------------------------------------------------------------------------
# World parameters (all deterministic; seed fixed per generator call)
# ---------------------------------------------------------------------------

WORLD = 20_000.0          # world is [0, WORLD) × [0, WORLD) in projected meters
RASTER_RES = 10.0         # raster pixel size (matches the reference's 10 m fixtures)
TILE_PX = 256             # tile width/height in pixels
TILE_SIZE = RASTER_RES * TILE_PX  # 2560 m per tile edge
BANDS = ("ndvi", "lulc", "dsm", "dtm", "green")

SPAN_TYPE = pa.struct(
    [
        pa.field("kind", pa.string()),
        pa.field("text", pa.string()),
        pa.field("media_ref", pa.string()),
        pa.field("offset", pa.int32()),
    ]
)
DOC_SCHEMA = pa.schema(
    [pa.field("doc_id", pa.string()), pa.field("spans", pa.list_(SPAN_TYPE))]
)


# ---------------------------------------------------------------------------
# Closed-form raster fields (pixel-center evaluated)
# ---------------------------------------------------------------------------


def field_ndvi(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """NDVI in [-1, 1] as a smooth deterministic field of world coords."""
    v = (
        0.45 * np.sin(x * 0.00123) * np.cos(y * 0.00117)
        + 0.30 * np.sin((x + y) * 0.00071)
        + 0.15
    )
    # float64 on purpose: the DuckDB oracle recomputes this closed form in
    # SQL double math; keeping the stored tiles double makes the zonal
    # sums bit-comparable (only groupby addition order differs).
    return np.minimum(np.maximum(v, -1.0), 1.0)


def field_dtm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return 20.0 * np.sin(x * 0.0004) + 20.0 * np.cos(y * 0.0005) + 50.0


def field_dsm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """DSM = DTM + deterministic 'building' blocks on a 200 m urban grid."""
    base = field_dtm(x, y).astype(np.float64)
    bx = np.floor(x / 200.0).astype(np.int64)
    by = np.floor(y / 200.0).astype(np.int64)
    h = (bx * 73_856_093 ^ by * 19_349_663) & 0xFFFF
    has_building = (h % 7) == 0
    height = 6.0 + (h % 5) * 4.0
    return base + np.where(has_building, height, 0.0)


def field_green(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (field_ndvi(x, y) > 0.25).astype(np.float64)


def field_lulc(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """ESA-WorldCover-style classes {10..100} from NDVI bands + a grid hash."""
    v = field_ndvi(x, y).astype(np.float64)
    gx = np.floor(x / 400.0).astype(np.int64)
    gy = np.floor(y / 400.0).astype(np.int64)
    h = ((gx * 2_654_435_761 + gy * 40_503) % 10).astype(np.int64)
    cls = np.where(
        v > 0.45, 10,                       # tree cover
        np.where(v > 0.25, 30,              # grassland
                 np.where(v > 0.05, 40,     # cropland
                          np.where(h < 3, 50, np.where(h < 6, 60, 80)))),
    )
    return cls.astype(np.int16)


_FIELDS = {
    "ndvi": field_ndvi,
    "lulc": field_lulc,
    "dsm": field_dsm,
    "dtm": field_dtm,
    "green": field_green,
}


def tile_array(band: str, tix: int, tiy: int) -> np.ndarray:
    """Dense (TILE_PX, TILE_PX) array for one tile, row 0 = southmost row,
    values evaluated at pixel centers.  This is the single source of
    truth shared by the tile-store writer, the pipelines' tile fetch,
    and the test oracles."""
    px = (np.arange(TILE_PX) + 0.5) * RASTER_RES
    xs = tix * TILE_SIZE + px
    ys = tiy * TILE_SIZE + px
    gx, gy = np.meshgrid(xs, ys, indexing="xy")  # [row=y, col=x]
    return _FIELDS[band](gx, gy)


def write_raster_tiles(out_dir: str) -> str:
    """Materialize the tile store as partitioned parquet: one row per
    (band, tile), data = float32/int16 row-major bytes.  Layout mirrors a
    Lance fragment set: file per band, tile_id addressable."""
    os.makedirs(out_dir, exist_ok=True)
    ntiles = int(np.ceil(WORLD / TILE_SIZE))
    for band in BANDS:
        rows = {
            "tile_id": [], "band": [], "tix": [], "tiy": [],
            "x0": [], "y0": [], "res": [], "w": [], "h": [], "data": [],
        }
        for tix in range(ntiles):
            for tiy in range(ntiles):
                arr = tile_array(band, tix, tiy)
                rows["tile_id"].append(f"{band}/{tix}_{tiy}")
                rows["band"].append(band)
                rows["tix"].append(tix)
                rows["tiy"].append(tiy)
                rows["x0"].append(tix * TILE_SIZE)
                rows["y0"].append(tiy * TILE_SIZE)
                rows["res"].append(RASTER_RES)
                rows["w"].append(TILE_PX)
                rows["h"].append(TILE_PX)
                rows["data"].append(arr.tobytes())
        t = pa.table(
            {
                "tile_id": pa.array(rows["tile_id"], pa.string()),
                "band": pa.array(rows["band"], pa.string()),
                "tix": pa.array(rows["tix"], pa.int32()),
                "tiy": pa.array(rows["tiy"], pa.int32()),
                "x0": pa.array(rows["x0"], pa.float64()),
                "y0": pa.array(rows["y0"], pa.float64()),
                "res": pa.array(rows["res"], pa.float64()),
                "w": pa.array(rows["w"], pa.int32()),
                "h": pa.array(rows["h"], pa.int32()),
                "data": pa.array(rows["data"], pa.binary()),
            }
        )
        pq.write_table(t, os.path.join(out_dir, f"tiles_{band}.parquet"), row_group_size=4)
    return out_dir


#: numpy dtype of the packed ``data`` buffer per band.
BAND_DTYPE = {"ndvi": np.float64, "lulc": np.int16, "dsm": np.float64,
              "dtm": np.float64, "green": np.float64}


def write_pixel_tables(root: str,
                       bands=("dsm", "dtm", "green", "ndvi")) -> dict[str, str]:
    """Per-pixel ``(r, c, v)`` parquet tables for gate oracles that need
    BIT-EXACT raster values — the viewshed's strict line-of-sight
    comparison cannot tolerate the last-ulp differences between numpy's
    and DuckDB's libm ``sin``/``cos``, so the oracle joins against the
    exact float64 values the TileStore serves instead of recomputing the
    closed form.  Lazily written next to the world (oracle-build only —
    bench worlds never pay this cost); idempotent."""
    paths = {}
    ntiles = int(np.ceil(WORLD / TILE_SIZE))
    npx = ntiles * TILE_PX
    for band in bands:
        p = os.path.join(root, f"pixels_{band}.parquet")
        paths[band] = p
        if os.path.exists(p):
            continue
        full = np.empty((npx, npx))
        for tix in range(ntiles):
            for tiy in range(ntiles):
                full[tiy * TILE_PX:(tiy + 1) * TILE_PX,
                     tix * TILE_PX:(tix + 1) * TILE_PX] = tile_array(band, tix, tiy)
        rr, cc = np.meshgrid(np.arange(npx, dtype=np.int32),
                             np.arange(npx, dtype=np.int32), indexing="ij")
        t = pa.table({"r": pa.array(rr.ravel()), "c": pa.array(cc.ravel()),
                      "v": pa.array(full.ravel().astype(np.float64))})
        pq.write_table(t, p)
    return paths


# ---------------------------------------------------------------------------
# Documents (interleaved spans)
# ---------------------------------------------------------------------------

_WORDS = (
    "park tree canopy street view green exposure urban walk node raster "
    "tile vector buffer sample point network graph shade leaf grass"
).split()


def doc_coordinates(n: int, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    """Mixture of uniform background + dense urban clusters (hot cells,
    exercises salting).  Deterministic for a given (n, seed)."""
    rng = np.random.default_rng(seed)
    n_clustered = n * 3 // 10
    n_uniform = n - n_clustered
    xu = rng.uniform(0.0, WORLD, n_uniform)
    yu = rng.uniform(0.0, WORLD, n_uniform)
    k = 5
    centers = rng.uniform(WORLD * 0.2, WORLD * 0.8, (k, 2))
    which = rng.integers(0, k, n_clustered)
    xc = np.clip(centers[which, 0] + rng.normal(0, 250.0, n_clustered), 0, WORLD - 1e-6)
    yc = np.clip(centers[which, 1] + rng.normal(0, 250.0, n_clustered), 0, WORLD - 1e-6)
    x = np.concatenate([xu, xc])
    y = np.concatenate([yu, yc])
    order = rng.permutation(n)
    return x[order], y[order]


def make_documents(n: int, seed: int = 42, id_start: int = 0) -> pa.Table:
    """Vectorized construction straight into Arrow (no per-row dicts —
    generating the 10^5-doc bench world must stay cheap).  ``id_start``
    offsets the doc-id range (chunked generation of >8M-doc worlds:
    a single call would overflow Arrow's 2 GB non-chunked string
    buffer in StructArray.from_arrays)."""
    x, y = doc_coordinates(n, seed)
    rng = np.random.default_rng(seed + 1)
    doc_ids = [f"doc-{i:012d}" for i in range(id_start, id_start + n)]
    ntiles = int(np.ceil(WORLD / TILE_SIZE))
    tix = np.minimum((x // TILE_SIZE).astype(np.int64), ntiles - 1)
    tiy = np.minimum((y // TILE_SIZE).astype(np.int64), ntiles - 1)
    n_text = rng.integers(1, 4, n)
    counts = n_text + 2  # geom + texts + media
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    total = int(offsets[-1])
    # per-span local position within its document
    starts = offsets[:-1].astype(np.int64)
    local = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    parent = np.repeat(np.arange(n, dtype=np.int64), counts)
    is_geom = local == 0
    is_media = local == (counts[parent] - 1)
    kinds = np.where(is_geom, "geom", np.where(is_media, "media", "text"))
    geom_texts = [f"POINT({a!r} {b!r})" for a, b in zip(x.tolist(), y.tolist())]
    word_idx = rng.integers(0, len(_WORDS) - 3, total)
    texts = [""] * total
    media = [""] * total
    gpos = np.flatnonzero(is_geom)
    for j, p in zip(gpos.tolist(), parent[gpos].tolist()):
        texts[j] = geom_texts[p]
    tpos = np.flatnonzero(~is_geom & ~is_media)
    for j in tpos.tolist():
        w = int(word_idx[j])
        texts[j] = f"{_WORDS[w]} {_WORDS[w + 1]} {_WORDS[w + 2]}"
    mpos = np.flatnonzero(is_media)
    for j, p in zip(mpos.tolist(), parent[mpos].tolist()):
        media[j] = f"tile://ndvi/{tix[p]}_{tiy[p]}"
    struct = pa.StructArray.from_arrays(
        [
            pa.array(kinds.tolist(), pa.string()),
            pa.array(texts, pa.string()),
            pa.array(media, pa.string()),
            pa.array(local.astype(np.int32), pa.int32()),
        ],
        fields=list(SPAN_TYPE),
    )
    spans = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), struct)
    return pa.table(
        {"doc_id": pa.array(doc_ids, pa.string()), "spans": spans}, schema=DOC_SCHEMA
    )


# ---------------------------------------------------------------------------
# Vector side tables: greenspace / canopy polygons
# ---------------------------------------------------------------------------

RING_TYPE = pa.list_(pa.list_(pa.struct([pa.field("x", pa.float64()), pa.field("y", pa.float64())])))


def _poly_table(rings_list, ids) -> pa.Table:
    from ..geom import polygon_area, polygon_centroid

    areas = [polygon_area(r) for r in rings_list]
    cents = [polygon_centroid(r) for r in rings_list]
    rings_py = [[[{"x": float(px), "y": float(py)} for px, py in ring]] for ring in rings_list]
    return pa.table(
        {
            "gs_id": pa.array(ids, pa.int64()),
            "rings": pa.array(rings_py, RING_TYPE),
            "area": pa.array(areas, pa.float64()),
            "centroid_x": pa.array([c[0] for c in cents], pa.float64()),
            "centroid_y": pa.array([c[1] for c in cents], pa.float64()),
        }
    )


def _rect_table(cx, cy, w, h, ids) -> pa.Table:
    rings = [
        np.array([[cx[i] - w[i], cy[i] - h[i]], [cx[i] + w[i], cy[i] - h[i]],
                  [cx[i] + w[i], cy[i] + h[i]], [cx[i] - w[i], cy[i] + h[i]]])
        for i in range(len(cx))
    ]
    t = _poly_table(rings, ids)
    # rect bounds as flat columns: the DuckDB gate oracles use closed
    # forms (boundary distance, slab-decomposition union area) that read
    # these directly instead of unnesting the rings
    return (t.append_column("x0", pa.array(cx - w))
             .append_column("y0", pa.array(cy - h))
             .append_column("x1", pa.array(cx + w))
             .append_column("y1", pa.array(cy + h)))


def make_greenspace() -> pa.Table:
    """Axis-aligned rectangles, a third of them chained onto the
    previous rect's center so overlapping clusters exist (exercises the
    dissolve of ``accessibility.py:125-127``).

    World v3: rect-only.  Every engine path still treats these as
    general polygons (the ``rings`` column); the rect shape is what
    makes the pillar-gate DuckDB oracles exactly expressible (boundary
    distance, components, slab-decomposition union area/centroid).
    General/concave/holed geometry stays covered by the pytest parity
    fixtures in ``tests/``."""
    n = 120
    rng = np.random.default_rng(43)
    cx = np.empty(n)
    cy = np.empty(n)
    for i in range(n):
        if i % 3 == 2:
            # chain onto the previous rect → guaranteed overlaps
            cx[i] = np.clip(cx[i - 1] + rng.uniform(-400, 400), 500, WORLD - 500)
            cy[i] = np.clip(cy[i - 1] + rng.uniform(-400, 400), 500, WORLD - 500)
        else:
            cx[i], cy[i] = rng.uniform(500, WORLD - 500, 2)
    w = rng.uniform(80, 600, n)
    h = rng.uniform(80, 600, n)
    return _rect_table(cx, cy, w, h, list(range(n)))


def make_canopy() -> pa.Table:
    """Axis-aligned canopy rectangles (world v3, same rationale as
    :func:`make_greenspace`)."""
    n = 300
    rng = np.random.default_rng(44)
    cx = rng.uniform(200, WORLD - 200, n)
    cy = rng.uniform(200, WORLD - 200, n)
    w = rng.uniform(15, 120, n)
    h = rng.uniform(15, 120, n)
    return _rect_table(cx, cy, w, h, list(range(n)))


# ---------------------------------------------------------------------------
# Street network (grid graph + diagonals)
# ---------------------------------------------------------------------------


def make_network() -> tuple[pa.Table, pa.Table]:
    """Grid street network over the whole world: nodes at grid corners,
    edges horizontal/vertical plus deterministic diagonals."""
    spacing = 200.0
    rng = np.random.default_rng(45)
    m = int(WORLD // spacing) + 1
    ii, jj = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    node_id = (ii * m + jj).ravel().astype(np.int64)
    nx = (ii * spacing).ravel().astype(np.float64)
    ny = (jj * spacing).ravel().astype(np.float64)
    nodes = pa.table({"node_id": node_id, "x": nx, "y": ny})

    us, vs = [], []
    # horizontal edges
    a = (ii[:-1, :] * m + jj[:-1, :]).ravel()
    b = ((ii[:-1, :] + 1) * m + jj[:-1, :]).ravel()
    us.append(a); vs.append(b)
    # vertical edges
    a = (ii[:, :-1] * m + jj[:, :-1]).ravel()
    b = (ii[:, :-1] * m + jj[:, :-1] + 1).ravel()
    us.append(a); vs.append(b)
    # some diagonals
    mask = ((ii[:-1, :-1] * 31 + jj[:-1, :-1] * 17) % 5 == 0)
    a = (ii[:-1, :-1][mask] * m + jj[:-1, :-1][mask]).ravel()
    b = ((ii[:-1, :-1][mask] + 1) * m + jj[:-1, :-1][mask] + 1).ravel()
    us.append(a); vs.append(b)
    u = np.concatenate(us).astype(np.int64)
    v = np.concatenate(vs).astype(np.int64)
    length = np.hypot(nx[u] - nx[v], ny[u] - ny[v])
    # drop a few edges to make the graph irregular
    keep = rng.random(len(u)) > 0.03
    edges = pa.table(
        {"u": u[keep], "v": v[keep], "length": length[keep]}
    )
    return nodes, edges


# ---------------------------------------------------------------------------
# Image features (streetview)
# ---------------------------------------------------------------------------


def make_image_features() -> pa.Table:
    n = 2000
    rng = np.random.default_rng(46)
    x = rng.uniform(0, WORLD, n)
    y = rng.uniform(0, WORLD, n)
    ids = [f"img-{i:08d}" for i in range(n)]
    return pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "x": x,
            "y": y,
            "is_panoramic": pa.array((rng.random(n) > 0.5).tolist(), pa.bool_()),
            "media_ref": pa.array([f"img://{i}" for i in ids], pa.string()),
        }
    )


# ---------------------------------------------------------------------------
# One-call world materializer (cached by (root, n_docs))
# ---------------------------------------------------------------------------


#: bump when any generator above changes — cached /tmp worlds carry the
#: version in their completion marker and regenerate on mismatch
WORLD_VERSION = 3


def ensure_world(root: str, n_docs: int = 2000, seed: int = 42) -> dict[str, str]:
    """Write the full synthetic world under ``root`` if absent; returns a
    path map.  Idempotent — used by tests, bench and queries()."""
    paths = {
        "documents": os.path.join(root, "documents"),
        "greenspace": os.path.join(root, "greenspace.parquet"),
        "canopy": os.path.join(root, "canopy.parquet"),
        "network_nodes": os.path.join(root, "network_nodes.parquet"),
        "network_edges": os.path.join(root, "network_edges.parquet"),
        "image_features": os.path.join(root, "image_features.parquet"),
        "tiles": os.path.join(root, "tiles"),
    }
    marker = os.path.join(root, f".complete_v{WORLD_VERSION}_{n_docs}_{seed}")
    if os.path.exists(marker):
        return paths
    os.makedirs(root, exist_ok=True)
    # documents are written as a DIRECTORY of fragment files (Lance-style
    # fragment set): a single parquet file makes the Ray read one serial
    # task that gates the whole fused read→decode→zonal chain
    os.makedirs(paths["documents"], exist_ok=True)
    CHUNK = 8_000_000  # stay under Arrow's 2 GB contiguous string cap
    if n_docs <= CHUNK:
        docs_tbl = make_documents(n_docs, seed)
        n_frag = max(1, min(32, n_docs // 8192))
        frag_rows = (n_docs + n_frag - 1) // n_frag
        for f in range(n_frag):
            frag = docs_tbl.slice(f * frag_rows, frag_rows)
            if frag.num_rows:
                pq.write_table(
                    frag,
                    os.path.join(paths["documents"], f"frag-{f:05d}.parquet"),
                    row_group_size=2048)
    else:
        # chunked generation: content differs from a hypothetical
        # single-shot build (per-chunk rng streams), but is fully
        # deterministic for (n_docs, seed) — all consumers read the
        # written files, so the world stays self-consistent
        frag = 0
        done = 0
        while done < n_docs:
            m = min(CHUNK, n_docs - done)
            t = make_documents(m, seed + 1000 * (frag + 1), id_start=done)
            sub = max(1, min(8, m // 1_000_000))
            rows = (m + sub - 1) // sub
            for g in range(sub):
                part = t.slice(g * rows, rows)
                if part.num_rows:
                    pq.write_table(
                        part,
                        os.path.join(paths["documents"],
                                     f"frag-{frag:05d}-{g:02d}.parquet"),
                        row_group_size=2048)
            done += m
            frag += 1
    pq.write_table(make_greenspace(), paths["greenspace"])
    pq.write_table(make_canopy(), paths["canopy"])
    nodes, edges = make_network()
    pq.write_table(nodes, paths["network_nodes"])
    pq.write_table(edges, paths["network_edges"])
    pq.write_table(make_image_features(), paths["image_features"])
    write_raster_tiles(paths["tiles"])
    with open(marker, "w") as f:
        f.write("ok")
    return paths
