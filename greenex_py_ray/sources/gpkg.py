"""GeoPackage vector reader (stdlib sqlite3 + a minimal WKB parser).

The reference reads every vector fixture with ``gpd.read_file`` (fiona/
GDAL).  Neither exists in this environment, but a GeoPackage is just a
SQLite database (OGC 12-128r: ``gpkg_contents`` lists layers,
``gpkg_geometry_columns`` names the geometry column, features are plain
rows whose geometry is a ``GP``-header blob wrapping standard WKB), so
the reader below parses it directly with the standard library — no new
dependencies, works on every ``/root/reference/TestData/*.gpkg``
fixture.

Output is an Arrow table in the engine's native geometry model:
POINT layers get ``x``/``y`` columns; POLYGON/MULTIPOLYGON layers get
``ring_x``/``ring_y``/``ring_sizes`` flattened ring columns (the same
shape ``DecodeGeom(parse_polygons=True)`` produces, even-odd semantics
— ring 0 exterior, subsequent rings holes/members), plus all non-
geometry attribute columns.

At 100 TB scale a file like this is a SMALL side input (broadcast via
``ray.put``); large vector corpora live as parquet.  For a directory of
many GeoPackages, wrap :func:`read_gpkg` in ``ray.data.read_binary_files
→ map_batches`` — each file is independent.
"""

from __future__ import annotations

import sqlite3
import struct

import numpy as np
import pyarrow as pa

_WKB_POINT = 1
_WKB_LINESTRING = 2
_WKB_POLYGON = 3
_WKB_MULTIPOINT = 4
_WKB_MULTILINESTRING = 5
_WKB_MULTIPOLYGON = 6


class _Cursor:
    def __init__(self, buf: bytes, off: int = 0):
        self.buf = buf
        self.off = off

    def take(self, fmt: str):
        out = struct.unpack_from(fmt, self.buf, self.off)
        self.off += struct.calcsize(fmt)
        return out

    def doubles(self, n: int, bo: str) -> np.ndarray:
        arr = np.frombuffer(self.buf, dtype=(("<" if bo == "<" else ">") + "f8"),
                            count=n, offset=self.off)
        self.off += 8 * n
        return arr.astype(np.float64)


def _parse_wkb(cur: _Cursor):
    """One WKB geometry → ("point", (x, y)) or ("polygon", [rings]) or
    ("line", (N,2) array); Z/M flags handled by coordinate stride."""
    (order,) = cur.take("B")
    bo = "<" if order == 1 else ">"
    (gtype,) = cur.take(bo + "I")
    # coordinate stride: ISO type codes put Z/M in the thousands digit
    # (1xxx=Z, 2xxx=M, 3xxx=ZM → 4 doubles per vertex), EWKB uses the
    # top flag bits (0x80000000=Z, 0x40000000=M)
    iso_kind = ((gtype & 0x1FFFFFFF) % 10000) // 1000
    has_z = bool(gtype & 0x80000000) or iso_kind in (1, 3)
    has_m = bool(gtype & 0x40000000) or iso_kind in (2, 3)
    if gtype & 0x20000000:
        # EWKB SRID flag: a 4-byte SRID follows the type word — consume
        # it (silently reading it as coordinate bytes would desync the
        # cursor and yield garbage geometry)
        cur.take(bo + "I")
    base = gtype & 0xFF
    if base > 6:
        base = gtype % 1000
    dim = 2 + int(has_z) + int(has_m)

    def coords(n):
        a = cur.doubles(n * dim, bo)
        return a.reshape(n, dim)[:, :2]

    if base == _WKB_POINT:
        xy = coords(1)[0]
        return ("point", (float(xy[0]), float(xy[1])))
    if base == _WKB_LINESTRING:
        (n,) = cur.take(bo + "I")
        return ("line", coords(n))
    if base == _WKB_POLYGON:
        (nr,) = cur.take(bo + "I")
        rings = []
        for _ in range(nr):
            (n,) = cur.take(bo + "I")
            rings.append(coords(n))
        return ("polygon", rings)
    if base in (_WKB_MULTIPOINT, _WKB_MULTILINESTRING, _WKB_MULTIPOLYGON):
        (ng,) = cur.take(bo + "I")
        parts = [_parse_wkb(cur) for _ in range(ng)]
        if base == _WKB_MULTIPOLYGON:
            # flatten member polygons' rings — even-odd model
            rings = [r for _, rs in parts for r in rs]
            return ("polygon", rings)
        if base == _WKB_MULTIPOINT:
            if len(parts) != 1:
                # one row per feature with a single (x, y) is the reader's
                # contract; silently keeping only the first member would
                # drop coordinates — refuse loudly instead
                raise ValueError(
                    f"MULTIPOINT with {len(parts)} members is not "
                    "representable as a single PoI row; explode the layer "
                    "to POINT features first")
            return ("point", parts[0][1])
        return ("line", np.vstack([p[1] for p in parts]))
    raise ValueError(f"unsupported WKB geometry type {gtype}")


def parse_gpkg_blob(blob: bytes):
    """GeoPackage geometry blob (GP header + envelope + WKB)."""
    if blob[:2] != b"GP":
        raise ValueError("not a GeoPackage geometry blob")
    flags = blob[3]
    env_code = (flags >> 1) & 0x7
    env_len = {0: 0, 1: 32, 2: 48, 3: 48, 4: 64}[env_code]
    return _parse_wkb(_Cursor(blob, 8 + env_len))


def read_gpkg(path: str) -> pa.Table:
    """Read the first GeoPackage feature layer into an Arrow table (see
    module doc).

    The table's schema metadata carries ``crs`` = ``EPSG:<srs_id>``.
    """
    con = sqlite3.connect(path)
    try:
        rows = con.execute(
            "SELECT table_name, column_name, srs_id FROM gpkg_geometry_columns"
        ).fetchall()
        if not rows:
            raise ValueError(f"no feature layer in {path}")
        table, geom_col, srs = rows[0]
        cols = [c[1] for c in con.execute(f'PRAGMA table_info("{table}")')]
        attr_cols = [c for c in cols if c != geom_col]
        sel = ", ".join(f'"{c}"' for c in attr_cols + [geom_col])
        data = con.execute(f'SELECT {sel} FROM "{table}"').fetchall()
    finally:
        con.close()

    attrs = {c: [r[i] for r in data] for i, c in enumerate(attr_cols)}
    geoms = [parse_gpkg_blob(r[-1]) for r in data]
    kinds = {g[0] for g in geoms}
    out: dict[str, pa.Array] = {c: pa.array(v) for c, v in attrs.items()}
    if kinds == {"point"}:
        out["x"] = pa.array([g[1][0] for g in geoms], pa.float64())
        out["y"] = pa.array([g[1][1] for g in geoms], pa.float64())
    elif kinds <= {"polygon"}:
        rx, ry, sizes = [], [], []
        for _, rings in geoms:
            rx.append(np.concatenate([r[:, 0] for r in rings]))
            ry.append(np.concatenate([r[:, 1] for r in rings]))
            sizes.append([len(r) for r in rings])
        out["ring_x"] = pa.array([a.tolist() for a in rx],
                                 pa.list_(pa.float64()))
        out["ring_y"] = pa.array([a.tolist() for a in ry],
                                 pa.list_(pa.float64()))
        out["ring_sizes"] = pa.array(sizes, pa.list_(pa.int32()))
    elif kinds == {"line"}:
        out["geom_x"] = pa.array([g[1][:, 0].tolist() for g in geoms],
                                 pa.list_(pa.float64()))
        out["geom_y"] = pa.array([g[1][:, 1].tolist() for g in geoms],
                                 pa.list_(pa.float64()))
    else:
        raise ValueError(f"mixed geometry kinds {kinds} in {path}")
    t = pa.table(out)
    return t.replace_schema_metadata({b"crs": f"EPSG:{srs}".encode()})


def gpkg_crs(path: str) -> str:
    """CRS tag (``EPSG:<srs_id>``) of the first feature layer —
    metadata-only query."""
    con = sqlite3.connect(path)
    try:
        rows = con.execute(
            "SELECT table_name, srs_id FROM gpkg_geometry_columns"
        ).fetchall()
    finally:
        con.close()
    if not rows:
        raise ValueError(f"no feature layer in {path}")
    return f"EPSG:{rows[0][1]}"


def polygons_to_rings(t: pa.Table, dst_crs: str | None = None) -> pa.Table:
    """Flattened ``ring_x``/``ring_y``/``ring_sizes`` (as produced by
    :func:`read_gpkg` for polygon layers) → the engine's nested polygon
    model: ``gs_id`` + ``rings`` (``list<list<struct<x, y>>>``, even-odd),
    optionally reprojecting from the table's CRS tag to ``dst_crs``.
    """
    from .. import geoproj

    src_crs = (t.schema.metadata or {}).get(b"crs", b"").decode() or None
    rx = t.column("ring_x").to_pylist()
    ry = t.column("ring_y").to_pylist()
    sizes = t.column("ring_sizes").to_pylist()
    rings_col = []
    for xs, ys, ss in zip(rx, ry, sizes):
        xs = np.asarray(xs, np.float64)
        ys = np.asarray(ys, np.float64)
        if dst_crs is not None and src_crs is not None and dst_crs != src_crs:
            xs, ys = geoproj.transform(xs, ys, src_crs, dst_crs)
        rings, off = [], 0
        for s in ss:
            rings.append([{"x": float(xs[off + k]), "y": float(ys[off + k])}
                          for k in range(s)])
            off += s
        rings_col.append(rings)
    ids = list(range(t.num_rows))
    pt = pa.struct([("x", pa.float64()), ("y", pa.float64())])
    out = pa.table({
        "gs_id": pa.array(ids, pa.int64()),
        "rings": pa.array(rings_col, pa.list_(pa.list_(pt))),
    })
    meta = {b"crs": (dst_crs or src_crs or "").encode()}
    return out.replace_schema_metadata(meta)


# ---------------------------------------------------------------------------
# Writer (S13 as GeoPackage: the reverse of read_gpkg)
# ---------------------------------------------------------------------------

def _wkb_point(x: float, y: float) -> bytes:
    return struct.pack("<BIdd", 1, _WKB_POINT, x, y)


def _wkb_polygon(xs: np.ndarray, ys: np.ndarray, sizes) -> bytes:
    parts = [struct.pack("<BII", 1, _WKB_POLYGON, len(sizes))]
    off = 0
    for s in sizes:
        parts.append(struct.pack("<I", int(s)))
        ring = np.empty(2 * s, np.float64)
        ring[0::2] = xs[off:off + s]
        ring[1::2] = ys[off:off + s]
        parts.append(ring.tobytes())
        off += s
    return b"".join(parts)


def _wkb_linestring(xs: np.ndarray, ys: np.ndarray) -> bytes:
    n = len(xs)
    line = np.empty(2 * n, np.float64)
    line[0::2] = xs
    line[1::2] = ys
    return struct.pack("<BII", 1, _WKB_LINESTRING, n) + line.tobytes()


def _gp_blob(wkb: bytes, srs_id: int) -> bytes:
    # GP header: magic, version 0, flags 0x01 (little-endian, no
    # envelope), srs_id — then plain WKB
    return b"GP" + bytes([0, 0x01]) + struct.pack("<i", srs_id) + wkb


def _sql_type(t: pa.DataType) -> str:
    if pa.types.is_integer(t) or pa.types.is_boolean(t):
        return "INTEGER"
    if pa.types.is_floating(t):
        return "REAL"
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return "BLOB"
    return "TEXT"


def write_gpkg(t: pa.Table, path: str, layer: str = "results") -> None:
    """Write an Arrow table as a one-layer GeoPackage (OGC 12-128r) —
    the reverse of :func:`read_gpkg`, so the reference's QGIS/geopandas
    round trip works (`accessibility.py:173-180`, `availability.py:294-301`
    write their result GPKGs the same way).

    Geometry comes from the engine's native columns: ``x``/``y`` →
    POINT, ``ring_x``/``ring_y``/``ring_sizes`` → POLYGON (even-odd),
    ``geom_x``/``geom_y`` → LINESTRING.  All other non-nested columns
    become feature attributes (nested columns like ``spans`` are the
    parquet sink's job — refuse rather than mangle).

    This is a driver-side sink for RESULT tables (per-PoI metric rows —
    small next to the inputs); the resumable parquet+manifest writer
    stays the scale path."""
    import os
    import sqlite3 as _sqlite3

    cols = set(t.column_names)
    if {"x", "y"} <= cols:
        kind, gname = "POINT", "geom"
        geom_cols = {"x", "y"}
    elif {"ring_x", "ring_y"} <= cols:
        kind, gname = "POLYGON", "geom"
        geom_cols = {"ring_x", "ring_y", "ring_sizes"}
    elif {"geom_x", "geom_y"} <= cols:
        kind, gname = "LINESTRING", "geom"
        geom_cols = {"geom_x", "geom_y"}
    else:
        raise ValueError(
            "write_gpkg needs x/y, ring_x/ring_y[/ring_sizes] or "
            f"geom_x/geom_y geometry columns; got {sorted(cols)}")
    attr_cols = [c for c in t.column_names if c not in geom_cols]
    for c in attr_cols:
        if pa.types.is_nested(t.schema.field(c).type):
            raise ValueError(
                f"nested column {c!r} is not representable in a "
                "GeoPackage attribute table; drop it (spans belong to "
                "the parquet sink)")
    srs_id = 3395

    if os.path.exists(path):
        os.remove(path)
    con = _sqlite3.connect(path)
    try:
        con.execute("PRAGMA application_id = 1196444487")  # 'GPKG'
        con.execute("PRAGMA user_version = 10300")
        con.execute(
            "CREATE TABLE gpkg_spatial_ref_sys (srs_name TEXT NOT NULL, "
            "srs_id INTEGER PRIMARY KEY, organization TEXT NOT NULL, "
            "organization_coordsys_id INTEGER NOT NULL, definition TEXT "
            "NOT NULL, description TEXT)")
        srs_rows = [("Undefined cartesian", -1, "NONE", -1, "undefined"),
                    ("Undefined geographic", 0, "NONE", 0, "undefined"),
                    ("WGS 84", 4326, "EPSG", 4326, "GEOGCS[\"WGS 84\"]")]
        if srs_id not in (-1, 0, 4326):
            srs_rows.append((f"EPSG:{srs_id}", srs_id, "EPSG", srs_id,
                             f"EPSG:{srs_id}"))
        con.executemany(
            "INSERT INTO gpkg_spatial_ref_sys VALUES (?, ?, ?, ?, ?, NULL)",
            srs_rows)
        con.execute(
            "CREATE TABLE gpkg_contents (table_name TEXT PRIMARY KEY, "
            "data_type TEXT NOT NULL, identifier TEXT UNIQUE, description "
            "TEXT DEFAULT '', last_change DATETIME, min_x DOUBLE, min_y "
            "DOUBLE, max_x DOUBLE, max_y DOUBLE, srs_id INTEGER)")
        con.execute(
            "CREATE TABLE gpkg_geometry_columns (table_name TEXT NOT NULL, "
            "column_name TEXT NOT NULL, geometry_type_name TEXT NOT NULL, "
            "srs_id INTEGER NOT NULL, z TINYINT NOT NULL, m TINYINT NOT "
            "NULL, PRIMARY KEY (table_name, column_name))")
        con.execute(
            "INSERT INTO gpkg_geometry_columns VALUES (?, ?, ?, ?, 0, 0)",
            (layer, gname, kind, srs_id))
        attr_defs = ", ".join(
            f'"{c}" {_sql_type(t.schema.field(c).type)}' for c in attr_cols)
        con.execute(
            f'CREATE TABLE "{layer}" (fid INTEGER PRIMARY KEY'
            + (", " + attr_defs if attr_defs else "")
            + f', "{gname}" BLOB)')

        attrs = [t.column(c).to_pylist() for c in attr_cols]
        n = t.num_rows
        if kind == "POINT":
            xs = t.column("x").to_numpy(zero_copy_only=False)
            ys = t.column("y").to_numpy(zero_copy_only=False)
            blobs = [_gp_blob(_wkb_point(float(xs[i]), float(ys[i])), srs_id)
                     for i in range(n)]
        elif kind == "POLYGON":
            rx = t.column("ring_x").to_pylist()
            ry = t.column("ring_y").to_pylist()
            if "ring_sizes" in cols:
                rs = t.column("ring_sizes").to_pylist()
            else:
                rs = [[len(r)] for r in rx]
            blobs = [_gp_blob(_wkb_polygon(
                np.asarray(rx[i], np.float64), np.asarray(ry[i], np.float64),
                rs[i] if rs[i] else [len(rx[i])]), srs_id)
                for i in range(n)]
        else:
            gx = t.column("geom_x").to_pylist()
            gy = t.column("geom_y").to_pylist()
            blobs = [_gp_blob(_wkb_linestring(
                np.asarray(gx[i], np.float64),
                np.asarray(gy[i], np.float64)), srs_id) for i in range(n)]
        ph = ", ".join("?" for _ in range(len(attr_cols) + 2))
        rows = ((i + 1, *(a[i] for a in attrs), blobs[i]) for i in range(n))
        con.executemany(f'INSERT INTO "{layer}" VALUES ({ph})', rows)
        bounds = (None, None, None, None)
        con.execute(
            "INSERT INTO gpkg_contents (table_name, data_type, identifier, "
            "srs_id, min_x, min_y, max_x, max_y) VALUES (?, 'features', ?, "
            "?, ?, ?, ?, ?)", (layer, layer, srs_id, *bounds))
        con.commit()
    finally:
        con.close()
