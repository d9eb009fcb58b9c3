"""Side files: the vector and street-network tables beside the PoIs.

The public API derives each side table on the driver (read, dissolve,
area threshold, highway-class filter, frame shift) and hands its
kernel the object-store reference that :func:`shared` returns.
``shared`` keeps that reference while the file keeps its mtime and
size (``functions.joins._path_stamp``) and the Ray session lasts, so
repeated calls on one file version read and derive the file once,
and their kernel stages share one cache key: each worker process
builds the kernel once.  A file rewritten in place is derived again,
and a bad side file raises inside the API call, where the driver reads
it.  Kernels resolve their side argument with :func:`side_table`, so
gate callers can pass tables or ``ObjectRef`` s as well.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

import ray

from .functions.joins import _path_stamp


def side_table(x):
    """The value behind a kernel's side argument: an ``ObjectRef``
    fetched, anything else as given."""
    return ray.get(x) if isinstance(x, ray.ObjectRef) else x


def shipped(x):
    """A stage's form of a side argument: an ``ObjectRef`` as given,
    any other value put in the object store, so the kernel cache key
    holds its id rather than its pickled bytes."""
    return x if isinstance(x, ray.ObjectRef) else ray.put(x)


#: (derive, path, args) → ((path stamp, Ray session), ObjectRef)
_SHARED: dict = {}
#: derived tables :func:`shared` keeps in the object store at once
_SHARED_MAX = 8


def _session():
    if not ray.is_initialized():
        return None
    ctx = ray.get_runtime_context()
    return ctx.get_job_id(), ctx.get_node_id()


def shared(derive, path: str, *args, needs=()) -> "ray.ObjectRef":
    """``ray.put(derive(path, *args))``, kept while ``path``'s files
    keep their mtime and size and the Ray session lasts: a repeated
    call returns the same reference without reading the file.  The
    derived table must have the columns in ``needs``.  Only the newest
    version of each ``(derive, path, args)`` is kept, and at most
    :data:`_SHARED_MAX` of them (the least recently used goes first)."""
    path = os.fspath(path)
    key = (derive, path, args)
    stamp = _path_stamp(path)
    hit = _SHARED.pop(key, None)
    if hit is None or hit[0] != (stamp, _session()):
        t = derive(path, *args)
        _check_columns(path, t, needs)
        ref = ray.put(t)
        hit = ((stamp, _session()), ref)
    _SHARED[key] = hit
    while len(_SHARED) > _SHARED_MAX:
        del _SHARED[next(iter(_SHARED))]
    return hit[1]


def _check_columns(path: str, t: "pa.Table", needs) -> None:
    missing = [c for c in needs if c not in t.column_names]
    if missing:
        raise ValueError(f"{path}: no column(s) {missing}")


#: the bounds of a rect greenspace table
_RECT = {"x0", "y0", "x1", "y1"}


def greenspace(path: str, crs: str | None, dissolve: bool,
               min_area) -> "pa.Table":
    """The greenspace table of ``get_shortest_distance_greenspace``:
    dissolved into merged units and thresholded by ``min_area``
    (accessibility.py:125-131) when ``dissolve`` is set or the table
    lacks centroid columns, which the dissolve writes."""
    gs = _vector_table(path, crs)
    names = set(gs.column_names)
    if dissolve or not {"centroid_x", "centroid_y"} <= names:
        _check_columns(path, gs, ("gs_id",) if _RECT <= names
                       else ("gs_id", "rings"))
        gs = _min_area_filter(_dissolve_units(gs), min_area)
    return gs


def centroids(path: str, crs: str | None, min_area) -> "pa.Table":
    """(gs_id, cx, cy) of the dissolved, thresholded greenspace units.
    Dissolved members carry identical (gs_id, centroid) rows;
    duplicates are harmless for a min-distance and deduping by gs_id
    alone would fabricate a phantom centroid if distinct rows ever
    shared an id, so rows pass through as-is."""
    gs = greenspace(path, crs, True, min_area)
    return pa.table({"gs_id": gs.column("gs_id"),
                     "cx": gs.column("centroid_x"),
                     "cy": gs.column("centroid_y")})


def network(nodes_file: str, edges_file: str, network_type: str,
            shift=(0.0, 0.0)) -> tuple:
    """``(nodes, edges)`` references of the street graph: the edges
    filtered by ``network_type``, the nodes moved into the tile-local
    frame WITH the points (nearest-node snapping and the isochrone's
    raster windows otherwise compare shifted PoIs against unshifted
    node coordinates)."""
    return (shared(_nodes, nodes_file, tuple(shift),
                   needs=("node_id", "x", "y")),
            shared(_edges, edges_file, network_type,
                   needs=("u", "v", "length")))


def _nodes(path: str, shift) -> "pa.Table":
    from .sources.documents import shift_coords

    return shift_coords(pq.read_table(path), *shift)


def _edges(path: str, network_type: str) -> "pa.Table":
    return _filter_network_type(pq.read_table(path), network_type)


def _vector_table(src, dst_crs: str | None = None):
    """Polygon side input: parquet rings table, or a ``.gpkg`` polygon
    layer converted into the engine's rings model (reprojected to the
    PoI CRS like the reference's ``to_crs``, availability.py:633-637)
    with area/centroid columns appended."""
    if not (isinstance(src, str) and src.lower().endswith(".gpkg")):
        return pq.read_table(src)
    import numpy as np

    from . import geom
    from .sources.gpkg import polygons_to_rings, read_gpkg

    t = polygons_to_rings(read_gpkg(src), dst_crs=dst_crs)
    areas, cxs, cys = [], [], []
    for rlist in t.column("rings").to_pylist():
        rings = [np.array([[p["x"], p["y"]] for p in ring]) for ring in rlist]
        a, cx, cy = geom.overlay_moments([rings], "union")
        areas.append(a)
        cxs.append(cx)
        cys.append(cy)
    return (t.append_column("area", pa.array(areas, pa.float64()))
             .append_column("centroid_x", pa.array(cxs, pa.float64()))
             .append_column("centroid_y", pa.array(cys, pa.float64())))


#: OSM highway-class exclusions per network_type — the engine's analog
#: of the reference's osmnx download filter (accessibility.py:142-149),
#: following osmnx 1.x's published filter strings restricted to the
#: highway tag (walk drops motorways+cycleways but NOT trunk; bike
#: drops motorways+foot-only ways but NOT trunk; drive drops every
#: non-motor class).  Applied to the edges table's ``highway`` column.
_NETWORK_TYPE_EXCLUDES = {
    "all": frozenset(),
    "walk": frozenset({"motorway", "motorway_link", "cycleway",
                       "bus_guideway", "construction", "abandoned",
                       "planned", "platform", "proposed", "raceway"}),
    "bike": frozenset({"motorway", "motorway_link", "footway", "steps",
                       "corridor", "elevator", "escalator",
                       "bus_guideway", "construction", "abandoned",
                       "planned", "platform", "proposed", "raceway"}),
    "drive": frozenset({"footway", "path", "pedestrian", "cycleway",
                        "steps", "corridor", "bridleway", "track",
                        "elevator", "escalator", "bus_guideway",
                        "construction", "abandoned", "planned",
                        "platform", "proposed", "raceway", "service"}),
}


def _filter_network_type(edges: "pa.Table", network_type: str) -> "pa.Table":
    """Validate ``network_type`` (accessibility.py:142-144) and filter
    the edges table by its ``highway`` column.  File-based networks
    without a ``highway`` column must already be of the requested type —
    asking for a subtype then is an error, not a silent no-op."""
    if network_type not in ("walk", "bike", "drive", "all"):
        raise ValueError(
            "network_type must be 'walk', 'bike', 'drive' or 'all'")
    if network_type == "all":
        return edges
    if "highway" not in edges.column_names:
        raise ValueError(
            f"network_type={network_type!r} needs a 'highway' column on "
            "the edges table to filter by (or pass a pre-filtered "
            f"{network_type} network with network_type='all')")
    import pyarrow.compute as pc

    drop = pa.array(sorted(_NETWORK_TYPE_EXCLUDES[network_type]))
    return edges.filter(
        pc.invert(pc.is_in(edges.column("highway"), value_set=drop)))


def _gs_polys(gs: "pa.Table") -> list:
    """Greenspace rows → list of polygons (lists of ``(N, 2)`` ring
    arrays) for the driver dissolve.  Built from the Arrow flat ring
    buffers via :func:`~greenex_py_ray.stages.dissolve.flat_rings_table`
    — numpy slices per ring, never per-vertex Python."""
    import numpy as np

    from .stages.dissolve import flat_rings_table

    flat = flat_rings_table(gs)
    rx = flat.column("ring_x").combine_chunks()
    xs = rx.values.to_numpy(zero_copy_only=False)
    ys = (flat.column("ring_y").combine_chunks()
          .values.to_numpy(zero_copy_only=False))
    row_off = rx.offsets.to_numpy()
    sizes_col = flat.column("ring_sizes").combine_chunks()
    sizes = sizes_col.values.to_numpy(zero_copy_only=False)
    size_off = sizes_col.offsets.to_numpy()
    out = []
    for i in range(len(flat)):
        rings = []
        s = row_off[i]
        for sz in sizes[size_off[i]:size_off[i + 1]]:
            rings.append(np.column_stack([xs[s:s + sz], ys[s:s + sz]]))
            s += sz
        out.append(rings)
    return out


def _dissolve_units(gs: "pa.Table") -> "pa.Table":
    """accessibility.py:125-128: the reference merges overlapping
    greenspaces into one unit (``unary_union`` + dissolve) before any
    distance computation.  Each row keeps its stored boundary geometry
    (entrance detection tests member boundaries — interior shared
    boundaries of a merged unit still count, a documented deviation)
    but carries its dissolved blob's id (first member's id, the
    reference's ``aggfunc='first'``), exact union centroid and union
    area, so ``destination='centroids'`` measures to the MERGED unit's
    centroid and ``min_greenspace_area`` thresholds merged-unit areas.
    Identity on disjoint tables."""
    import numpy as np

    from .stages.dissolve import dissolve_polygons

    if not len(gs):
        return gs
    if len(gs) > _DISSOLVE_DRIVER_MAX:
        return _dissolve_units_distributed(gs)
    blobs = dissolve_polygons(_gs_polys(gs))
    members = blobs["member_ids"]
    sizes = np.array([len(m) for m in members])
    # each row's blob index: blobs partition the rows (positional ids)
    blob_of = np.empty(len(gs), dtype=np.int64)
    blob_of[np.concatenate(members).astype(np.int64)] = np.repeat(
        np.arange(len(members)), sizes)
    return _rewrite_units(
        gs, np.asarray(blobs["rep_id"], dtype=np.int64)[blob_of],
        sizes[blob_of],
        *(np.asarray(blobs[c], dtype=np.float64)[blob_of]
          for c in ("centroid_x", "centroid_y", "area")))


#: Above this many greenspace rows the API dissolve routes through the
#: distributed cell-shuffle path (mirrors near_dedup's driver_threshold
#: pattern, stages/dedup.py) instead of the driver union-find.  Tests
#: set it to 0 to force the distributed branch on small tables.
_DISSOLVE_DRIVER_MAX = 200_000


def _dissolve_units_distributed(gs: "pa.Table") -> "pa.Table":
    """Scale path of :func:`_dissolve_units`: overlap pairs, connected
    components and blob union moments computed by
    :func:`~greenex_py_ray.stages.dissolve.dissolve_dataset`
    (``per_member=True``) instead of the driver union-find, then the
    same :func:`_rewrite_units`.  Keys are row positions (the driver
    path's positional ids) so stored ``gs_id`` values need not be
    unique; blob members are processed in row order in BOTH paths, so
    union moments are bit-identical (parity-tested in
    tests/test_api_kwargs.py)."""
    import numpy as np

    import ray.data

    from .stages.dissolve import dissolve_dataset, flat_rings_table

    polys = ray.data.from_arrow(flat_rings_table(gs, key_col="__row"))
    mem = dissolve_dataset(polys, key_col="__row",
                           per_member=True).to_pandas()
    inv = np.empty(len(gs), dtype=np.int64)
    inv[mem["__row"].to_numpy()] = np.arange(len(mem))
    return _rewrite_units(
        gs, *(mem[c].to_numpy()[inv] for c in (
            "rep_id", "n_members", "centroid_x", "centroid_y", "area")))


def _rewrite_units(gs: "pa.Table", rep_row, n_members, cx_b, cy_b,
                   area_b) -> "pa.Table":
    """The per-row (gs_id, centroid, area) rewrite of both dissolve
    paths, from each row's blob: its representative row, member count
    and union moments.  Stored gs_id/centroid/area of single-member
    (disjoint) rows are preserved, so adding an unrelated overlap
    elsewhere in the table never changes a disjoint row's answer;
    MERGED blobs get their exact union moments, and ABSENT columns are
    synthesized for every row from its blob (a singleton blob's moments
    ARE the row's) — always into fresh float64 arrays so integer-typed
    stored columns can't truncate union values."""
    import numpy as np

    has_cen = ("centroid_x" in gs.column_names
               and "centroid_y" in gs.column_names)
    has_area = "area" in gs.column_names
    merged = n_members >= 2
    if has_cen and has_area and not merged.any():
        return gs

    def moment(name: str, blob, stored: bool):
        if not stored:
            return pa.array(np.asarray(blob, dtype=np.float64))
        v = gs.column(name).to_numpy(zero_copy_only=False).astype(np.float64)
        v[merged] = blob[merged]
        return pa.array(v)

    ids = gs.column("gs_id").to_numpy(zero_copy_only=False)
    rep = ids.copy()
    rep[merged] = ids[rep_row[merged]]
    cols = dict(zip(gs.column_names, gs.columns))
    cols["gs_id"] = pa.array(rep)
    cols["centroid_x"] = moment("centroid_x", cx_b, has_cen)
    cols["centroid_y"] = moment("centroid_y", cy_b, has_cen)
    cols["area"] = moment("area", area_b, has_area)
    return pa.table(cols)


def _min_area_filter(gs: "pa.Table", min_area) -> "pa.Table":
    """accessibility.py:81-84,129-131: keep units with area >=
    ``min_greenspace_area`` — applied AFTER :func:`_dissolve_units`, so
    the ``area`` column already holds merged-unit union areas."""
    if min_area is None:
        return gs
    if not isinstance(min_area, (int, float)) or min_area <= 0:
        raise ValueError(
            "min_greenspace_area must be a positive number")
    import pyarrow.compute as pc

    if "area" in gs.column_names:
        area = gs.column("area")
    else:  # rect side tables (rings tables get 'area' from the dissolve)
        area = pc.multiply(
            pc.subtract(gs.column("x1"), gs.column("x0")),
            pc.subtract(gs.column("y1"), gs.column("y0")))
    return gs.filter(pc.greater_equal(area, float(min_area)))
