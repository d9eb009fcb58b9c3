"""Reference-parity public API.

The reference package exposes exactly seven functions
(`/root/reference/README.md:28-33`, one Documentation/*.md each):

    availability:  get_mean_NDVI, get_landcover_percentages,
                   get_canopy_percentage, get_greenspace_percentage
    accessibility: get_shortest_distance_greenspace
    visibility:    get_viewshed_GVI, get_streetview_GVI

This module mirrors those names and their kwargs over the
interleaved-document table: ``poi`` is a path to (or Dataset of) the
spans documents table; side inputs are paths to the corresponding
parquet side tables (the analog of the reference's
``*_vector_file`` / ``*_raster_file`` / ``network_file`` overrides,
SURVEY §2.10).  Results come back as Ray Datasets carrying the original
``spans`` untouched plus the reference's metric columns (same names,
same rounding, same stringified percent formats).

Argument validation follows the reference (M5): positive distances,
enum checks, speed/time → buffer_dist conversion
(``travel_speed * 1000 / 60 * trip_time``, availability.py:117-119).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from .functions.joins import append_metrics, drop_zero_count
from .pipelines import accessibility as _acc
from .pipelines import availability as _av
from .pipelines import visibility as _vis
from . import sidefiles as _side
# _dissolve_units & co. stay importable from here (perfbench, tests)
from .sidefiles import (_dissolve_units, _filter_network_type,  # noqa: F401
                        _min_area_filter)
from .sources import documents as doc_src


def _validate_positive(name: str, value) -> None:
    if value is None:
        return
    if not isinstance(value, (int, float)) or value <= 0:
        raise TypeError(f"{name} must be a positive number, got {value!r}")


def _resolve_buffer(buffer_dist, travel_speed, trip_time):
    """Speed/time → buffer distance (availability.py:96-125)."""
    if travel_speed is not None or trip_time is not None:
        if buffer_dist is not None:
            raise ValueError("provide either buffer_dist or travel_speed+trip_time")
        _validate_positive("travel_speed", travel_speed)
        _validate_positive("trip_time", trip_time)
        return travel_speed * 1000 / 60 * trip_time
    _validate_positive("buffer_dist", buffer_dist)
    return buffer_dist


def _docs_from_gpkg(path: str) -> "pa.Table":
    """GeoPackage point layer → a spans-documents-shaped table.

    Reference users hand every function a ``.gpkg`` path
    (``gpd.read_file``, availability.py:45-48); this adapter reads it
    with the stdlib GPKG reader and wraps each point as a one-geom-span
    document, so every downstream stage (decode, joins, span
    passthrough) runs unchanged.  ``doc_id`` follows the reference's id
    assignment (M4): the layer's ``id`` column when present and
    non-null, else 1..n in file order."""
    from .sources.gpkg import read_gpkg

    t = read_gpkg(path)
    n = t.num_rows
    if "id" in t.column_names and t.column("id").null_count == 0:
        ids = [str(v) for v in t.column("id").to_pylist()]
    else:
        ids = [str(i + 1) for i in range(n)]
    x = t.column("x").to_pylist()
    y = t.column("y").to_pylist()
    spans = [[{"kind": "geom", "text": f"POINT({x[i]!r} {y[i]!r})",
               "media_ref": "", "offset": 0}] for i in range(n)]
    span_t = pa.struct([("kind", pa.string()), ("text", pa.string()),
                        ("media_ref", pa.string()), ("offset", pa.int32())])
    return pa.table({
        "doc_id": pa.array(ids, pa.string()),
        "spans": pa.array(spans, pa.list_(span_t)),
    })


def _first_spans(path: str) -> list:
    """``spans`` of the first row of a parquet documents path (file or
    directory: its first fragment in sorted order), read in this process
    — ``[]`` when there are no rows."""
    import pyarrow.dataset as pads

    d = pads.dataset(path, format="parquet")
    for f in sorted(d.files):
        with pq.ParquetFile(f, filesystem=d.filesystem) as pf:
            for b in pf.iter_batches(batch_size=1, columns=["spans"]):
                if b.num_rows:
                    return b.column(0).to_pylist()[:1]
    return []


def _poi(poi) -> "tuple[str | ray.data.Dataset, str]":
    """``(src, kind)``: the spans documents of a PoI input, as a
    documents path or a Dataset (:func:`_docs` reads them), and the
    geometry type of their first row (:func:`_geom_kind`).  A path or
    ``.gpkg`` input is probed in this process; only a Dataset input runs
    a one-row Ray job."""
    if isinstance(poi, str) and poi.lower().endswith(".gpkg"):
        t = _docs_from_gpkg(poi)
        return (ray.data.from_arrow(t),
                _geom_kind(t.column("spans").slice(0, 1).to_pylist()))
    if isinstance(poi, str):
        return poi, _geom_kind(_first_spans(poi))
    return poi, _geom_kind([r["spans"] for r in poi.limit(1).take(1)])


def _docs(src, stage) -> "ray.data.Dataset":
    """The documents of :func:`_poi`'s ``src`` for ``append_metrics``
    of ``stage``.  A path is read with
    :func:`~greenex_py_ray.sources.documents.read_documents`, planned
    from the parquet footers (no sampling task); for a ``fused`` stage
    the read makes one block per task, so that stage runs inside the
    read tasks: one task per CPU that reads, decodes and runs the
    kernel."""
    if isinstance(src, str):
        return doc_src.read_documents(src, fused=stage.fused)
    return src


def _poi_crs(poi) -> str | None:
    """CRS tag of a ``.gpkg`` PoI input (None for spans tables, which
    live in the engine's working frame) — the target CRS for vector
    side inputs, like the reference's ``to_crs(poi.crs)``."""
    if isinstance(poi, str) and poi.lower().endswith(".gpkg"):
        from .sources.gpkg import gpkg_crs

        return gpkg_crs(poi)
    return None


#: ESA WorldCover class legend (public; the reference's only landcover
#: source is the esa-worldcover collection, availability.py:439, whose
#: STAC classification metadata carries exactly these descriptions)
_WORLDCOVER_LEGEND = {
    10: "Tree cover", 20: "Shrubland", 30: "Grassland", 40: "Cropland",
    50: "Built-up", 60: "Bare / sparse vegetation", 70: "Snow and ice",
    80: "Permanent water bodies", 90: "Herbaceous wetland",
    95: "Mangroves", 100: "Moss and lichen",
}


def _tiles(src: str, band: str):
    """Raster side input: a tile-store dir, or a ``.tif`` ingested into
    one (cached under /tmp keyed by path+mtime).  Returns
    ``(tile_dir, (shift_x, shift_y), info)``: the translation into the
    tile store's local frame, to be applied to the PoI coordinates
    (areas and distances are translation-invariant), and the ingest
    record (``codes``, ``nodata_code``, ...; empty for a tile-store
    dir)."""
    if not (isinstance(src, str) and src.lower().endswith((".tif", ".tiff"))):
        return src, (0.0, 0.0), {}
    import hashlib
    import json
    import os

    from .sources.geotiff import ingest_to_tiles

    import tempfile

    st = os.stat(src)
    key = hashlib.md5(
        f"{os.path.abspath(src)}:{st.st_mtime_ns}:{band}".encode()
    ).hexdigest()[:12]
    # per-user 0700 cache root: a predictable world-writable /tmp path
    # could be pre-created by another local user, making the engine
    # silently trust attacker-controlled tiles (round-3 advice)
    root = os.path.join(tempfile.gettempdir(),
                        f"greenex_cache_{os.getuid()}")
    os.makedirs(root, mode=0o700, exist_ok=True)
    rst = os.stat(root)
    if rst.st_uid != os.getuid():
        raise PermissionError(
            f"ingest cache dir {root} is owned by uid {rst.st_uid}, "
            "not the current user — refusing to trust it")
    os.chmod(root, 0o700)
    out = os.path.join(root, f"ingest_{key}")
    marker = os.path.join(out, "DONE")
    if os.path.exists(marker) and os.stat(out).st_uid != os.getuid():
        raise PermissionError(
            f"cached ingest {out} is not owned by the current user")
    if not os.path.exists(marker):
        info = ingest_to_tiles(src, out, band)
        with open(marker, "w") as f:
            json.dump(info, f)
    with open(marker) as f:
        info = json.load(f)
    from .sources import synth as _synth

    if abs(info["res"] - _synth.RASTER_RES) > 1e-9:
        raise ValueError(
            f"{src}: pixel size {info['res']} != the engine lattice "
            f"{_synth.RASTER_RES}; regrid first (stages/regrid.py)"
        )
    return out, (float(info["shift_x"]), float(info["shift_y"])), info


def _decoded(docs, decoder, columns: list[str]) -> "ray.data.Dataset":
    """Decoded PoI columns for the stages that are not one row per
    document (visibility sampling, the written GeoPackage's geometry)."""
    return docs.map_batches(decoder, batch_format="pyarrow",
                            zero_copy_batch=True).select_columns(columns)


_RING_COLS = ["doc_id", "ring_x", "ring_y", "ring_sizes"]


def _emit(ds, name: str, docs, kind: str, src_crs, write_to_file: bool,
          output_dir, plot_aoi: bool, buffer_dist=None,
          output_format: str = "parquet"):
    """Shared ``write_to_file`` / ``output_dir`` / ``plot_aoi`` tail —
    every reference entry writes its result GPKG and plots the AoI
    (availability.py:294-300, accessibility.py:185-204).  Here: a
    resumable key-partitioned parquet set (S13) by default, or — with
    ``output_format='gpkg'`` — a single GeoPackage like the reference's
    ``to_file`` (accessibility.py:173-180), with the PoI geometry
    re-attached so QGIS/geopandas read it directly.  Both default OFF
    (a documented deviation: a streaming engine must not write the CWD
    by default).  The GPKG sink is driver-side by design (one sqlite
    file of per-PoI metric rows — the QGIS-interop path, not the scale
    path)."""
    if not (write_to_file or plot_aoi):
        return ds
    import os

    if output_format not in ("parquet", "gpkg"):
        raise ValueError("output_format must be 'parquet' or 'gpkg'")
    out = output_dir or os.getcwd()
    os.makedirs(out, exist_ok=True)
    if write_to_file and output_format == "gpkg":
        import pandas as pd

        from .sources.gpkg import write_gpkg

        ds = ds.materialize()
        tbl = pa.concat_tables(
            [ray.get(r) for r in ds.to_arrow_refs()],
            promote_options="default")
        flat = tbl.select([c for c in tbl.column_names
                           if not pa.types.is_nested(
                               tbl.schema.field(c).type)])
        poly = kind in _POLYGONS
        geo_cols = _RING_COLS if poly else ["doc_id", "x", "y"]
        decoded = _decoded(
            docs, doc_src.DecodeGeom(parse_polygons=poly, src_crs=src_crs,
                                     kind=kind),
            geo_cols).materialize()
        gt = pa.concat_tables(
            [ray.get(r) for r in decoded.to_arrow_refs()],
            promote_options="default")
        idx = pd.Index(gt.column("doc_id").to_pylist()).get_indexer(
            flat.column("doc_id").to_pylist())
        if (idx < 0).any():
            raise ValueError("result rows with no matching PoI geometry")
        aligned = gt.take(pa.array(idx))
        for c in geo_cols[1:]:
            flat = flat.append_column(c, aligned.column(c))
        # DecodeGeom reprojected src_crs inputs into its EPSG:3395
        # working frame above, so the written coordinates are ALWAYS
        # 3395 metres — stamping the file with src_crs would label
        # metre coordinates as e.g. degrees and place features
        # off-planet in QGIS
        write_gpkg(flat, os.path.join(out, f"{name}.gpkg"), layer=name)
    elif write_to_file:
        from .lineage import resumable_write

        ds = ds.materialize()
        resumable_write(ds, os.path.join(out, name), key="doc_id")
    if plot_aoi:
        from . import plotmap

        poly = kind in _POLYGONS
        pts = _decoded(
            docs, doc_src.DecodeGeom(parse_polygons=poly, src_crs=src_crs,
                                     kind=kind),
            ["doc_id", "x", "y"]).limit(10_000)
        rows = pts.take_all()
        kind = "points"
        if buffer_dist:
            rows = [dict(r, radius=float(buffer_dist)) for r in rows]
            kind = "buffers"
        # DecodeGeom reprojects src_crs inputs into its EPSG:3395
        # working frame — the plot transform must start from THAT
        # frame, not the input's; without a src_crs the synthetic
        # working frame has no real CRS, so label it spherical-Mercator
        # metres as the closest visualization approximation
        plotmap.write_map_html(
            os.path.join(out, f"{name}_aoi.html"),
            [{"name": "PoI", "data": rows, "kind": kind,
              "tooltip_fields": ["doc_id"]}],
            src_crs="EPSG:3395" if src_crs else "EPSG:3857",
            title=name,
        )
    return ds


def _geom_kind(first: list) -> str:
    """Geometry type of the first geom span in ``first`` (the first PoI
    row's ``spans``, or empty) — the reference samples
    ``poi.iloc[0]['geometry'].geom_type`` (availability.py:80-82).
    Every row is routed by this type; the ``DecodeGeom`` built with it
    raises the reference's M1 mixed-geometry ``TypeError`` on a row of
    another type, inside the same task (no second pass over the data,
    so the error comes when the result is consumed)."""
    for spans in first:
        for span in spans:
            if span["kind"] == "geom":
                return span["text"].split("(", 1)[0].strip().upper()
    return "POINT"


_POLYGONS = doc_src._POLYGONS


def _route_poi(kind, src_crs, polygon_type, buffer_type, dist):
    """Geometry dispatch shared by the four availability functions
    (availability.py:80-125, 230-247).  Returns ``(mode, decoder)``:

    * ``("point", decoder)`` — point PoIs (or polygon PoIs collapsed to
      centroids: ``polygon_type='house'``, or ``buffer_type='network'``
      where isochrones need a seed point); the kernel reads ``x, y``.
    * ``("polygon", decoder)`` — ``polygon_type='neighbourhood'`` rows
      whose own (optionally euclidean-dilated) polygon is the AoI; the
      kernel reads ``ring_x, ring_y, ring_sizes``.

    ``decoder`` is the ``DecodeGeom`` that yields those columns.
    """
    if buffer_type is not None and buffer_type not in ("euclidean", "network"):
        raise ValueError("buffer_type must be 'euclidean', 'network' or None")
    is_poly = kind in _POLYGONS
    if (buffer_type == "euclidean" and dist is None
            and (not is_poly or polygon_type == "house")):
        # the reference raises this BEFORE any geometry work
        # (availability.py:97-99); without it a point-mode call with
        # buffer_dist=None crashed deep in the zonal kernel with an
        # obscure TypeError ('house' polygons collapse to centroid
        # points, so the point rule applies to them too)
        raise ValueError(
            "buffer distance required for point geometries "
            "(buffer_type='euclidean' needs a positive buffer_dist, or "
            "travel_speed + trip_time)")
    decoder = doc_src.DecodeGeom(parse_polygons=is_poly, src_crs=src_crs,
                                 kind=kind)
    if is_poly:
        if polygon_type not in ("neighbourhood", "house"):
            raise ValueError(
                "polygon_type must be 'neighbourhood' or 'house'")
        if polygon_type == "house" or buffer_type == "network":
            # centroid conversion (availability.py:90-94, 241-247); after
            # it the rows ARE points, so the reference's point check
            # (availability.py:97-99) applies: a buffer type is required
            if buffer_type is None:
                raise ValueError(
                    "buffer_type must be 'euclidean' or 'network' when "
                    "polygon_type='house' (centroids are points)")
            return "point", decoder
        if buffer_type == "euclidean" and dist is None:
            raise ValueError(
                "buffer_dist must be set when buffer_type='euclidean'")
        return "polygon", decoder
    if buffer_type is None:
        raise ValueError(
            "buffer_type must be 'euclidean' or 'network' for point PoIs")
    return "point", decoder


def get_mean_NDVI(poi, ndvi_tile_dir: str, buffer_dist: float | None = 300.0,
                  buffer_type: str | None = "euclidean",
                  polygon_type: str = "neighbourhood",
                  network_type: str = "all",
                  network_nodes_file: str | None = None,
                  network_edges_file: str | None = None,
                  travel_speed: float | None = None,
                  trip_time: float | None = None,
                  plot_aoi: bool = False, write_to_file: bool = False,
                  output_dir: str | None = None,
                  output_format: str = "parquet",
                  src_crs: str | None = None) -> "ray.data.Dataset":
    """availability.get_mean_NDVI (availability.py:41-342).

    Polygon PoIs follow the reference's dispatch: their own geometry is
    the AoI (``buffer_type=None``), euclidean-dilated by ``buffer_dist``
    (``buffer_type='euclidean'``), or collapsed to centroids for
    isochrones (``buffer_type='network'``) / ``polygon_type='house'``."""
    dist = _resolve_buffer(buffer_dist, travel_speed, trip_time)
    src, kind = _poi(poi)
    mode, decoder = _route_poi(kind, src_crs, polygon_type, buffer_type, dist)
    tile_dir, shift, _ = _tiles(ndvi_tile_dir, "ndvi")
    if mode == "polygon":
        stage = _av.mean_ndvi_polygon_stage(
            tile_dir,
            dilate=(dist if buffer_type == "euclidean" else 0.0))
    elif buffer_type == "euclidean":
        stage = _av.mean_ndvi_stage(tile_dir, dist)
    else:
        from .stages.netaccess import IsochroneZonal

        stage = _av.isochrone_stage(
            IsochroneZonal,
            *_side.network(network_nodes_file, network_edges_file,
                      network_type, shift),
            tile_root=tile_dir, buffer_dist=dist)
    docs = _docs(src, stage)
    out = append_metrics(docs, stage, decode=decoder, shift=shift)
    return _emit(out, "mean_NDVI", docs, kind, src_crs,
                 write_to_file, output_dir, plot_aoi,
                 buffer_dist=(dist if mode == "point" else None),
                 output_format=output_format)


def get_landcover_percentages(poi, landcover_tile_dir: str,
                              buffer_dist: float | None = 500.0,
                              buffer_type: str | None = "euclidean",
                              polygon_type: str = "neighbourhood",
                              network_type: str = "all",
                              network_nodes_file: str | None = None,
                              network_edges_file: str | None = None,
                              travel_speed: float | None = None,
                              trip_time: float | None = None,
                              stringify: bool = True,
                              plot_aoi: bool = False,
                              write_to_file: bool = False,
                              output_dir: str | None = None,
                  output_format: str = "parquet",
                              classmap: dict[int, str] | None = None,
                  src_crs: str | None = None) -> "ray.data.Dataset":
    """availability.get_landcover_percentages (availability.py:344-597).

    ``classmap`` maps raster class codes to column names.  Default: for
    a ``.tif`` input the classmap is derived from the raster's own
    distinct codes — ESA WorldCover legend names where the codes match
    that public legend, the numeric code otherwise — mirroring the
    reference, which takes the legend from the source's classification
    metadata and passes unknown codes through numerically
    (availability.py:447-450,556); for a prebuilt tile store it defaults
    to the synthetic world's classes."""
    dist = _resolve_buffer(buffer_dist, travel_speed, trip_time)
    src, kind = _poi(poi)
    mode, decoder = _route_poi(kind, src_crs, polygon_type, buffer_type, dist)
    tile_dir, shift, info = _tiles(landcover_tile_dir, "lulc")
    if classmap is None and info.get("codes"):
        nodata = info.get("nodata_code")
        classmap = {c: _WORLDCOVER_LEGEND.get(
                        c, "nodata" if c == nodata else str(c))
                    for c in info["codes"]}
    classmap = classmap or _av.DEFAULT_CLASSMAP
    if mode == "polygon":
        stage = _av.landcover_polygon_stage(
            tile_dir, classmap,
            dilate=(dist if buffer_type == "euclidean" else 0.0),
            stringify=stringify)
    elif buffer_type == "network":
        from .stages.netaccess import IsochroneLandcover

        stage = _av.isochrone_stage(
            IsochroneLandcover,
            *_side.network(network_nodes_file, network_edges_file,
                      network_type, shift),
            tile_root=tile_dir, buffer_dist=dist,
            classmap=classmap, stringify=stringify)
    else:
        stage = _av.landcover_stage(tile_dir, dist, classmap=classmap,
                                    stringify=stringify)
    docs = _docs(src, stage)
    out = append_metrics(docs, stage, decode=decoder, shift=shift)
    return _emit(out, "landcover_percentages", docs, kind,
                 src_crs, write_to_file, output_dir, plot_aoi,
                 buffer_dist=(dist if mode == "point" else None),
                 output_format=output_format)


def _coverage(poi, vector_file, name: str, dissolve: bool, buffer_dist,
              buffer_type, polygon_type, network_type, network_nodes_file,
              network_edges_file, travel_speed, trip_time, stringify,
              plot_aoi, write_to_file, output_dir, output_format,
              src_crs, out_name: str):
    """Shared body of get_canopy_percentage / get_greenspace_percentage:
    percent of each PoI's AoI covered by the vector layer — the
    euclidean buffer, the isochrone (``buffer_type='network'``), or a
    polygon PoI's own (optionally dilated) geometry.  ``dissolve``
    selects union membership (greenspace) vs the reference's raw
    per-member clip-sum (canopy, availability.py:764)."""
    dist = _resolve_buffer(buffer_dist, travel_speed, trip_time)
    src, kind = _poi(poi)
    mode, decoder = _route_poi(kind, src_crs, polygon_type, buffer_type, dist)
    polys = _side.shared(_side._vector_table, vector_file, _poi_crs(poi),
                         needs=("rings",))
    if mode == "polygon":
        stage = _av.coverage_stage(
            polys, (dist if buffer_type == "euclidean" else 0.0),
            stringify=stringify, name=name,
            aoi_shape="self", dissolve=dissolve)
    elif buffer_type == "network":
        from .stages.netaccess import IsochroneCoverage

        stage = _av.isochrone_stage(
            IsochroneCoverage,
            *_side.network(network_nodes_file, network_edges_file,
                           network_type),
            polys_ref=polys, buffer_dist=dist,
            name=name, stringify=stringify, dissolve=dissolve)
    else:
        stage = _av.coverage_stage(polys, dist, stringify=stringify,
                                   name=name, dissolve=dissolve)
    docs = _docs(src, stage)
    out = append_metrics(docs, stage, decode=decoder)
    return _emit(out, out_name, docs, kind, src_crs, write_to_file, output_dir,
                 plot_aoi, buffer_dist=(dist if mode == "point" else None),
                 output_format=output_format)


def get_canopy_percentage(poi, canopy_vector_file: str,
                          buffer_dist: float | None = 250.0,
                          buffer_type: str | None = "euclidean",
                          polygon_type: str = "neighbourhood",
                          network_type: str = "all",
                          network_nodes_file: str | None = None,
                          network_edges_file: str | None = None,
                          travel_speed: float | None = None,
                          trip_time: float | None = None,
                          stringify: bool = True,
                          plot_aoi: bool = False,
                          write_to_file: bool = False,
                          output_dir: str | None = None,
                  output_format: str = "parquet",
                  src_crs: str | None = None) -> "ray.data.Dataset":
    """availability.get_canopy_percentage (availability.py:600-780);
    ``buffer_type='network'`` uses the isochrone AoI
    (availability.py:682-710 + make_iso_poly); polygon PoIs use their
    own (optionally dilated) geometry as the AoI."""
    return _coverage(
        poi, canopy_vector_file, "canopy_cover", False, buffer_dist,
        buffer_type, polygon_type, network_type, network_nodes_file,
        network_edges_file, travel_speed, trip_time, stringify, plot_aoi,
        write_to_file, output_dir, output_format, src_crs,
        "canopy_percentage")


def get_greenspace_percentage(poi, greenspace_vector_file: str,
                              buffer_dist: float | None = 300.0,
                              buffer_type: str | None = "euclidean",
                              polygon_type: str = "neighbourhood",
                              network_type: str = "all",
                              network_nodes_file: str | None = None,
                              network_edges_file: str | None = None,
                              travel_speed: float | None = None,
                              trip_time: float | None = None,
                              stringify: bool = True,
                              plot_aoi: bool = False,
                              write_to_file: bool = False,
                              output_dir: str | None = None,
                  output_format: str = "parquet",
                  src_crs: str | None = None) -> "ray.data.Dataset":
    """availability.get_greenspace_percentage (availability.py:783-1010);
    ``buffer_type='network'`` uses the isochrone AoI
    (availability.py:943-997); polygon PoIs use their own (optionally
    dilated) geometry as the AoI with dissolved-union membership."""
    return _coverage(
        poi, greenspace_vector_file, "greenspace_cover", True, buffer_dist,
        buffer_type, polygon_type, network_type, network_nodes_file,
        network_edges_file, travel_speed, trip_time, stringify, plot_aoi,
        write_to_file, output_dir, output_format, src_crs,
        "greenspace_percentage")


def get_shortest_distance_greenspace(poi, greenspace_vector_file: str,
                                     target_dist: float = 300.0,
                                     distance_type: str = "euclidean",
                                     destination: str = "centroids",
                                     network_type: str = "all",
                                     min_greenspace_area: float | None = None,
                                     network_nodes_file: str | None = None,
                                     network_edges_file: str | None = None,
                                     plot_aoi: bool = False,
                                     write_to_file: bool = False,
                                     output_dir: str | None = None,
                  output_format: str = "parquet",
                  src_crs: str | None = None) -> "ray.data.Dataset":
    """accessibility.get_shortest_distance_greenspace
    (accessibility.py:24-223).  Polygon/MultiPolygon PoIs are collapsed
    to centroids first, exactly like the reference
    (accessibility.py:52-55 'Changing geometry type to Point by
    computing polygon centroids…').  ``min_greenspace_area`` keeps only
    greenspaces of at least that area (accessibility.py:129-131);
    ``network_type`` filters the street network by highway class
    (accessibility.py:142-149)."""
    if distance_type not in ("euclidean", "network"):
        raise TypeError("distance_type must be 'euclidean' or 'network'")
    if destination not in ("centroids", "entrance"):
        raise TypeError("destination must be 'centroids' or 'entrance'")
    # network_type is validated only when a network is actually used
    # (reference accessibility.py:142-146), by _filter_network_type
    _validate_positive("target_dist", target_dist)
    src, kind = _poi(poi)
    decoder = doc_src.DecodeGeom(parse_polygons=kind in _POLYGONS,
                                 src_crs=src_crs, kind=kind)
    flag = f"greenspace_within_{int(target_dist)}m"
    crs = _poi_crs(poi)
    if distance_type == "euclidean" and destination == "centroids":
        gs = _side.shared(_side.centroids, greenspace_vector_file, crs,
                          min_greenspace_area)
        stage = _acc.nearest_greenspace_stage(gs, target_dist, flag)
        docs = _docs(src, stage)
        out = append_metrics(docs, stage,
                             columns=["distance_to_greenspace", flag],
                             decode=decoder)
    else:
        # merged-unit centroids / areas are only consumed by the
        # centroids destination and the area threshold (the entrance
        # branches read member boundaries — if a future entrance branch
        # starts consuming gs_id/centroid/area, dissolve there too); a
        # table without centroid columns is dissolved anyway, which
        # writes them
        gs = _side.shared(
            _side.greenspace, greenspace_vector_file, crs,
            destination == "centroids" or min_greenspace_area is not None,
            min_greenspace_area, needs=("rings",))
        stage = _acc.network_distance_stage(
            *_side.network(network_nodes_file, network_edges_file,
                           network_type),
            gs, target_dist, destination, distance_type,
            flag_name=flag)
        docs = _docs(src, stage)
        out = append_metrics(docs, stage, decode=decoder)
    return _emit(out, "shortest_distance_greenspace",
                 docs, kind, src_crs, write_to_file, output_dir, plot_aoi,
                 buffer_dist=target_dist,
                 output_format=output_format)


def _vis_poi(kind, src_crs, polygon_type, buffer_dist):
    """Visibility-function PoI dispatch (visibility.py:59-99, 305-344):
    polygon PoIs with ``polygon_type='house'`` collapse to centroids;
    ``'neighbourhood'`` keeps the polygon itself as the AoI
    (``buffer_dist`` optional); point-type PoIs (incl. centroids)
    require a positive ``buffer_dist``.  Returns ``(poi_kind, decoder,
    columns)``: the decoded columns the visibility stages read."""
    if kind in _POLYGONS:
        if polygon_type not in ("neighbourhood", "house"):
            raise ValueError(
                "polygon_type must be 'neighbourhood' or 'house'")
        decoder = doc_src.DecodeGeom(parse_polygons=True, src_crs=src_crs,
                                     kind=kind)
        if polygon_type == "house":
            _require_positive_buffer(buffer_dist)
            return "point", decoder, ["doc_id", "x", "y"]
        if buffer_dist is not None:
            _require_positive_buffer(buffer_dist)
        return "polygon", decoder, _RING_COLS
    _require_positive_buffer(buffer_dist)
    return ("point", doc_src.DecodeGeom(src_crs=src_crs, kind=kind),
            ["doc_id", "x", "y"])


def _require_positive_buffer(buffer_dist) -> None:
    """visibility.py:97-98 / :343-344: point-type PoIs (incl. house
    centroids) hard-require a positive ``buffer_dist``."""
    if (buffer_dist is None or not isinstance(buffer_dist, (int, float))
            or buffer_dist <= 0):
        raise ValueError(
            "buffer_dist must be a positive number for point-type PoIs "
            f"(got {buffer_dist!r})")


def get_viewshed_GVI(poi, dsm_tile_dir: str,
                     network_nodes_file: str, network_edges_file: str,
                     buffer_dist: float | None = None,
                     viewing_dist: float = 250.0,
                     sample_dist: float = 50.0, observer_height: float = 1.7,
                     polygon_type: str = "neighbourhood",
                     write_to_file: bool = False,
                     output_dir: str | None = None,
                  output_format: str = "parquet",
                  src_crs: str | None = None):
    """visibility.get_viewshed_GVI (visibility.py:50-293).  Returns
    (poi-with-metrics Dataset, per-sample-point Dataset).

    A PoI without a road sample point within reach (``buffer_dist``, or
    its polygon) gets no row in either table.  The rollup is one kernel
    stage appended to the document read; the per-sample-point table is
    a second run of the same stage that happens only when it is
    consumed."""
    for n, v in [("viewing_dist", viewing_dist),
                 ("sample_dist", sample_dist), ("observer_height", observer_height)]:
        _validate_positive(n, v)
    src, kind = _poi(poi)
    poi_kind, decoder, cols = _vis_poi(kind, src_crs, polygon_type,
                                       buffer_dist)
    if isinstance(dsm_tile_dir, str) and dsm_tile_dir.lower().endswith(
            (".tif", ".tiff")):
        # the viewshed kernel reads THREE co-registered bands
        # (dsm/dtm/green) from one tile store; a single GeoTIFF cannot
        # supply them — ingest each with sources.geotiff.ingest_to_tiles
        # into one directory and pass that
        raise ValueError(
            "get_viewshed_GVI needs a tile-store directory with dsm, dtm "
            "and green bands; ingest each GeoTIFF via "
            "sources.geotiff.ingest_to_tiles(path, out_dir, band=...) "
            "into the same out_dir first")
    kw = dict(buffer_dist=buffer_dist, viewing_dist=viewing_dist,
              sample_dist=sample_dist, observer_height=observer_height,
              poi_kind=poi_kind)
    stage = _vis.viewshed_stage(network_nodes_file, network_edges_file,
                                dsm_tile_dir, **kw)
    docs = _docs(src, stage)
    per_point = _vis.viewshed_stage(
        network_nodes_file, network_edges_file, dsm_tile_dir,
        per_point=True, **kw).on(_decoded(docs, decoder, cols))
    out = _emit(drop_zero_count(append_metrics(docs, stage, decode=decoder),
                                "nr_of_points"),
                "viewshed_GVI", docs, kind, src_crs, write_to_file,
                output_dir, False, output_format=output_format)
    return out, per_point


def get_streetview_GVI(poi, network_nodes_file: str, network_edges_file: str,
                       image_features_file: str,
                       buffer_dist: float | None = None,
                       polygon_type: str = "neighbourhood",
                       crop_by_road_centres: bool = True,
                       write_to_file: bool = False,
                       output_dir: str | None = None,
                  output_format: str = "parquet",
                  src_crs: str | None = None):
    """visibility.get_streetview_GVI (visibility.py:296-437) with the
    deterministic segmentation stub.  Returns (poi-with-metrics Dataset,
    per-point Dataset).  ``crop_by_road_centres=False`` scores panoramas
    over four equal central-band crops instead of the road-centre crops
    (visibility.py:944-949).

    A PoI without a road sample point within reach (``buffer_dist``, or
    its polygon) gets no row in either table; one with sample points
    but no image within 100 m of any keeps its row, with a null ``GVI``
    and ``nr_of_points`` 0.  The rollup is one kernel stage appended to
    the document read; the per-point table is a second run of the same
    stage that happens only when it is consumed."""
    src, kind = _poi(poi)
    poi_kind, decoder, cols = _vis_poi(kind, src_crs, polygon_type,
                                       buffer_dist)
    kw = dict(buffer_dist=buffer_dist, poi_kind=poi_kind,
              crop_by_road_centres=crop_by_road_centres)
    stage = _vis.streetview_stage(network_nodes_file, network_edges_file,
                                  image_features_file, **kw)
    docs = _docs(src, stage)
    per_point = _vis.streetview_stage(
        network_nodes_file, network_edges_file, image_features_file,
        per_point=True, **kw).on(_decoded(docs, decoder, cols))
    out = _emit(_vis.keep_sampled(append_metrics(docs, stage,
                                                 decode=decoder)),
                "streetview_GVI", docs, kind, src_crs, write_to_file,
                output_dir, False, output_format=output_format)
    return out, per_point


def get_mean_NDVI_streets(network_nodes_file: str, network_edges_file: str,
                          ndvi_tile_dir: str, buffer_dist: float = 10.0):
    """get_mean_NDVI with a street network as the PoI set — the README
    place-query flow (availability.py:52-61): each edge becomes a PoI
    row whose AoI is the edge geometry buffered by ``buffer_dist``
    (:134).  Curved ``geom_x``/``geom_y`` polylines are honored when the
    edges file carries them."""
    _validate_positive("buffer_dist", buffer_dist)
    import numpy as np

    tile_dir, shift, _ = _tiles(ndvi_tile_dir, "ndvi")
    edges_tbl = doc_src.shift_coords(
        _vis.edge_coords_table(network_nodes_file, network_edges_file), *shift,
        xcols=("ax", "bx", "geom_x"), ycols=("ay", "by", "geom_y"))
    edges_tbl = edges_tbl.append_column(
        "edge_id", pa.array(np.arange(len(edges_tbl), dtype=np.int64)))
    return _av.mean_ndvi_line_aoi(
        ray.data.from_arrow(edges_tbl), tile_dir,
        buffer_dist=buffer_dist)
