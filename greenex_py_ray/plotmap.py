"""Interactive map writer: the reference's folium plotter re-expressed
as a dependency-free Leaflet HTML sink (SURVEY S15).

The reference builds a folium map per pipeline when ``plot_map=True``
(`/root/reference/GreenExp/accessibility.py:186-220`,
`availability.py:310-338`): GeoJSON layers reprojected to EPSG:4326,
per-feature tooltips from selected columns, buffer/AoI overlays with
translucent styles, a layer control and a centered ``<h3>`` title, then
``map.save(path.html)``.  folium itself is only a Jinja templater around
Leaflet + CDN assets — this module emits the same artifact (a
self-contained ``.html`` whose Leaflet/JS/CSS come from the same public
CDN URLs folium pins) with the stdlib ``json`` module, no folium needed.

Scale posture: a map is a *visualization of a small result*, never of
the 100 TB input — ``write_map_html`` therefore materializes each layer
with ``Dataset.take(row_cap)`` (default 10 000 features, the practical
ceiling of a usable Leaflet map) and raises if a layer exceeds the cap
rather than silently melting the browser.  Everything upstream stays a
streaming Dataset; the cap is the documented contract, exactly like the
reference's implicit "poi fits in a GeoDataFrame" assumption.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa

from . import geom, geoproj

#: folium's pinned public CDN assets (folium/templates/map.html) — the
#: written file renders anywhere these CDNs are reachable; writing it
#: needs no network at all.
_LEAFLET_CSS = "https://cdn.jsdelivr.net/npm/leaflet@1.9.3/dist/leaflet.css"
_LEAFLET_JS = "https://cdn.jsdelivr.net/npm/leaflet@1.9.3/dist/leaflet.js"

#: the base-map tiles and their attribution
_TILES = ("https://tile.openstreetmap.org/{z}/{x}/{y}.png",
          "&copy; OpenStreetMap contributors")

_DEFAULT_STYLES = [
    {"color": "#3388ff", "weight": 2, "fillOpacity": 0.2},
    {"color": "#2ca02c", "weight": 2, "fillOpacity": 0.3},
    {"color": "#d62728", "weight": 2, "fillOpacity": 0.2},
    {"color": "#9467bd", "weight": 2, "fillOpacity": 0.2},
]


def _js(obj) -> str:
    """JSON for interpolation inside an inline <script> block.

    ``json.dumps`` alone is NOT script-safe: a literal ``</script>``
    inside any string value terminates the script element and injects
    markup (the HTML parser doesn't know about JS strings).  Escaping
    ``</`` as ``<\\/`` is a no-op in JavaScript and closes the vector.
    """
    return json.dumps(obj).replace("</", "<\\/")


def _rows_of(data, row_cap: int):
    """Materialize a layer source (Dataset / pyarrow Table / pandas
    DataFrame / list of dicts) to a list of row dicts, capped."""
    try:
        import ray.data as rd
        if isinstance(data, rd.Dataset):
            rows = data.take(row_cap + 1)
            if len(rows) > row_cap:
                raise ValueError(
                    f"layer exceeds row_cap={row_cap}; aggregate or "
                    "sample before plotting (maps are small-result sinks)")
            return rows
    except ImportError:  # pragma: no cover - ray always present here
        pass
    if isinstance(data, pa.Table):
        data = data.to_pylist()
    elif hasattr(data, "to_dict"):  # pandas
        data = data.to_dict("records")
    rows = list(data)
    if len(rows) > row_cap:
        raise ValueError(f"layer exceeds row_cap={row_cap}")
    return rows


def _ring_to_lonlat(ring: np.ndarray, src_crs: str) -> list[list[float]]:
    lon, lat = geoproj.transform(ring[:, 0], ring[:, 1], src_crs, "EPSG:4326")
    coords = [[round(float(a), 7), round(float(b), 7)] for a, b in zip(lon, lat)]
    if coords and coords[0] != coords[-1]:
        coords.append(coords[0])  # GeoJSON rings are closed
    return coords


def _feature(geometry: dict, props: dict) -> dict:
    return {"type": "Feature", "geometry": geometry, "properties": props}


def layer_features(rows: list[dict], kind: str, src_crs: str,
                   tooltip_fields: list[str] | None) -> list[dict]:
    """Rows → GeoJSON features (WGS84).  ``kind``:

    * ``points`` — columns ``x``/``y`` (projected coords);
    * ``rects``  — columns ``x0 y0 x1 y1`` (axis-aligned AoIs/buffers);
    * ``wkt``    — a ``geometry`` WKT column (POINT/POLYGON/
      MULTIPOLYGON, the geometry model of ``sources/documents``);
    * ``buffers`` — ``x``/``y`` plus a ``radius`` column → n-gon rings
      (the reference's ``poi.buffer(target_dist)`` overlay layer).
    """
    feats = []
    if kind == "points" and rows:
        # one vectorized CRS transform for the whole layer — a per-row
        # transform() pays _parse_crs + ellipsoid series setup per point
        lons, lats = geoproj.transform(
            np.array([r["x"] for r in rows], dtype=np.float64),
            np.array([r["y"] for r in rows], dtype=np.float64),
            src_crs, "EPSG:4326")
    for ri, r in enumerate(rows):
        props = ({k: r.get(k) for k in tooltip_fields}
                 if tooltip_fields else {})
        for k, v in list(props.items()):
            if isinstance(v, (np.integer, np.floating)):
                props[k] = v.item()
        if kind == "points":
            g = {"type": "Point",
                 "coordinates": [round(float(lons[ri]), 7),
                                 round(float(lats[ri]), 7)]}
        elif kind == "rects":
            ring = np.array([[r["x0"], r["y0"]], [r["x1"], r["y0"]],
                             [r["x1"], r["y1"]], [r["x0"], r["y1"]]])
            g = {"type": "Polygon", "coordinates": [_ring_to_lonlat(ring, src_crs)]}
        elif kind == "buffers":
            ring = geom.buffer_ngon(float(r["x"]), float(r["y"]),
                                    float(r["radius"]))
            g = {"type": "Polygon", "coordinates": [_ring_to_lonlat(ring, src_crs)]}
        elif kind == "wkt":
            xs, ys, kinds, rings = geom.parse_wkt_geoms([r["geometry"]])
            if rings[0] is None:
                lon, lat = geoproj.transform(
                    xs[:1], ys[:1], src_crs, "EPSG:4326")
                g = {"type": "Point",
                     "coordinates": [round(float(lon[0]), 7),
                                     round(float(lat[0]), 7)]}
            else:
                g = {"type": "Polygon",
                     "coordinates": [_ring_to_lonlat(rg, src_crs)
                                     for rg in rings[0]]}
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
        feats.append(_feature(g, props))
    return feats


def write_map_html(out_path: str, layers: list[dict], title: str | None = None,
                   src_crs: str = "EPSG:4326",
                   row_cap: int = 10_000) -> str:
    """Write a self-contained Leaflet HTML map.

    ``layers``: list of ``{"name", "data", "kind", "tooltip_fields"?,
    "style"?}`` dicts (see :func:`layer_features` for kinds).  The map
    centers on the mean of all feature coordinates (the reference's
    ``poi.unary_union.centroid``, accessibility.py:187) and gets a
    layer control plus the centered ``<h3>`` title.  Returns the path.
    """
    rendered = []
    all_lon, all_lat = [], []
    for i, spec in enumerate(layers):
        rows = _rows_of(spec["data"], row_cap)
        feats = layer_features(rows, spec.get("kind", "points"), src_crs,
                               spec.get("tooltip_fields"))
        for f in feats:
            g = f["geometry"]
            pts = ([g["coordinates"]] if g["type"] == "Point"
                   else [p for ring in g["coordinates"] for p in ring])
            for lon, lat in pts:
                all_lon.append(lon)
                all_lat.append(lat)
        rendered.append({
            "name": spec.get("name", f"layer_{i}"),
            "style": spec.get("style", _DEFAULT_STYLES[i % len(_DEFAULT_STYLES)]),
            "tooltip_fields": spec.get("tooltip_fields") or [],
            "geojson": {"type": "FeatureCollection", "features": feats},
        })
    center = ([float(np.mean(all_lat)), float(np.mean(all_lon))]
              if all_lon else [0.0, 0.0])
    url, attr = _TILES

    layer_js = []
    for lyr in rendered:
        tip = ""
        if lyr["tooltip_fields"]:
            fields = _js(lyr["tooltip_fields"])
            # bindTooltip interprets HTML — property values (e.g. a
            # doc_id containing markup) must be escaped, not
            # interpolated raw into the tooltip DOM (round-3 advice)
            tip = (", onEachFeature: function(f, l) {"
                   f" var fs = {fields};"
                   " var esc = function(v) { var d ="
                   " document.createElement('div');"
                   " d.textContent = String(v); return d.innerHTML; };"
                   " l.bindTooltip(fs.map(function(k) {"
                   " return esc(k) + ': ' + esc(f.properties[k]);"
                   " }).join('<br>'));"
                   " }")
        layer_js.append(
            "L.geoJSON(%s, {style: function() { return %s; },"
            " pointToLayer: function(f, ll) {"
            " return L.circleMarker(ll, %s); }%s})"
            ".addTo(overlays[%s]);"
            % (_js(lyr["geojson"]), _js(lyr["style"]),
               _js(lyr["style"]), tip, _js(lyr["name"])))
    # features live in their LayerGroup and the GROUP is on the map —
    # the layer-control checkboxes reflect map.hasLayer(group), so
    # adding features straight to the map would render them with their
    # checkboxes unchecked (folium's behavior is checked-and-visible)
    overlay_init = "; ".join(
        "overlays[%s] = L.layerGroup().addTo(map)" % _js(l["name"])
        for l in rendered)
    import html as _html

    title_html = (
        f'<h3 style="text-align:center">{_html.escape(title)}</h3>'
        if title else "")  # accessibility.py:219; escaped (r3 advice)
    html = f"""<!DOCTYPE html>
<html><head><meta charset="utf-8"/>
<link rel="stylesheet" href="{_LEAFLET_CSS}"/>
<script src="{_LEAFLET_JS}"></script>
<style>#map {{ height: 94vh; }}</style></head>
<body>{title_html}<div id="map"></div>
<script>
var map = L.map('map').setView({_js(center)}, 10);
L.tileLayer({_js(url)}, {{attribution: {_js(attr)}}}).addTo(map);
var overlays = {{}}; {overlay_init};
{os.linesep.join(layer_js)}
L.control.layers(null, overlays).addTo(map);
</script></body></html>
"""
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as f:
        f.write(html)
    return out_path
