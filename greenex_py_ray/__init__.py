"""greenex_py_ray — a Ray-Data-native greenness-exposure engine.

A from-scratch reimplementation of the capabilities of
``Spatial-Data-Science-and-GEO-AI-Lab/GreenEx_Py`` (reference checkout at
``/root/reference``, cited per-module) as streaming ``ray.data.Dataset``
pipelines over zero-copy Arrow batches of an interleaved-document table
(``doc_id, spans``), plus the large-scale training-data operators
(dedup, similarity search, text analysis) such a pipeline needs.

Layout:
  cells, geom            — vectorized spatial kernels (no shapely/geopandas)
  sources/               — documents (spans) reader/decoder, synthetic world,
                           driver-testdata adapters
  stages/                — map_batches stage bodies (zonal, access, text, dedup…)
  state/                 — kernel state (mmapped tile store, grid indexes, graphs)
  pipelines/             — end-to-end pipelines mirroring the reference API
  functions/             — scalar helpers
"""

__version__ = "0.1.0"

_API_NAMES = (
    "get_canopy_percentage",
    "get_greenspace_percentage",
    "get_landcover_percentages",
    "get_mean_NDVI",
    "get_mean_NDVI_streets",
    "get_shortest_distance_greenspace",
    "get_streetview_GVI",
    "get_viewshed_GVI",
)

__all__ = list(_API_NAMES) + ["cells", "geom", "geoproj"]


def __getattr__(name):  # PEP 562 lazy exports
    # Eagerly importing .api here pulls ray.data + pandas into EVERY
    # process that unpickles a stage class (each worker pays ~0.8 s of
    # import before its first batch — measured as the dominant share
    # of the stage ramp at 32 CPUs).  Submodules and
    # the reference-API functions resolve lazily instead.
    if name in _API_NAMES:
        from . import api

        return getattr(api, name)
    if name in ("cells", "geom", "geoproj", "api", "lineage", "plotmap"):
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
