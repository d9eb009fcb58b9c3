"""Every top-level def of the package is reached from the public API,
the gate queries, ``__ray_entry__``, ``bench.py``, ``perfbench/`` or
``tools/`` (``tools/reachability.py``), and every defaulted parameter
of a reached def is passed by some reached call, except the
allowlisted ones below, each kept for the reason given."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: unreached defs that stay, with the reason each stays
ALLOWED = {
    "greenex_py_ray.geom.clip_area_general":
        "reference area for the PolygonCoverage overlay test",
    "greenex_py_ray.stages.sketch.cms_query":
        "estimator the tests check the gated count-min registers with",
    "greenex_py_ray.stages.sketch.hll_estimate":
        "estimator the tests check the gated HyperLogLog registers with",
    "greenex_py_ray.stages.sketch.kmv_estimate":
        "estimator the tests check the gated KMV sketch with",
    "greenex_py_ray.stages.sketch.bloom_probe":
        "probe the tests check the gated Bloom filter bits with",
    "greenex_py_ray.sources.documents.validate_geometry_homogeneous":
        "the reference's mixed-geometry input check; the API does not run it",
    "greenex_py_ray.sources.documents.geometry_kinds":
        "the geometry census behind validate_geometry_homogeneous",
    "greenex_py_ray.sources.documents.validate_within_bounds":
        "the reference's bounds input check; the API does not run it",
}


#: unset defaulted parameters that stay, with the reason each stays
ALLOWED_UNSET = {
    "greenex_py_ray.plotmap.write_map_html(row_cap)":
        "the tests trip the row guard with a small cap",
    "greenex_py_ray.sources.documents.decode_geom(src_crs)":
        "the tests reproject a geographic input through the decoder",
    "greenex_py_ray.stages.coverage.PolygonCoverage(quad_segs)":
        "the golden test matches the reference's 16-segment buffer",
    "greenex_py_ray.stages.dedup.connected_components(max_rounds)":
        "the tests bound the pointer-doubling rounds on a long chain",
    "greenex_py_ray.stages.dedup.connected_components(driver_threshold)":
        "the tests force the distributed path, which no gate input takes",
    "greenex_py_ray.stages.dedup.near_dedup(driver_threshold)":
        "the tests force the distributed path, which no gate input takes",
    "greenex_py_ray.stages.enrich.broadcast_join(how)":
        "the tests check the left join against the inner join",
    "greenex_py_ray.stages.graphalgo.pagerank(broadcast_threshold)":
        "the tests force the distributed path, which no gate input takes",
    "greenex_py_ray.stages.netaccess.ODMatrix(dest_ids)":
        "the tests route to an explicit destination set; the gates use "
        "every dest_mod-th node",
    "greenex_py_ray.stages.quantiles.global_rank_ntile(tiles)":
        "the tests check NTILE(5) on uneven tiles; the gate uses 10",
    "greenex_py_ray.stages.similarity.embedding_gram(dim)":
        "the tests use 8-dimensional embeddings; the gate's are 64",
    "greenex_py_ray.stages.stac.LowestCloudSelector(item_chunk)":
        "the tests check the selection does not depend on the chunking",
    "greenex_py_ray.stages.windows.resample_fill(unit_us)":
        "the tests resample to 10-second as well as hourly periods",
}


def _tool():
    spec = importlib.util.spec_from_file_location(
        "reachability", os.path.join(ROOT, "tools", "reachability.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_unreached_defs_are_the_allowlist():
    r = _tool().report()
    assert set(r["unreached"]) == set(ALLOWED)
    assert r["core"] > 0 and r["gate_only"] > 0
    assert r["core"] + r["gate_only"] + sum(r["unreached"].values()) \
        == r["package"]


def test_unset_params_are_the_allowlist():
    assert set(_tool().report()["unset"]) == set(ALLOWED_UNSET)


def test_a_def_used_as_a_value_has_every_parameter_set(tmp_path,
                                                        monkeypatch):
    """Calls that the pass cannot read (a def passed as a value, a
    ``**kw``) count as passing every parameter, so the pass never
    reports a parameter that some call may set."""
    tool = _tool()
    base = set(tool.report()["unset"])
    assert "greenex_py_ray.stages.windows.resample_fill(unit_us)" in base
    root = tmp_path / "root.py"
    root.write_text(
        "from greenex_py_ray.stages import dedup, windows\n"
        "fns = [windows.resample_fill]\n"
        "dedup.connected_components(None, **{})\n")
    files = tool.root_files()
    monkeypatch.setattr(tool, "root_files", lambda: files + [str(root)])
    got = set(tool.report()["unset"])
    assert base - got == {
        "greenex_py_ray.stages.windows.resample_fill(unit_us)",
        "greenex_py_ray.stages.dedup.connected_components(max_rounds)",
        "greenex_py_ray.stages.dedup.connected_components(driver_threshold)"}


def test_calls_through_a_ray_map_pass_what_they_bind(tmp_path,
                                                     monkeypatch):
    """A ``functools.partial`` mapped by Ray passes its keywords and the
    batch; an executor ``map`` passes one argument per iterable."""
    tool = _tool()
    base = set(tool.report()["unset"])
    root = tmp_path / "root.py"
    root.write_text(
        "import functools\n"
        "from greenex_py_ray.stages import dedup, windows\n"
        "ds.map_batches(functools.partial(windows.resample_fill,\n"
        "                                 unit_us=1))\n"
        "pool.map(dedup.connected_components, pairs, rounds)\n")
    files = tool.root_files()
    monkeypatch.setattr(tool, "root_files", lambda: files + [str(root)])
    assert base - set(tool.report()["unset"]) == {
        "greenex_py_ray.stages.windows.resample_fill(unit_us)",
        "greenex_py_ray.stages.dedup.connected_components(max_rounds)"}


def test_a_root_name_that_does_not_resolve_fails(tmp_path, monkeypatch):
    tool = _tool()
    bad = tmp_path / "bad_root.py"
    bad.write_text("from greenex_py_ray.api import no_such_function\n")
    files = tool.root_files()
    monkeypatch.setattr(tool, "root_files", lambda: files + [str(bad)])
    with pytest.raises(ImportError, match="no_such_function"):
        tool.report()
