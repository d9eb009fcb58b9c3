"""Every top-level def of the package is reached from the public API,
the gate queries, ``__ray_entry__``, ``bench.py``, ``perfbench/`` or
``tools/`` (``tools/reachability.py``), except the allowlisted ones
below, each kept for the reason given."""

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


def test_a_root_name_that_does_not_resolve_fails(tmp_path, monkeypatch):
    tool = _tool()
    bad = tmp_path / "bad_root.py"
    bad.write_text("from greenex_py_ray.api import no_such_function\n")
    files = tool.root_files()
    monkeypatch.setattr(tool, "root_files", lambda: files + [str(bad)])
    with pytest.raises(ImportError, match="no_such_function"):
        tool.report()
