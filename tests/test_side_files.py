"""Side files are derived once per file version (``sidefiles.shared``).

The API derives each side table on the driver and keeps its
object-store reference while the file keeps its mtime and size: the
kernel cache key repeats across calls, each worker process builds a
kernel once per file version, a rewritten file is derived again, and a
bad side file fails inside the API call."""

import logging
import os
import shutil
import uuid
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import greenex_py_ray as gx
from greenex_py_ray.functions.joins import KernelStage
from greenex_py_ray.sources.synth import DOC_SCHEMA, SPAN_TYPE


def _polygon_docs(path: str) -> str:
    """A parquet documents file of rect polygon PoIs."""
    rng = np.random.default_rng(3)
    x0 = rng.uniform(3000, 15000, 8)
    y0 = rng.uniform(3000, 15000, 8)
    wkts = [f"POLYGON(({a} {b}, {a + 200} {b}, {a + 200} {b + 150}, "
            f"{a} {b + 150}, {a} {b}))" for a, b in zip(x0, y0)]
    spans = [[{"kind": "geom", "text": w, "media_ref": "", "offset": 0}]
             for w in wkts]
    pq.write_table(pa.table(
        {"doc_id": pa.array([f"p{i}" for i in range(8)]),
         "spans": pa.array(spans, pa.list_(SPAN_TYPE))}, schema=DOC_SCHEMA),
        path)
    return path


def _branches(w, polygons):
    D, G, C, T = (w["documents"], w["greenspace"], w["canopy"], w["tiles"])
    net = dict(network_nodes_file=w["network_nodes"],
               network_edges_file=w["network_edges"])
    iso = dict(buffer_type="network", buffer_dist=300.0, **net)
    return {
        "access_euclidean": lambda: gx.get_shortest_distance_greenspace(D, G),
        "access_network": lambda: gx.get_shortest_distance_greenspace(
            D, G, distance_type="network", **net),
        "access_entrance": lambda: gx.get_shortest_distance_greenspace(
            D, G, destination="entrance", **net),
        "coverage_circle": lambda: gx.get_canopy_percentage(D, C),
        "coverage_self": lambda: gx.get_greenspace_percentage(
            polygons, G, buffer_type=None),
        "coverage_isochrone": lambda: gx.get_canopy_percentage(D, C, **iso),
        "isochrone_ndvi": lambda: gx.get_mean_NDVI(D, T, **iso),
        "isochrone_landcover": lambda: gx.get_landcover_percentages(
            D, T, **iso),
    }


@pytest.fixture
def polygons(tmp_path):
    return _polygon_docs(str(tmp_path / "polygons.parquet"))


@pytest.mark.parametrize("branch", [
    "access_euclidean", "access_network", "access_entrance",
    "coverage_circle", "coverage_self", "coverage_isochrone",
    "isochrone_ndvi", "isochrone_landcover"])
def test_api_kernel_keys_repeat_across_calls(world, polygons, monkeypatch,
                                             branch):
    """Two calls of a public function on the same files give one kernel
    cache key: the side tables' object-store references repeat."""
    keys = []
    real = KernelStage._map

    def spy(self, ds, append=None):
        keys.append(self.key)
        return real(self, ds, append)

    monkeypatch.setattr(KernelStage, "_map", spy)
    call = _branches(world, polygons)[branch]
    call()
    call()
    assert len(keys) == 2
    assert keys[0] == keys[1]


def _counting_builds(monkeypatch, log_dir: str) -> None:
    """Make every kernel stage build a subclass of its kernel that
    leaves one ``<class>-<pid>-<uuid>`` file in ``log_dir`` per build."""
    counted = {}
    real = KernelStage._map

    def counting(cls):
        if cls not in counted:
            class Counted(cls):
                def __init__(self, **kwargs):
                    super().__init__(**kwargs)
                    open(os.path.join(log_dir, f"{cls.__name__}-{os.getpid()}-"
                                      f"{uuid.uuid4().hex}"), "w").close()
            counted[cls] = Counted
        return counted[cls]

    def spy(self, ds, append=None):
        return real(self._replace(cls=counting(self.cls)), ds, append)

    monkeypatch.setattr(KernelStage, "_map", spy)


@pytest.mark.parametrize("branch", [
    "access_euclidean", "coverage_circle", "isochrone_ndvi"])
def test_api_builds_each_kernel_once_per_worker(world, polygons, tmp_path,
                                                monkeypatch, branch):
    """Two consumed calls on the same files build the kernel once in
    each worker process: the second call reuses the first one's."""
    log_dir = str(tmp_path / "builds")
    os.makedirs(log_dir)
    _counting_builds(monkeypatch, log_dir)
    call = _branches(world, polygons)[branch]
    rows = [call().materialize().count() for _ in range(2)]
    assert rows == [300, 300]
    builds = Counter(f.rsplit("-", 1)[0] for f in os.listdir(log_dir))
    assert builds and set(builds.values()) == {1}, builds


def test_greenspace_rewritten_in_place_changes_output(world, tmp_path):
    """A kernel derived from a side file sees the file rewritten at the
    same path: the key carries the file's mtime and size."""
    gs = str(tmp_path / "greenspace.parquet")
    shutil.copy(world["greenspace"], gs)

    def distances(path):
        t = gx.get_shortest_distance_greenspace(world["documents"], path,
                                                target_dist=2000.0)
        return t.to_pandas().set_index("doc_id")[
            "distance_to_greenspace"].sort_index().tolist()

    before = distances(gs)
    t = pq.read_table(gs)
    pq.write_table(t.slice(0, t.num_rows // 4), gs)
    after = distances(gs)
    assert before != after
    fresh = str(tmp_path / "fresh.parquet")
    shutil.copy(gs, fresh)
    assert after == distances(fresh)


def _bad_files(tmp_path):
    missing = str(tmp_path / "missing.parquet")
    garbage = str(tmp_path / "garbage.parquet")
    with open(garbage, "wb") as f:
        f.write(b"not a parquet file")
    columns = str(tmp_path / "columns.parquet")
    pq.write_table(pa.table({"foo": [1, 2]}), columns)
    return {"missing": missing, "unreadable": garbage, "columns": columns}


@pytest.mark.parametrize("problem", ["missing", "unreadable", "columns"])
@pytest.mark.parametrize("arg", [
    "greenspace_vector_file", "greenspace_vector_file/coverage",
    "canopy_vector_file", "network_nodes_file", "network_edges_file"])
def test_bad_side_file_raises_in_the_call(world, tmp_path, monkeypatch,
                                          arg, problem):
    """A missing, unreadable or column-less side file raises inside the
    API call, before any Ray job runs."""
    import ray.data

    def no_job(*args, **kwargs):
        raise AssertionError("a Ray job ran")

    for name in ("take", "take_all", "count", "materialize", "iter_batches"):
        monkeypatch.setattr(ray.data.Dataset, name, no_job)
    bad = _bad_files(tmp_path)[problem]
    D, G, C = world["documents"], world["greenspace"], world["canopy"]
    net = dict(network_nodes_file=world["network_nodes"],
               network_edges_file=world["network_edges"])
    if arg == "greenspace_vector_file":
        call = lambda: gx.get_shortest_distance_greenspace(D, bad)  # noqa: E731
    elif arg == "greenspace_vector_file/coverage":
        call = lambda: gx.get_greenspace_percentage(D, bad)  # noqa: E731
    elif arg == "canopy_vector_file":
        call = lambda: gx.get_canopy_percentage(D, bad)  # noqa: E731
    else:
        net[arg] = bad
        call = lambda: gx.get_shortest_distance_greenspace(  # noqa: E731
            D, G, distance_type="network", **net)
    with pytest.raises((OSError, ValueError)):
        call()


def test_docs_with_xy_blocks_unify_without_schema_hash_warning(sf_dir):
    """The gate plans ``ReadParquet → DeriveXY → kernel`` batch several
    read blocks into one kernel batch, and Ray unifies their schemas.
    The testdata's pandas schema metadata is a dict, which pyarrow's
    ``Schema.__hash__`` cannot hash; ``read_table`` drops it, so the
    blocks it reads (here through ``read_docs_with_xy``) carry no
    metadata and the batching logs no "Failed to hash the schemas"
    line."""
    import ray
    from ray.data._internal.arrow_ops import transform_pyarrow

    from greenex_py_ray.sources.driver_tables import (
        read_docs_with_xy, read_table)

    path = os.path.join(sf_dir, "documents.parquet")
    if not os.path.exists(path):
        pytest.skip(f"no driver testdata at {sf_dir}")
    assert pq.read_schema(path).metadata  # the file does carry metadata
    read = ray.get(read_table(sf_dir, "documents", ["doc_id"]).to_arrow_refs())
    assert all(t.schema.metadata is None for t in read)
    ds = read_docs_with_xy(sf_dir, 500.0)
    blocks = [t.select(["doc_id", "x", "y"])
              for t in ray.get(ds.to_arrow_refs())]
    assert len(blocks) >= 2
    assert all(b.schema.metadata is None for b in blocks)
    # Ray's loggers do not propagate to the root logger pytest watches
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger(transform_pyarrow.__name__)
    logger.addHandler(handler)
    try:
        out = transform_pyarrow.concat(blocks)
    finally:
        logger.removeHandler(handler)
    assert out.num_rows == pq.ParquetFile(path).metadata.num_rows
    assert not [r for r in records
                if "Failed to hash the schemas" in r.getMessage()]


def test_shared_derives_once_per_file_version(tmp_path, monkeypatch):
    """``shared`` derives and puts a table once per file version and
    Ray session; a rewritten file or a new session derives it again,
    and a derived table without a needed column raises."""
    import pyarrow.compute as pc
    import ray

    from greenex_py_ray import sidefiles

    path = str(tmp_path / "side.parquet")
    pq.write_table(pa.table({"a": [1, 2, 3]}), path)
    calls = []

    def derive(p, scale):
        calls.append(p)
        return pa.table({"a": pc.multiply(
            pq.read_table(p).column("a"), scale)})

    first = sidefiles.shared(derive, path, 2, needs=("a",))
    assert sidefiles.shared(derive, path, 2, needs=("a",)) is first
    assert len(calls) == 1
    assert ray.get(first).column("a").to_pylist() == [2, 4, 6]
    pq.write_table(pa.table({"a": [5]}), path)
    second = sidefiles.shared(derive, path, 2)
    assert second != first and len(calls) == 2
    assert ray.get(second).column("a").to_pylist() == [10]
    monkeypatch.setattr(sidefiles, "_session", lambda: ("other", "session"))
    assert sidefiles.shared(derive, path, 2) != second
    assert len(calls) == 3
    with pytest.raises(ValueError, match="no column"):
        sidefiles.shared(derive, path, 3, needs=("b",))


def test_documents_greenspace_reads_only_stored_centroids(world, tmp_path):
    """The documents path reads just the greenspace file's stored
    centroid columns, and a file without them raises in the call."""
    from greenex_py_ray import sidefiles
    from greenex_py_ray.pipelines.accessibility import (
        get_shortest_distance_greenspace_documents)

    t = sidefiles.stored_centroids(world["greenspace"])
    assert t.column_names == ["gs_id", "cx", "cy"]
    bare = str(tmp_path / "bare.parquet")
    pq.write_table(pq.read_table(world["greenspace"]).drop_columns(
        ["centroid_x", "centroid_y"]), bare)
    with pytest.raises(ValueError):
        get_shortest_distance_greenspace_documents(world["documents"], bare)
