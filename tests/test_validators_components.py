"""M1/M13 validators, D3 edge dedup, near-dup connected components."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from greenex_py_ray.sources import documents as doc_src
from greenex_py_ray.sources.synth import DOC_SCHEMA, SPAN_TYPE
from greenex_py_ray.stages import dedup


def _docs_table(geoms):
    spans = [
        [{"kind": "geom", "text": g, "media_ref": "", "offset": 0}] for g in geoms
    ]
    return pa.table(
        {"doc_id": pa.array([f"d{i}" for i in range(len(geoms))], pa.string()),
         "spans": pa.array(spans, pa.list_(SPAN_TYPE))},
        schema=DOC_SCHEMA,
    )


def test_geometry_homogeneity_ok():
    ds = rd.from_arrow(_docs_table(["POINT(1 2)", "POINT(3 4)"]))
    assert doc_src.validate_geometry_homogeneous(ds) == "POINT"


def test_geometry_homogeneity_mixed_raises():
    ds = rd.from_arrow(_docs_table(["POINT(1 2)", "POLYGON((0 0,1 0,1 1))"]))
    with pytest.raises(TypeError, match="same type"):
        doc_src.validate_geometry_homogeneous(ds)


def test_bounds_validator():
    ds = doc_src.decode_geom(rd.from_arrow(_docs_table(["POINT(5 5)", "POINT(9 9)"])))
    assert doc_src.validate_within_bounds(ds, 0, 0, 10, 10)
    with pytest.raises(ValueError, match="bounds"):
        doc_src.validate_within_bounds(ds, 0, 0, 6, 6)
    assert doc_src.validate_within_bounds(ds, 0, 0, 6, 6, strict=False) is False


def test_dedup_undirected_edges():
    t = pa.table({"u": pa.array([1, 2, 5, 7], pa.int64()),
                  "v": pa.array([2, 1, 6, 7], pa.int64()),
                  "w": pa.array([1.0, 1.0, 2.0, 3.0])})
    out = dedup.dedup_undirected_edges(rd.from_arrow(t)).to_pandas()
    got = sorted(map(tuple, out[["u", "v"]].to_numpy()))
    assert got == [(1, 2), (5, 6), (7, 7)]


def test_connected_components():
    pairs = pa.table({"key_a": pa.array([1, 2, 5, 8], pa.int64()),
                      "key_b": pa.array([2, 3, 6, 9], pa.int64())})
    out = dedup.connected_components(rd.from_arrow(pairs)).to_pandas()
    comp = dict(zip(out["key"], out["component"]))
    assert comp[1] == comp[2] == comp[3] == 1
    assert comp[5] == comp[6] == 5
    assert comp[8] == comp[9] == 8


def test_connected_components_chain():
    # long chain exercises multi-round propagation
    n = 12
    pairs = pa.table({"key_a": pa.array(list(range(n - 1)), pa.int64()),
                      "key_b": pa.array(list(range(1, n)), pa.int64())})
    out = dedup.connected_components(rd.from_arrow(pairs)).to_pandas()
    assert set(out["component"]) == {0}
    assert len(out) == n


def test_asof_join_interleaved():
    """As-of semantics on genuinely interleaved timestamps."""
    import pandas as pd

    from greenex_py_ray.stages.asof import asof_join_latest

    ev = pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "user_id": pa.array([7, 7, 7, 8, 9], pa.int64()),
        "ts": pa.array(pd.to_datetime(
            ["2024-01-05", "2024-01-10", "2024-01-20", "2024-01-10", "2024-01-10"]
        ).astype("datetime64[us]")),
    })
    orders = pa.table({
        "o_custkey": pa.array([7, 7, 8], pa.int64()),
        "o_orderdate": pa.array(pd.to_datetime(
            ["2024-01-08", "2024-01-15", "2024-02-01"]
        ).astype("datetime64[us]")),
    })
    out = asof_join_latest(
        rd.from_arrow(ev), rd.from_arrow(orders),
        left_key="user_id", right_key="o_custkey",
        left_ts="ts", right_ts="o_orderdate", left_id="event_id",
        out_col="last_order_epoch",
    ).to_pandas().set_index("event_id")
    import numpy as np

    def epoch(s):
        return pd.Timestamp(s).timestamp()

    assert np.isnan(out.loc[1, "last_order_epoch"])          # before any order
    assert out.loc[2, "last_order_epoch"] == epoch("2024-01-08")
    assert out.loc[3, "last_order_epoch"] == epoch("2024-01-15")
    assert np.isnan(out.loc[4, "last_order_epoch"])          # order after event
    assert np.isnan(out.loc[5, "last_order_epoch"])          # user with no orders


def test_range_join_count_semantics():
    import pandas as pd

    from greenex_py_ray.stages.asof import range_join_count

    ev = pa.table({
        "event_id": pa.array([1, 2], pa.int64()),
        "user_id": pa.array([7, 7], pa.int64()),
        "ts": pa.array(pd.to_datetime(["2024-01-10", "2024-01-20"]).astype("datetime64[us]")),
    })
    orders = pa.table({
        "o_custkey": pa.array([7, 7, 7], pa.int64()),
        "o_orderdate": pa.array(pd.to_datetime(
            ["2024-01-05", "2024-01-09", "2024-01-19"]).astype("datetime64[us]")),
    })
    out = range_join_count(
        rd.from_arrow(ev), rd.from_arrow(orders),
        left_key="user_id", right_key="o_custkey", left_ts="ts",
        right_ts="o_orderdate", left_id="event_id",
        window_us=2 * 86400 * 1_000_000, out_col="n",
    ).to_pandas().set_index("event_id")
    assert out.loc[1, "n"] == 1   # only 01-09 within [01-08, 01-10]
    assert out.loc[2, "n"] == 1   # only 01-19 within [01-18, 01-20]


def test_connected_components_distributed_long_chain():
    """Distributed path (driver_threshold=0) on a chain longer than
    max_rounds: pointer doubling must converge in O(log n) rounds."""
    n = 40
    pairs = pa.table({"key_a": pa.array(list(range(n - 1)), pa.int64()),
                      "key_b": pa.array(list(range(1, n)), pa.int64())})
    out = dedup.connected_components(
        rd.from_arrow(pairs), driver_threshold=0, max_rounds=10
    ).to_pandas()
    assert set(out["component"]) == {0}
    assert len(out) == n


def test_span_fingerprint_detects_sequence_changes(ray_session):
    from greenex_py_ray.stages.multimodal import span_fingerprint_batch
    from greenex_py_ray.stages.text import fingerprint64

    def mk(spans):
        return pa.array([spans], pa.list_(pa.struct(
            [("kind", pa.string()), ("text", pa.string()),
             ("media_ref", pa.string()), ("offset", pa.int32())])))

    base = [{"kind": "geom", "text": "POINT(1 2)", "media_ref": "", "offset": 0},
            {"kind": "text", "text": "hello", "media_ref": "", "offset": 1},
            {"kind": "media", "text": "", "media_ref": "tile://ndvi/1_2",
             "offset": 2}]
    variants = {
        "base": base,
        "reordered": [base[1], base[0], base[2]],
        "mutated": [dict(base[0]), dict(base[1], text="hellp"), base[2]],
        "dropped": base[:2],
    }
    fps = {}
    for name, spans in variants.items():
        tbl = pa.table({"doc_id": pa.array([name]), "spans": mk(spans)})
        out = span_fingerprint_batch(tbl).to_pandas()
        assert out["n_spans"][0] == len(spans)
        fps[name] = out["span_fp"][0]
    assert len(set(fps.values())) == 4  # every change flips the hash

    # matches the engine-wide Horner family applied to the serialized form
    ser = "".join(f"{s['kind']}\x1f{s['text']}\x1f{s['media_ref']}\x1e"
                  for s in base)
    assert fps["base"] == fingerprint64([ser]).view(np.int64)[0]


def test_partition_checksum_order_free_and_sensitive(ray_session):
    from greenex_py_ray.lineage import partition_checksum

    rng = np.random.default_rng(7)
    n = 600
    cell = rng.integers(0, 12, n).astype(np.int64)
    k = np.arange(n, dtype=np.int64)
    texts = [f"doc body {i} {'x' * (i % 17)}" for i in range(n)]
    tbl = pa.table({"doc_id": pa.array(k), "cell": pa.array(cell),
                    "text": pa.array(texts)})

    a = (partition_checksum(rd.from_arrow(tbl).repartition(3))
         .to_pandas().sort_values("cell").reset_index(drop=True))
    # shuffled row order + different partitioning → identical table
    perm = rng.permutation(n)
    b = (partition_checksum(
            rd.from_arrow(tbl.take(pa.array(perm))).repartition(9))
         .to_pandas().sort_values("cell").reset_index(drop=True))
    import pandas as pd
    pd.testing.assert_frame_equal(a, b)
    assert a["n_docs"].sum() == n

    # mutating one row's text flips exactly its cell's checksum
    texts2 = list(texts)
    texts2[5] = texts2[5] + "!"
    tbl2 = pa.table({"doc_id": pa.array(k), "cell": pa.array(cell),
                     "text": pa.array(texts2)})
    c = (partition_checksum(rd.from_arrow(tbl2))
         .to_pandas().sort_values("cell").reset_index(drop=True))
    diff = (a["checksum"] != c["checksum"]).to_numpy()
    assert diff.sum() == 1
    assert a.loc[diff, "cell"].iloc[0] == cell[5]


def test_lineage_checksum_order_free_with_duplicate_keys():
    """A partition's manifest checksum depends on its rows, not their
    order: duplicate keys in two orders agree, while a changed value, a
    doubled row or a moved span does not."""
    from greenex_py_ray.lineage import _checksum

    spans = [[{"kind": "geom", "text": "POINT(1 2)", "media_ref": "", "offset": 0},
              {"kind": "text", "text": "park", "media_ref": "", "offset": 1}],
             [], None, [{"kind": "text", "text": "tree", "media_ref": "", "offset": 0}]]
    tbl = pa.table({"doc_id": ["d1", "d1", "d2", "d1"],
                    "mean_NDVI": [0.5, None, 0.25, 0.75],
                    "n": pa.array([1, 2, 3, None], pa.int32()),
                    "spans": pa.array(spans, pa.list_(SPAN_TYPE))})
    base = _checksum(tbl)
    for order in ([3, 2, 1, 0], [1, 3, 0, 2]):
        assert _checksum(tbl.take(pa.array(order))) == base
    changed = tbl.set_column(1, "mean_NDVI", pa.array([0.5, None, 0.25, 0.5]))
    doubled = tbl.take(pa.array([0, 0, 1, 2, 3]))
    moved = tbl.set_column(3, "spans", pa.array(
        [spans[0][::-1]] + spans[1:], pa.list_(SPAN_TYPE)))
    assert len({base, _checksum(changed), _checksum(doubled),
                _checksum(moved), _checksum(tbl.slice(0, 0))}) == 5


def test_compact_text_spans_order_and_zero_docs(ray_session):
    from greenex_py_ray.stages.multimodal import compact_text_spans_batch
    from greenex_py_ray.stages.text import fingerprint64

    def mk(list_of_spans):
        return pa.array(list_of_spans, pa.list_(pa.struct(
            [("kind", pa.string()), ("text", pa.string()),
             ("media_ref", pa.string()), ("offset", pa.int32())])))

    d0 = [{"kind": "text", "text": "a", "media_ref": "", "offset": 0},
          {"kind": "media", "text": "", "media_ref": "tile://ndvi/0_0",
           "offset": 1},
          {"kind": "text", "text": "b", "media_ref": "", "offset": 2}]
    d1 = [{"kind": "media", "text": "", "media_ref": "img://7",
           "offset": 0}]          # no text spans at all
    d2 = []                        # empty span list
    tbl = pa.table({"doc_id": pa.array([10, 11, 12], pa.int64()),
                    "spans": mk([d0, d1, d2])})
    out = compact_text_spans_batch(tbl).to_pandas().set_index("doc_id")
    assert out.loc[10, "n_kept"] == 2 and out.loc[10, "n_dropped"] == 1
    assert out.loc[11, "n_kept"] == 0 and out.loc[11, "n_dropped"] == 1
    assert out.loc[12, "n_kept"] == 0 and out.loc[12, "n_dropped"] == 0
    # kept-span order preserved: fingerprint equals the serialized
    # text-only sequence under the engine-wide Horner family
    ser = "text\x1fa\x1f\x1etext\x1fb\x1f\x1e"
    assert out.loc[10, "text_fp"] == fingerprint64([ser]).view(np.int64)[0]
    # zero-text docs carry the empty-sequence fingerprint (Horner basis)
    empty = fingerprint64([""]).view(np.int64)[0]
    assert out.loc[11, "text_fp"] == empty
    assert out.loc[12, "text_fp"] == empty
    # swapping the two text spans flips the fingerprint
    d0r = [d0[2], d0[1], d0[0]]
    tbl2 = pa.table({"doc_id": pa.array([10], pa.int64()),
                     "spans": mk([d0r])})
    out2 = compact_text_spans_batch(tbl2).to_pandas()
    assert out2["text_fp"][0] != out.loc[10, "text_fp"]
