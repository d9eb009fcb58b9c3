"""The one keyed exchange (``functions/exchange.py``): its placement hash
is a function of the key value alone, every key meets in exactly one
kernel call, the joins built on it match pandas, and no other module
hand-rolls an exchange, a placement hash or a ``Dataset.join``."""

import pathlib
import re

import numpy as np
import pyarrow as pa
import pytest

import ray
import ray.data

from greenex_py_ray.functions.exchange import bucket_exchange, stable_bucket
from greenex_py_ray.functions.joins import bucket_join_attach
from greenex_py_ray.stages.topk import topk_per_group

PKG = pathlib.Path(__file__).resolve().parents[1] / "greenex_py_ray"


def test_bucket_is_a_function_of_the_value_alone():
    ints = [0, 1, 17, 123456789, -5]
    alone = stable_bucket([pa.array(ints, pa.int64())], 32)
    with_null = stable_bucket([pa.array(ints + [None], pa.int64())], 32)
    assert with_null[:-1].tolist() == alone.tolist()
    assert stable_bucket([pa.array(ints, pa.int32())], 32).tolist() == \
        alone.tolist()
    # one fixed bucket for a null key, whatever its type
    assert with_null[-1] == stable_bucket([pa.array([None], pa.string())],
                                          32)[0]
    strs = ["doc-1", "doc-2", "poi-7"]
    assert stable_bucket([pa.array(strs + [None])], 32)[:-1].tolist() == \
        stable_bucket([pa.array(strs)], 32).tolist()


def _groups(ds, key):
    """(key tuple, __bucket) per row, as bucket_exchange's kernel saw it."""
    cols = key if isinstance(key, list) else [key]

    def kernel(t: pa.Table) -> pa.Table:
        return t.select(cols + ["__bucket"]).append_column(
            "call", pa.array(np.full(t.num_rows,
                                     t.column("__bucket")[0].as_py())))

    return bucket_exchange(ds, key, kernel, 8).to_pandas()


@pytest.mark.parametrize("key, table", [
    ("k", pa.table({"k": ["a", "b", "c", "a", None, "b"],
                    "v": range(6)})),
    ("k", pa.table({"k": pa.array([3, None, 3, 7, 11, None, 7], pa.int64()),
                    "v": range(7)})),
    (["k1", "k2"], pa.table({"k1": [1, 1, 2, 2, 1], "k2": ["x", "y", "x",
                                                          "x", "x"],
                             "v": range(5)})),
])
def test_bucket_exchange_every_key_in_one_group(key, table):
    # three blocks, so equal keys start out in different batches
    ds = ray.data.from_arrow([table.slice(0, 2), table.slice(2, 2),
                              table.slice(4)])
    got = _groups(ds, key)
    cols = key if isinstance(key, list) else [key]
    assert len(got) == table.num_rows
    assert (got["__bucket"] == got["call"]).all()
    per_key = got.groupby(cols, dropna=False)["call"].nunique()
    assert (per_key == 1).all()


def test_join_int_key_with_null_in_right_batch():
    left = ray.data.from_arrow(pa.table({"k": pa.array([1, 17], pa.int64()),
                                         "a": ["x", "y"]}))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 17, None], pa.int64()), "b": [10, 20, 30]}))
    out = bucket_join_attach(left, right, key="k", num_buckets=32)
    got = out.to_pandas().sort_values("k")
    assert got["k"].tolist() == [1, 17]
    assert got["b"].tolist() == [10, 20]


@pytest.mark.parametrize("how", ["inner", "left_outer", "semi", "anti"])
def test_join_kinds_match_pandas(how):
    rng = np.random.default_rng(7)
    lk = rng.integers(0, 40, 200)
    lt = pa.table({"k": pa.array(lk), "a": pa.array(np.arange(200))})
    rk = np.unique(rng.integers(0, 60, 30))
    rt = pa.table({"rk": pa.array(rk), "b": pa.array(rk * 10)})
    left = ray.data.from_arrow([lt.slice(0, 90), lt.slice(90)])
    right = ray.data.from_arrow(rt)
    out = bucket_join_attach(left, right, key="k", right_key="rk",
                             num_buckets=8, how=how).to_pandas()
    ldf, rdf = lt.to_pandas(), rt.to_pandas()
    if how in ("semi", "anti"):
        hit = ldf["k"].isin(rdf["rk"])
        want = ldf[hit if how == "semi" else ~hit]
    else:
        want = ldf.merge(rdf, left_on="k", right_on="rk",
                         how="inner" if how == "inner" else "left"
                         ).drop(columns="rk")
    assert list(out.columns) == ["k", "a"] + (
        [] if how in ("semi", "anti") else ["b"])
    got = out.sort_values("a").reset_index(drop=True)
    want = want.sort_values("a").reset_index(drop=True)[list(out.columns)]
    if how == "left_outer":
        assert got["b"].isna().equals(want["b"].isna())
        got, want = got.fillna(-1), want.fillna(-1)
    assert got.astype(np.int64).equals(want.astype(np.int64))


# -------------------------------------------------------------- grep lint

#: semantic groupings that stay hand-written — they are not placement
#: hashes (the bucket id means something to the kernel or the oracle)
ALLOWED = {
    ("stages/packing.py", "bucket groupby"),   # k // bucket_span ranges
    ("stages/olap.py", "bucket groupby"),      # time bucket of the interval
    ("stages/dedup.py", "bucket groupby"),     # LSH band buckets
    ("pipelines/driver_queries.py", "bucket groupby"),  # hyperplane LSH
    ("stages/spatial_join.py", "hash call"),   # hot-cell salt
}

RULES = {
    "Dataset.join": re.compile(r"join_type\s*=|(?<![\"'\w])"
                               r"(?!(path|linesep)\b)\w+\.join\(\s*[A-Za-z_]"),
    "__bucket groupby": re.compile(r"groupby\(\s*[\"']__bucket[\"']"),
    "bucket groupby": re.compile(r"groupby\(\s*\[?[\"']\w*bucket"),
    "modulo bucket": re.compile(
        r"%\s*(np\.u?int64\()?\s*\w*(bucket|partition|coarse)"),
    "hash call": re.compile(r"hash_pandas_object|hash_array\(|_bucket_of"),
}


def test_no_hand_rolled_exchange_outside_exchange_module():
    bad = []
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        if rel == "functions/exchange.py":
            continue
        for n, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("#", 1)[0]
            for rule, pat in RULES.items():
                if pat.search(code) and (rel, rule) not in ALLOWED:
                    bad.append(f"{rel}:{n}: {rule}: {line.strip()}")
    assert not bad, "\n".join(bad)


def test_lint_rules_catch_the_old_patterns():
    for rule, line in [
        ("Dataset.join", 'j1 = pairs.join(uni, "inner", 16, on=("a",))'),
        ("Dataset.join", '.join(keys, join_type="left_semi",'),
        ("__bucket groupby", 'part.groupby("__bucket").map_groups(f)'),
        ("modulo bucket", 'h = (u % num_buckets).astype(np.int64)'),
        ("modulo bucket", 'b = (h % np.uint64(num_buckets))'),
        ("hash call", 'pd.util.hash_pandas_object(s, index=False)'),
    ]:
        assert RULES[rule].search(line), (rule, line)
    for line in ['", ".join(parts)', "os.path.join(out_dir, name)",
                 "g.agg(\",\".join)"]:
        assert not RULES["Dataset.join"].search(line), line


@pytest.mark.parametrize("exchange, rows", [
    (lambda ds: bucket_exchange(ds, "k", lambda t: t, 4), 20),
    (lambda ds: topk_per_group(ds, "g", "v", 3, "k"), 6),
], ids=["bucket_exchange", "topk_per_group"])
def test_exchanges_drop_pandas_metadata(exchange, rows):
    """A pandas stage's blocks carry pandas schema metadata, which
    pyarrow cannot hash: every block unify in an exchange then logs
    "Failed to hash the schemas".  The exchanges drop it on their map
    side, so none reaches their output."""
    tbl = pa.table({"k": np.arange(20), "g": np.arange(20) % 2,
                    "v": np.arange(20.0)})
    ds = ray.data.from_arrow([tbl.slice(0, 10), tbl.slice(10)]).map_batches(
        lambda df: df, batch_format="pandas")
    blocks = ray.get(exchange(ds).to_arrow_refs())
    assert sum(b.num_rows for b in blocks) == rows
    assert [b.schema.metadata for b in blocks] == [None] * len(blocks)
