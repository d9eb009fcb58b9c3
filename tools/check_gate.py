"""Local stand-in for the driver's correctness gate: run every
``queries()`` entry and its ``oracle_sql()`` twin on the same sf dir and
compare row count, sorted-column schema, and values (order-insensitive).

Usage: python tools/check_gate.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time as _time

import duckdb
import numpy as np
import pandas as pd

import ray

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    """Bit-exact canonical form, matching the driver's value hash.

    Float columns are cast to float64 (exact for float32) and replaced
    by their IEEE-754 bit pattern viewed as int64, with NaNs rewritten
    to the canonical quiet NaN first — so -0.0 != +0.0 and any single
    ULP difference fails, exactly like the driver's byte hash.
    """
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif df[c].dtype.kind == "f":
            v = df[c].to_numpy(dtype=np.float64, na_value=np.nan).copy()
            v[np.isnan(v)] = np.nan  # canonicalize NaN payload bits
            df[c] = v.view(np.int64)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def harmonize(a: pd.DataFrame, b: pd.DataFrame, name: str = ""):
    """Cast int columns to float64 where the OTHER side is float so
    the strict bit compare applies within a common dtype — and REPORT
    the cast: whether the driver's byte hash equates int64 25074909
    with DOUBLE 25074909.0 is unverified, so dtype-mismatched gates
    should be fixed at the source (cast the oracle/engine), not
    papered over here."""
    for c in set(a.columns) & set(b.columns):
        ka, kb = a[c].dtype.kind, b[c].dtype.kind
        if ka in "iu" and kb == "f":
            print(f"[DTYPE    ] {name}.{c}: ray={a[c].dtype} "
                  f"oracle={b[c].dtype}")
            a[c] = a[c].astype(np.float64)
        elif kb in "iu" and ka == "f":
            print(f"[DTYPE    ] {name}.{c}: ray={a[c].dtype} "
                  f"oracle={b[c].dtype}")
            b[c] = b[c].astype(np.float64)
    return a, b


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2:])
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = _time.time()
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"[FAIL-run ] {name}: {type(e).__name__}: {str(e)[:300]}")
            failures += 1
            continue
        t_ray = _time.time() - t0
        if name not in oracles:
            got = canon(got)
            print(f"[rows-only] {name}: {len(got)} rows, cols={list(got.columns)}")
            continue
        try:
            exp = con.sql(oracles[name]).df()
        except Exception as e:
            print(f"[FAIL-sql ] {name}: {type(e).__name__}: {str(e)[:300]}")
            failures += 1
            continue
        got, exp = harmonize(got.copy(), exp, name)
        got, exp = canon(got), canon(exp)
        if len(got) != len(exp):
            print(f"[FAIL-rows] {name}: ray={len(got)} oracle={len(exp)}")
            failures += 1
            continue
        if list(got.columns) != list(exp.columns):
            print(f"[FAIL-cols] {name}: ray={list(got.columns)} oracle={list(exp.columns)}")
            failures += 1
            continue
        ok = True
        for c in got.columns:
            a, b = got[c].to_numpy(), exp[c].to_numpy()
            eq = a == b
            if not eq.all():
                bad = np.flatnonzero(~eq)[:3]
                av, bv = a[bad][:3], b[bad][:3]
                if a.dtype == np.int64 and b.dtype == np.int64:
                    # int64 columns may be float bit patterns — show both
                    av = [f"{x}({x.view(np.float64)!r})" for x in av]
                    bv = [f"{x}({x.view(np.float64)!r})" for x in bv]
                print(f"[FAIL-vals] {name}.{c}: e.g. rows {bad.tolist()} "
                      f"ray={list(av)} oracle={list(bv)}")
                ok = False
        if ok:
            print(f"[OK       ] {name}: {len(got)} rows "
                  f"({t_ray:.2f}s ray-side)")
        else:
            failures += 1
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
