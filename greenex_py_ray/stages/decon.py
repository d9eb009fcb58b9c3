"""Benchmark decontamination: word-n-gram overlap anti-join.

The standard eval-set decontamination pass a training corpus runs before
any model sees it: every document sharing at least one word-n-gram with
a (small) benchmark set is flagged with the count of distinct shared
grams.  The benchmark side is tiny relative to the corpus, so the
physical plan is broadcast-not-shuffle:

1. driver materializes the benchmark docs (a filter over the same
   table — tiny), builds the distinct n-gram set once, ``ray.put``;
2. an actor pool re-hydrates the set into a pandas hash index in
   ``__init__`` (once per actor, NOT per batch);
3. per batch: one explode+factorize, vectorized gram assembly on the
   flat token array, per-doc distinct via a (doc, gram) drop-duplicates,
   membership via hash-join ``Series.isin`` — no per-row Python.

At 100 TB the benchmark set (a few thousand eval docs → <10⁶ grams)
still fits comfortably in each actor; the corpus side streams.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from ..sidefiles import side_table
from .text import explode_words


def ngram_strings(texts: "pd.Series", n: int) -> tuple[np.ndarray, np.ndarray]:
    """(parent_row_idx, gram_string) arrays of all word-n-grams, in
    document order.  Lowercased ``[a-zA-Z']+`` tokens joined by single
    spaces — matches ``regexp_extract_all(lower(text), '[a-z'']+')``
    in the oracle."""
    _, counts, parent, codes, uniq = explode_words(texts)
    if len(codes) < n:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=object))
    flat = uniq[codes]
    valid = parent[: len(parent) - n + 1] == parent[n - 1:]
    gram = flat[: len(flat) - n + 1].copy()
    for j in range(1, n):
        gram = gram + " "
        gram = gram + flat[j: len(flat) - n + 1 + j]
    return parent[: len(parent) - n + 1][valid], gram[valid]


def benchmark_gram_set(texts: "pd.Series", n: int) -> np.ndarray:
    """Distinct n-gram strings of the benchmark docs (driver-side,
    benchmark is small by construction)."""
    _, grams = ngram_strings(texts, n)
    return pd.unique(pd.Series(grams, dtype=object)) if len(grams) else \
        np.empty(0, dtype=object)


class ContaminationTagger:
    """map_batches actor: per-doc count of distinct benchmark-shared
    n-grams.  Emits only contaminated rows ``(doc_id, n_shared)``."""

    def __init__(self, grams_ref, n: int, key_col: str = "doc_id",
                 text_col: str = "text"):
        grams = side_table(grams_ref)
        # pandas hash index built once per actor
        self.index = pd.Index(grams)
        self.n = int(n)
        self.key_col = key_col
        self.text_col = text_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        parent, grams = ngram_strings(batch[self.text_col], self.n)
        keys = batch[self.key_col].to_numpy()
        if not len(grams):
            return pd.DataFrame({self.key_col: keys[:0],
                                 "n_shared": np.empty(0, np.int64)})
        df = pd.DataFrame({"p": parent, "g": grams}).drop_duplicates()
        hit = df[df["g"].isin(self.index)]
        agg = hit.groupby("p").size()
        return pd.DataFrame({
            self.key_col: keys[agg.index.to_numpy()],
            "n_shared": agg.to_numpy(np.int64),
        })


def decontaminate(ds: "ray.data.Dataset", benchmark_texts: "pd.Series",
                  n: int, key_col: str = "doc_id",
                  text_col: str = "text") -> "ray.data.Dataset":
    """Flag every doc in ``ds`` sharing ≥1 word-n-gram with
    ``benchmark_texts``; returns ``(key_col, n_shared)`` rows for
    contaminated docs only."""
    grams_ref = ray.put(benchmark_gram_set(benchmark_texts, n))
    return ds.map_batches(
        ContaminationTagger,
        fn_constructor_kwargs=dict(grams_ref=grams_ref, n=n,
                                   key_col=key_col, text_col=text_col),
        batch_format="pandas", concurrency=(1, 8), num_cpus=0.5,
    )
