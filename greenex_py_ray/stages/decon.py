"""Benchmark decontamination: word-n-gram overlap anti-join.

The standard eval-set decontamination pass a training corpus runs before
any model sees it: every document sharing at least one word-n-gram with
a (small) benchmark set is flagged with the count of distinct shared
grams.  The benchmark side is tiny relative to the corpus, so the
physical plan is broadcast-not-shuffle:

1. driver materializes the benchmark docs (a filter over the same
   table — tiny), builds the distinct n-gram set once and ships it to
   the object store;
2. a :class:`~greenex_py_ray.functions.joins.KernelStage` re-hydrates
   the set into a pandas hash index in ``__init__`` (once per worker
   process, NOT per batch);
3. per batch: one explode+factorize, vectorized gram assembly on the
   flat token array, per-doc distinct via a (doc, gram) drop-duplicates,
   membership via hash-join ``Series.isin`` — no per-row Python.

At 100 TB the benchmark set (a few thousand eval docs → <10⁶ grams)
still fits comfortably in each worker; the corpus side streams.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.joins import KernelStage
from ..sidefiles import shipped, side_table
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
    """Kernel: per-doc count of distinct benchmark-shared
    n-grams.  Emits only contaminated rows ``(doc_id, n_shared)``."""

    def __init__(self, grams_ref, n: int):
        grams = side_table(grams_ref)
        # pandas hash index built once per kernel
        self.index = pd.Index(grams)
        self.n = int(n)
        self.key_col = "doc_id"
        self.text_col = "text"

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
                  n: int) -> "ray.data.Dataset":
    """Flag every doc in ``ds`` sharing ≥1 word-n-gram with
    ``benchmark_texts``; returns ``(doc_id, n_shared)`` rows for
    contaminated docs only."""
    return KernelStage(
        ContaminationTagger,
        dict(grams_ref=shipped(benchmark_gram_set(benchmark_texts, n)),
             n=n),
        dict(batch_format="pandas", num_cpus=0.5)).on(ds)
