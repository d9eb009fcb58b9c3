"""TF-IDF query scoring (training-data op: lexical relevance ranking
for corpus curation and retrieval-style filtering).

Scale design: document frequencies AND the corpus size are computed in
ONE pass — each batch collapses to at most ``len(query)`` partial
(term, df, nd) rows before anything shuffles, so the DF aggregation
moves O(#query terms × #batches) rows no matter the corpus size; the
resulting {term: weight} map is tiny and rides into the scoring kernel
as a constructor argument; scoring + global top-k run as a per-batch
partial-top-k scan (``stages/topk``), never a full sort.  Tokenization
is :func:`~greenex_py_ray.stages.text.explode_words` — the SAME
machinery as LangId, so the langid-proven SQL tokenization oracle
covers this stage too.

Weights are smoothed sklearn-style idf, **quantized to 1e-6 and held
as integers** (``w = round((ln((N+1)/(df+1)) + 1) · 1e6)``): scores
are then exact BIGINT sums (``Σ tf·w``), so the ranking is
bit-deterministic across engines — a float Σ tf·idf could flip the
order of mathematically-tied documents on summation order alone.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data
from ray.data.aggregate import Sum

from ..functions.joins import KernelStage
from .text import explode_words


def term_frequencies(batch: pd.DataFrame, terms,
                     text_col: str = "text") -> np.ndarray:
    """(n_rows, len(terms)) per-doc term counts, vectorized."""
    n, _, parent, codes, uniq = explode_words(batch[text_col])
    tf = np.zeros((n, len(terms)), dtype=np.int64)
    for j, t in enumerate(terms):
        member = uniq == t
        if len(codes):
            np.add.at(tf[:, j], parent, member[codes].astype(np.int64))
    return tf


def query_term_weights(ds: "ray.data.Dataset",
                       terms: "tuple[str, ...]") -> "dict[str, int]":
    """{term: quantized idf weight} for the query terms only — df and
    the corpus size ``n`` aggregate in the same single pass (``nd`` is
    the batch row count on the first term row, 0 elsewhere)."""
    terms = tuple(terms)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        tf = term_frequencies(batch, terms)
        nd = np.zeros(len(terms), dtype=np.int64)
        nd[0] = len(batch)
        return pd.DataFrame({"term": list(terms),
                             "df": (tf > 0).sum(axis=0).astype(np.int64),
                             "nd": nd})

    rows = (ds.map_batches(partial, batch_format="pandas")
            .groupby("term").aggregate(Sum("df", alias_name="df"),
                                       Sum("nd", alias_name="nd"))
            .take_all())
    df = {r["term"]: int(r["df"]) for r in rows}
    n_docs = sum(int(r["nd"]) for r in rows)
    return {t: int(round(round(
        np.log((n_docs + 1.0) / (df.get(t, 0) + 1.0)) + 1.0, 6) * 1e6))
        for t in terms}


class QueryScorer:
    """Kernel: the integer TF-IDF score for ONE query."""

    def __init__(self, weights: "dict[str, int]"):
        self.weights = dict(weights)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        terms = list(self.weights)
        tf = term_frequencies(batch, terms)
        w = np.array([self.weights[t] for t in terms], dtype=np.int64)
        return pd.DataFrame({"doc_id": batch["doc_id"],
                             "score_q6": tf @ w})


def tfidf_topk(ds: "ray.data.Dataset", terms: "tuple[str, ...]", k: int,
               key_col: str = "doc_id") -> "ray.data.Dataset":
    """Global top-k documents by quantized TF-IDF score against a fixed
    term query; ties broken by ``key_col``.  ``ds`` needs (key, text)
    and is executed twice (weights pass + scoring pass) — inherent to
    TF-IDF, not three times (no separate count pass)."""
    from .topk import topk_per_group

    weights = query_term_weights(ds, terms)
    scored = KernelStage(QueryScorer, dict(weights=weights),
                         dict(batch_format="pandas", num_cpus=0.25)).on(ds)

    def tag(b: pa.Table) -> pa.Table:
        return b.append_column("g", pa.array(np.zeros(len(b), np.int64)))

    tagged = scored.map_batches(tag, batch_format="pyarrow",
                                zero_copy_batch=True)
    out = topk_per_group(tagged, "g", "score_q6", k, key_col)
    return out.select_columns([key_col, "score_q6", "rank"])


def bm25_stats(ds: "ray.data.Dataset",
               terms: "tuple[str, ...]") -> "tuple[dict, float, int]":
    """({term: df}, avgdl, n_docs) in ONE aggregation pass: each batch
    collapses to ≤len(terms) rows carrying per-term dfs plus (on the
    first row only) the batch's row count and total word count."""
    terms = tuple(terms)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        n, counts, _, _, _ = explode_words(batch["text"])
        tf = term_frequencies(batch, terms)
        nd = np.zeros(len(terms), dtype=np.int64)
        sdl = np.zeros(len(terms), dtype=np.int64)
        nd[0] = n
        sdl[0] = int(counts.sum())
        return pd.DataFrame({"term": list(terms),
                             "df": (tf > 0).sum(axis=0).astype(np.int64),
                             "nd": nd, "sdl": sdl})

    rows = (ds.map_batches(partial, batch_format="pandas")
            .groupby("term").aggregate(Sum("df", alias_name="df"),
                                       Sum("nd", alias_name="nd"),
                                       Sum("sdl", alias_name="sdl"))
            .take_all())
    df = {r["term"]: int(r["df"]) for r in rows}
    n_docs = sum(int(r["nd"]) for r in rows)
    sum_dl = sum(int(r["sdl"]) for r in rows)
    avgdl = sum_dl / n_docs if n_docs else 1.0
    return df, avgdl, n_docs


class BM25Scorer:
    """Kernel: Lucene-form BM25 against one fixed term query.

    ``score(d) = Σ_t ln((N − df + 0.5)/(df + 0.5) + 1)
                 · tf·(k1+1) / (tf + k1·(1 − b + b·dl/avgdl))``

    Emitted rounded to 6 decimals; the SQL oracle mirrors the exact
    arithmetic shape, and ranking uses the ROUNDED score (ties by key)
    so float summation order cannot flip the cross-engine order."""

    def __init__(self, terms, idf: np.ndarray, avgdl: float,
                 k1: float = 1.2, b: float = 0.75):
        self.terms = tuple(terms)
        self.idf = np.asarray(idf, dtype=np.float64)
        self.avgdl = float(avgdl)
        self.k1 = float(k1)
        self.b = float(b)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        n, counts, _, _, _ = explode_words(batch["text"])
        tf = term_frequencies(batch, self.terms).astype(np.float64)
        dl = counts.astype(np.float64)
        # keep the arithmetic shape EXACTLY as written in the oracle:
        # tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl))
        denom = tf + self.k1 * (1.0 - self.b
                                + self.b * dl[:, None] / self.avgdl)
        with np.errstate(invalid="ignore", divide="ignore"):
            part = np.where(tf > 0.0,
                            tf * (self.k1 + 1.0) / denom, 0.0)
        score = part @ self.idf
        return pd.DataFrame({"doc_id": batch["doc_id"],
                             "score_r6": np.round(score, 6)})


def bm25_topk(ds: "ray.data.Dataset", terms: "tuple[str, ...]", k: int,
              key_col: str = "doc_id", k1: float = 1.2,
              b: float = 0.75) -> "ray.data.Dataset":
    """Global top-k documents by BM25 against a fixed term query —
    same two-pass shape as :func:`tfidf_topk` (stats pass + scoring
    pass with a bounded partial top-k)."""
    from .topk import topk_per_group

    df, avgdl, n_docs = bm25_stats(ds, terms)
    idf = np.array([np.log((n_docs - df.get(t, 0) + 0.5)
                           / (df.get(t, 0) + 0.5) + 1.0)
                    for t in terms], dtype=np.float64)
    scored = KernelStage(
        BM25Scorer, dict(terms=terms, idf=idf, avgdl=avgdl, k1=k1, b=b),
        dict(batch_format="pandas", num_cpus=0.25)).on(ds)

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "g", pa.array(np.zeros(len(batch), np.int64)))

    tagged = scored.map_batches(tag, batch_format="pyarrow",
                                zero_copy_batch=True)
    out = topk_per_group(tagged, "g", "score_r6", k, key_col)
    return out.select_columns([key_col, "score_r6", "rank"])
