"""Unigram language-model scoring: corpus-fit logprob per document.

The cheap data-quality signal between heuristics and a real LM: fit a
unigram model on the corpus itself (one bounded-shuffle count pass),
then score every document by its summed token log-probability.  Docs
full of rare / mangled tokens score low; boilerplate scores high.

Physical plan:

1. **vocab pass** — per-batch ``explode_words`` + bincount collapses
   each batch to (word, partial count); ``groupby(word)`` merges —
   shuffle payload is O(vocab), not O(tokens).  The driver pulls the
   merged vocab (optionally capped to the ``max_vocab`` most frequent
   words — the 100 TB path; rare words collapse to one OOV weight) and
   quantizes each word's ``ln(c / T)`` to int64 micro-nats, making the
   per-doc sum order-independent and hash-exact across engines.
2. **score pass** — vocab ships once to the object store; each batch
   does one explode + ``pd.Index.get_indexer`` hash join + ``np.add.at``
   per-doc sum.  No shuffle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ray.data.aggregate import Sum

from ..functions.joins import KernelStage
from ..sidefiles import shipped, side_table
from .text import explode_words

#: logprob quantization: micro-nats (int64) — order-independent sums
LOGP_Q = 1e6


def _vocab_partial(batch: pd.DataFrame, text_col: str) -> pd.DataFrame:
    _, _, _, codes, uniq = explode_words(batch[text_col])
    if not len(codes):
        return pd.DataFrame({"word": np.empty(0, object),
                             "c": np.empty(0, np.int64)})
    counts = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
    return pd.DataFrame({"word": uniq, "c": counts})


def fit_unigram(ds: "ray.data.Dataset", text_col: str = "text",
                max_vocab: int | None = None) -> tuple[pd.Index, np.ndarray, int]:
    """(vocab index, int64 micro-nat logprobs, oov weight) from one
    count pass.  With ``max_vocab`` the tail collapses to an OOV weight
    ``round(ln(0.5 / T) * 1e6)`` (the scale path — vocab stays bounded
    no matter the corpus)."""
    part = ds.map_batches(lambda b: _vocab_partial(b, text_col),
                          batch_format="pandas")
    merged = part.groupby("word").aggregate(Sum("c", alias_name="c"))
    tbl = merged.to_pandas()
    total = float(tbl["c"].sum())
    if max_vocab is not None and len(tbl) > max_vocab:
        tbl = tbl.sort_values(["c", "word"], ascending=[False, True],
                              kind="mergesort").head(max_vocab)
    w_q = np.round(np.log(tbl["c"].to_numpy(np.float64) / total)
                   * LOGP_Q).astype(np.int64)
    oov_q = int(np.round(np.log(0.5 / total) * LOGP_Q)) if total else 0
    return pd.Index(tbl["word"]), w_q, oov_q


class UnigramScorer:
    """Kernel: per-doc summed quantized logprob from the
    broadcast vocab.  Appends ``n_words`` and ``sum_logp_q``."""

    def __init__(self, vocab_ref, key_col: str = "doc_id",
                 text_col: str = "text"):
        self.vocab, self.w_q, self.oov_q = side_table(vocab_ref)
        self.key_col = key_col
        self.text_col = text_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        n, counts, parent, codes, uniq = explode_words(batch[self.text_col])
        n_words = counts
        sums = np.zeros(n, dtype=np.int64)
        if len(codes):
            # hash-join the (small) batch vocabulary against the model
            idx = self.vocab.get_indexer(uniq)
            w = np.where(idx >= 0, self.w_q[np.maximum(idx, 0)], self.oov_q)
            np.add.at(sums, parent, w[codes])
        return pd.DataFrame({
            self.key_col: batch[self.key_col].to_numpy(),
            "n_words": n_words,
            "sum_logp_q": sums,
        })


def unigram_logprob(ds: "ray.data.Dataset", key_col: str = "doc_id",
                    text_col: str = "text",
                    max_vocab: int | None = None) -> "ray.data.Dataset":
    """Two-pass corpus-fit unigram scoring (see module docstring)."""
    return KernelStage(
        UnigramScorer,
        dict(vocab_ref=shipped(fit_unigram(ds, text_col, max_vocab)),
             key_col=key_col, text_col=text_col),
        dict(batch_format="pandas", num_cpus=0.5)).on(ds)
