"""Corpus-hygiene stages: PII redaction and repetition scoring.

Training-data operators a 100 TB document pipeline runs before anything
else touches the text:

* **PII redaction** — find/replace emails and phone-ish numbers with
  typed placeholder tokens and count what was removed.  Both Arrow and
  DuckDB compile the same RE2 patterns, so the DuckDB gate reproduces
  the redacted text exactly.  Fully Arrow-native
  (``replace_substring_regex`` / ``count_substring_regex``), zero-copy
  batches, no Python loop.

* **Repetition scoring** — Gopher-style duplicate-token fractions
  (``1 - distinct/total`` and most-common-token share) used to drop
  boilerplate / keyboard-mash documents.  One explode+factorize per
  batch (shared :func:`~greenex_py_ray.stages.text.explode_words`
  machinery), per-doc stats via bincount — no per-row Python.

Determinism: ratios are single IEEE divisions rounded to 6 decimals —
no accumulation-order ambiguity at all.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.joins import KernelStage, bucket_join_attach
from ..sidefiles import shipped, side_table
from .text import explode_words

#: RE2 patterns shared verbatim with the DuckDB oracle (both engines
#: compile RE2, so match semantics are identical).
EMAIL_RE = r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}"
PHONE_RE = r"\+?\d[\d\-]{7,}\d"
EMAIL_TOKEN = "<EMAIL>"
PHONE_TOKEN = "<PHONE>"


def pii_redact_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append ``n_emails``, ``n_phones``, ``red_text``.

    Emails are redacted FIRST, then phones are counted/redacted on the
    email-redacted text (so digit runs inside an address can't be
    double-counted) — the oracle mirrors the same two-pass order.
    """
    col = pc.fill_null(batch.column(text_col), "")
    n_emails = pc.count_substring_regex(col, EMAIL_RE)
    step1 = pc.replace_substring_regex(col, EMAIL_RE, EMAIL_TOKEN)
    n_phones = pc.count_substring_regex(step1, PHONE_RE)
    red = pc.replace_substring_regex(step1, PHONE_RE, PHONE_TOKEN)
    return (batch.append_column("n_emails", pc.cast(n_emails, pa.int64()))
            .append_column("n_phones", pc.cast(n_phones, pa.int64()))
            .append_column("red_text", red))


def normalize_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append ``norm_text`` (NFC unicode normalization + whitespace
    collapse + trim) and ``changed`` — the canonicalization pass every
    web-crawl corpus runs before hashing/dedup (decomposed accents and
    ragged whitespace otherwise defeat exact dedup).

    NFC goes through ``unicodedata`` (this Arrow build's
    ``utf8_normalize(form='NFC')`` reorders but does NOT compose —
    'e'+U+0301 stays decomposed); collapse/trim stay Arrow-RE2 so the
    DuckDB twin ``trim(regexp_replace(nfc_normalize(t), '\\s+', ' ',
    'g'))`` matches byte-for-byte (RE2 ``\\s`` is ASCII in both)."""
    import unicodedata

    col = pc.fill_null(batch.column(text_col), "")
    nfc = pa.array([unicodedata.normalize("NFC", s)
                    for s in col.to_pylist()], pa.string())
    norm = pc.utf8_trim_whitespace(
        pc.replace_substring_regex(nfc, r"\s+", " "))
    changed = pc.invert(pc.equal(norm, col))
    return (batch.append_column("norm_text", norm)
            .append_column("changed", changed))


def repetition_batch(batch: pd.DataFrame,
                     text_col: str = "text") -> pd.DataFrame:
    """Append ``n_tokens``, ``n_distinct``, ``dup_frac``, ``top_frac``.

    ``dup_frac = round(1 - n_distinct/n_tokens, 6)`` and
    ``top_frac = round(max_token_count/n_tokens, 6)`` (both 0 for empty
    docs) over lowercased ``[a-zA-Z']+`` word tokens — the Gopher
    repetition-filter signals.
    """
    n, counts, parent, codes, uniq = explode_words(batch[text_col])
    n_tokens = counts
    n_distinct = np.zeros(n, dtype=np.int64)
    top = np.zeros(n, dtype=np.int64)
    if len(codes):
        v = len(uniq)
        pair = parent.astype(np.int64) * v + codes
        upair, pair_counts = np.unique(pair, return_counts=True)
        udoc = upair // v
        np.add.at(n_distinct, udoc, 1)
        np.maximum.at(top, udoc, pair_counts)
    denom = np.maximum(1, n_tokens).astype(np.float64)
    batch = batch.copy()
    batch["n_tokens"] = n_tokens
    batch["n_distinct"] = n_distinct
    batch["dup_frac"] = np.where(
        n_tokens > 0, np.round(1.0 - n_distinct / denom, 6), 0.0)
    batch["top_frac"] = np.where(
        n_tokens > 0, np.round(top / denom, 6), 0.0)
    return batch


# ---------------------------------------------------------------------------
# Frequent-line removal (C4-style boilerplate dedup)
# ---------------------------------------------------------------------------

def _line_token_structure(col, width: int):
    """Split ``col`` into space-separated tokens and group consecutive
    runs of ``width`` tokens into lines.  Returns ``(tok_values,
    tok_parent, line_hash, line_parent, line_gid_of_token, n_docs)``
    — all vectorized (Arrow split + buffer hashing + cumsum), no
    per-row Python."""
    from .text import _poly_hash_segments, hash_string_array

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    tok = pc.split_pattern(pc.fill_null(col, ""), " ")
    if isinstance(tok, pa.ChunkedArray):
        tok = tok.combine_chunks()
    loff = np.asarray(tok.offsets, dtype=np.int64)
    counts = np.diff(loff)
    n_docs = len(counts)
    total = int(loff[-1] - loff[0])
    vals = tok.values
    h_tok = hash_string_array(vals)

    parent = np.repeat(np.arange(n_docs, dtype=np.int64), counts)
    pos = np.arange(total, dtype=np.int64) - np.repeat(loff[:-1] - loff[0], counts)
    new_line = (pos % width) == 0
    line_gid = np.cumsum(new_line) - 1
    starts = np.flatnonzero(new_line).astype(np.int64)
    line_offsets = np.append(starts, total)
    # line hash = polynomial combine of its token hashes, in order —
    # the same Horner family as the byte-level hash, applied one level
    # up (token hashes as the "bytes")
    h_line = _poly_hash_segments(h_tok, line_offsets)
    line_parent = parent[starts] if total else np.empty(0, np.int64)
    return vals, parent, h_line, line_parent, line_gid, n_docs


def line_freq_partial(batch: pa.Table, width: int = 3,
                      text_col: str = "text") -> pa.Table:
    """Pass 1 partial: (line_hash → distinct docs in this batch).  Rows
    never split across batches, so per-batch distinct-doc counts sum to
    the global distinct-doc count."""
    _, _, h_line, line_parent, _, _ = _line_token_structure(
        batch.column(text_col), width)
    order = np.lexsort((line_parent, h_line))
    hs, ps = h_line[order], line_parent[order]
    first = np.ones(len(hs), dtype=bool)
    first[1:] = (hs[1:] != hs[:-1]) | (ps[1:] != ps[:-1])
    uh, cnt = np.unique(hs[first], return_counts=True)
    return pa.table({"lh": pa.array(uh.view(np.int64)),
                     "n": pa.array(cnt.astype(np.int64))})


class LineFilter:
    """Pass 2 kernel: drop every line whose hash is in the banned set
    (broadcast as a sorted int64 array — boilerplate sets stay small
    even at corpus scale; a bucket-join variant would co-locate on the
    line hash if the set ever outgrew the object store).

    Output: key + ``clean_text`` (kept lines re-joined), ``n_lines``,
    ``n_removed``."""

    def __init__(self, banned_ref, width: int = 3, key_col: str = "doc_id",
                 text_col: str = "text"):
        self.banned = np.sort(np.asarray(side_table(banned_ref),
                                         dtype=np.uint64))
        self.width = width
        self.key_col = key_col
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        vals, parent, h_line, line_parent, line_gid, n = \
            _line_token_structure(batch.column(self.text_col), self.width)
        if len(self.banned):
            idx = np.searchsorted(self.banned, h_line)
            np.clip(idx, 0, len(self.banned) - 1, out=idx)
            line_banned = self.banned[idx] == h_line
        else:
            line_banned = np.zeros(len(h_line), dtype=bool)
        tok_keep = ~line_banned[line_gid] if len(line_gid) else \
            np.empty(0, dtype=bool)

        kept_vals = vals.filter(pa.array(tok_keep))
        kept_counts = np.bincount(parent[tok_keep], minlength=n)
        offs = np.concatenate(([0], np.cumsum(kept_counts))).astype(np.int32)
        clean = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(offs, pa.int32()), kept_vals),
            " ")
        n_lines = np.bincount(line_parent, minlength=n)
        n_removed = np.bincount(line_parent[line_banned], minlength=n)
        return pa.table({
            self.key_col: batch.column(self.key_col),
            "clean_text": clean,
            "n_lines": pa.array(n_lines.astype(np.int64)),
            "n_removed": pa.array(n_removed.astype(np.int64)),
        })


def line_dedup(ds: "ray.data.Dataset", width: int = 3, min_docs: int = 4,
               key_col: str = "doc_id",
               text_col: str = "text") -> "ray.data.Dataset":
    """C4-style frequent-line removal: lines (runs of ``width`` tokens)
    that occur in ``>= min_docs`` distinct documents are boilerplate and
    are dropped from every document.

    Scale shape: pass 1 collapses each batch to distinct (line, doc)
    partials, so the groupby ships O(distinct lines per batch); the
    banned set (frequency >= threshold) is tiny by construction and is
    shipped once to the object store for the pass-2 rewrite."""
    from ray.data.aggregate import Sum

    freq = (ds.map_batches(
                lambda b: line_freq_partial(b, width, text_col),
                batch_format="pyarrow", zero_copy_batch=True)
            .groupby("lh").aggregate(Sum("n", alias_name="n")))
    banned_tbl = (freq.map_batches(
        lambda b: b.filter(pc.greater_equal(b.column("n"), min_docs)),
        batch_format="pyarrow", zero_copy_batch=True).to_pandas())
    banned = banned_tbl["lh"].to_numpy(dtype=np.int64).view(np.uint64)
    return KernelStage(
        LineFilter,
        dict(banned_ref=shipped(banned), width=width, key_col=key_col,
             text_col=text_col),
        dict(num_cpus=0.5)).on(ds)


# ---------------------------------------------------------------------------
# Composed quality filter chain
# ---------------------------------------------------------------------------

#: (bit, human label) of each drop rule — the reason bitmask a corpus
#: curation run stores next to every rejected document.
FILTER_RULES = (
    (1, "too_short"),          # whitespace tokens < min_tokens
    (2, "no_stopwords"),       # en stopword ratio below floor
    (4, "repetitive"),         # Gopher dup-token fraction too high
    (8, "one_token_dominates"),  # most-common-token share too high
    (16, "low_entropy"),       # per-token entropy below floor (µnats)
)


def filter_chain_batch(batch: pa.Table, min_tokens: int = 15,
                       min_stopword_ratio: float = 0.02,
                       max_dup_frac: float = 0.6,
                       max_top_frac: float = 0.14,
                       min_ent_micro_nats: int = 2_800_000,
                       text_col: str = "text",
                       key_col: str = "doc_id") -> pa.Table:
    """One-pass multi-signal corpus filter: composes the quality,
    repetition and token-entropy kernels over the same batch and emits
    a ``reasons`` bitmask (see :data:`FILTER_RULES`) + ``keep`` flag.

    Purely per-doc (all three kernels are shuffle-free); the entropy
    rule is an exact INTEGER comparison (``ent_q < floor·n_tokens``),
    so no float threshold wobble across engines."""
    from .text import quality_score_batch, token_entropy_batch

    q = quality_score_batch(batch, text_col)
    nt = q.column("q_n_tokens").to_numpy(zero_copy_only=False)
    sw = q.column("q_stopword_ratio").to_numpy(zero_copy_only=False)

    rep = repetition_batch(
        batch.select([key_col, text_col]).to_pandas(), text_col)
    dup = rep["dup_frac"].to_numpy()
    top = rep["top_frac"].to_numpy()

    ent = token_entropy_batch(batch, text_col, key_col)
    eq = ent.column("ent_q").to_numpy(zero_copy_only=False)
    en = ent.column("n_tokens").to_numpy(zero_copy_only=False)

    reasons = np.zeros(len(batch), dtype=np.int64)
    reasons += np.where(nt < min_tokens, 1, 0)
    reasons += np.where(sw < min_stopword_ratio, 2, 0)
    reasons += np.where(dup > max_dup_frac, 4, 0)
    reasons += np.where(top > max_top_frac, 8, 0)
    reasons += np.where(eq < min_ent_micro_nats * en, 16, 0)
    return pa.table({
        key_col: batch.column(key_col),
        "reasons": pa.array(reasons),
        "keep": pa.array(reasons == 0),
    })


# ---------------------------------------------------------------------------
# Exact-substring duplicate windows (ExactSubstr-style dedup)
# ---------------------------------------------------------------------------

def _window_structure(col, width: int):
    """Sliding ``width``-token window hashes over every document in an
    Arrow string column.

    Tokenizes (``lower(trim(text))`` split on a single space — the SQL
    oracle's ``string_split`` twin), hashes every token with the
    engine-wide 64-bit polynomial family, then rolls a Horner combine
    across each ``width``-token window — one numpy pass per window slot,
    no per-row Python.  A window is valid only when it lies entirely
    inside one document (start/end token share a parent row).

    Returns ``(win_hash uint64[n_win], win_parent int64[n_win],
    n_windows_per_doc int64[n_docs])``.
    """
    from .text import FP_BASE, hash_string_array

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    norm = pc.utf8_lower(pc.utf8_trim_whitespace(pc.fill_null(col, "")))
    tok = pc.split_pattern(norm, " ")
    if isinstance(tok, pa.ChunkedArray):
        tok = tok.combine_chunks()
    loff = np.asarray(tok.offsets, dtype=np.int64)
    counts = np.diff(loff)
    n_docs = len(counts)
    total = int(loff[-1] - loff[0])
    # .values is the UNSLICED child array; slice it to the offset
    # window so token hashes stay aligned with parents when the
    # ListArray arrives sliced (loff[0] != 0) — ADVICE r4
    h_tok = hash_string_array(tok.values.slice(loff[0], total))
    parent = np.repeat(np.arange(n_docs, dtype=np.int64), counts)

    n_slots = total - width + 1
    if n_slots <= 0:
        return (np.empty(0, np.uint64), np.empty(0, np.int64),
                np.zeros(n_docs, np.int64))
    with np.errstate(over="ignore"):  # mod-2^64 wraparound is the hash
        acc = h_tok[:n_slots].copy()
        for j in range(1, width):
            acc = acc * FP_BASE + h_tok[j:j + n_slots]
    valid = parent[:n_slots] == parent[width - 1:width - 1 + n_slots]
    win_parent = parent[:n_slots][valid]
    n_win = np.bincount(win_parent, minlength=n_docs).astype(np.int64)
    return acc[valid], win_parent, n_win


def window_freq_partial(batch: pa.Table, width: int,
                        text_col: str = "text") -> pa.Table:
    """Pass-1 partial: distinct-document count per window hash within
    this batch (rows never split across batches, so per-batch distinct
    counts sum to the corpus distinct-doc count)."""
    wh, wp, _ = _window_structure(batch.column(text_col), width)
    order = np.lexsort((wp, wh))
    hs, ps = wh[order], wp[order]
    first = np.ones(len(hs), dtype=bool)
    first[1:] = (hs[1:] != hs[:-1]) | (ps[1:] != ps[:-1])
    uh, cnt = np.unique(hs[first], return_counts=True)
    return pa.table({"wh": pa.array(uh.view(np.int64)),
                     "n": pa.array(cnt.astype(np.int64))})


class DupWindowFlag:
    """Pass-2 kernel (broadcast path): per document, count window
    positions whose hash is in the duplicated-window set."""

    def __init__(self, dup_ref, width: int, key_col: str = "doc_id",
                 text_col: str = "text"):
        self.dup = np.sort(np.asarray(side_table(dup_ref), dtype=np.uint64))
        self.width = width
        self.key_col = key_col
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        wh, wp, n_win = _window_structure(batch.column(self.text_col),
                                          self.width)
        if len(self.dup) and len(wh):
            idx = np.searchsorted(self.dup, wh)
            np.clip(idx, 0, len(self.dup) - 1, out=idx)
            member = self.dup[idx] == wh
        else:
            member = np.zeros(len(wh), dtype=bool)
        n_dup = np.bincount(wp[member], minlength=len(batch)).astype(np.int64)
        return pa.table({
            self.key_col: batch.column(self.key_col),
            "n_windows": pa.array(n_win),
            "n_dup": pa.array(n_dup),
            "keep": pa.array(n_dup == 0),
        })


def dup_window_flags(ds: "ray.data.Dataset", width: int = 8,
                     min_docs: int = 2, key_col: str = "doc_id",
                     text_col: str = "text",
                     max_broadcast: int = 2_000_000,
                     num_partitions: int = 16) -> "ray.data.Dataset":
    """ExactSubstr-style duplicate-window detection (Lee et al. 2022,
    "Deduplicating Training Data Makes Language Models Better"): every
    sliding run of ``width`` tokens that appears in ``>= min_docs``
    distinct documents corpus-wide marks its positions as duplicated;
    per document we report how many of its windows are duplicated and a
    ``keep`` flag (no duplicated window at all).

    Differs from :func:`line_dedup` (C4 fixed-stride lines) in being a
    *sliding* window — the reference operator for exact substring
    training-data dedup.

    Scale shape: pass 1 collapses each batch to distinct (window, doc)
    partials before the single O(distinct windows) groupby.  The
    duplicated-window set is delivered two ways: shipped to the object
    store when it fits (``<= max_broadcast`` keys — 16 MB/M keys),
    else a bucket-exchange semi join of per-doc window partials against
    the dup-key table, followed by an O(docs) left-outer count join — no
    driver text materialization on either path."""
    from ray.data.aggregate import Sum

    freq = (ds.map_batches(
                lambda b: window_freq_partial(b, width, text_col),
                batch_format="pyarrow", zero_copy_batch=True)
            .groupby("wh").aggregate(Sum("n", alias_name="n")))
    dup_keys = freq.map_batches(
        lambda b: b.filter(pc.greater_equal(b.column("n"), min_docs))
                   .select(["wh"]),
        batch_format="pyarrow", zero_copy_batch=True)
    n_dup_keys = dup_keys.count()

    if n_dup_keys <= max_broadcast:
        dup = (dup_keys.to_pandas()["wh"].to_numpy(dtype=np.int64)
               .view(np.uint64) if n_dup_keys else
               np.empty(0, np.uint64))
        return KernelStage(
            DupWindowFlag,
            dict(dup_ref=shipped(dup), width=width, key_col=key_col,
                 text_col=text_col),
            dict(num_cpus=0.5)).on(ds)

    # Scale path: ship per-doc window partials through a semi join on
    # the window hash instead of broadcasting the dup set.
    def win_partial(batch: pa.Table) -> pa.Table:
        wh, wp, _ = _window_structure(batch.column(text_col), width)
        order = np.lexsort((wp, wh))
        hs, ps = wh[order], wp[order]
        first = np.ones(len(hs), dtype=bool)
        first[1:] = (hs[1:] != hs[:-1]) | (ps[1:] != ps[:-1])
        starts = np.flatnonzero(first)
        k = np.diff(np.append(starts, len(hs)))
        doc_ids = batch.column(key_col).to_numpy(zero_copy_only=False)
        return pa.table({
            "wh": pa.array(hs[starts].view(np.int64)),
            key_col: pa.array(doc_ids[ps[starts]]),
            "k": pa.array(k.astype(np.int64)),
        })

    def base_counts(batch: pa.Table) -> pa.Table:
        _, _, n_win = _window_structure(batch.column(text_col), width)
        return pa.table({key_col: batch.column(key_col),
                         "n_windows": pa.array(n_win)})

    hits = (bucket_join_attach(
                ds.map_batches(win_partial, batch_format="pyarrow",
                               zero_copy_batch=True),
                dup_keys, key="wh", num_buckets=num_partitions, how="semi")
            .groupby(key_col).aggregate(Sum("k", alias_name="n_dup")))
    base = ds.map_batches(base_counts, batch_format="pyarrow",
                          zero_copy_batch=True)
    # both schemas are known: probing the lazy `hits` would run its join
    sch = ds.schema()
    kf = pa.field(key_col, sch.types[sch.names.index(key_col)])
    joined = bucket_join_attach(
        base, hits, key=key_col, num_buckets=num_partitions,
        left_fields=[kf, pa.field("n_windows", pa.int64())],
        right_fields=[kf, pa.field("n_dup", pa.int64())], how="left_outer")

    def finish(batch: pa.Table) -> pa.Table:
        nd = pc.fill_null(batch.column("n_dup"), 0)
        return pa.table({
            key_col: batch.column(key_col),
            "n_windows": batch.column("n_windows"),
            "n_dup": nd,
            "keep": pc.equal(nd, 0),
        })

    return joined.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)
