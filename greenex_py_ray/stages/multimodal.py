"""Media-span operators over the interleaved documents.

The documents carry ``kind="media"`` spans whose ``media_ref`` points
into a blob store (``tile://band/tix_tiy`` for raster tiles,
``img://id`` for imagery).  These operators read the span metadata
only: the media reference rollup, the span-sequence fingerprint, the
text-only span compaction and the video frame-sampling plan.  No media
payload is fetched or decoded.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..functions.exchange import bucket_exchange


def extract_media_refs_batch(batch: pa.Table) -> pa.Table:
    """documents → (doc_id, media_ref) rows for every media span
    (vectorized list-column flatten, no python row loop)."""
    import pyarrow.compute as pc

    spans = batch.column("spans")
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = spans.flatten()
    offsets = spans.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    is_media = np.asarray(pc.equal(flat.field("kind"), "media").to_numpy(
        zero_copy_only=False), dtype=bool)
    pos = np.flatnonzero(is_media)
    parents = np.searchsorted(offsets, pos, side="right") - 1
    return pa.table(
        {
            "doc_id": batch.column("doc_id").take(pa.array(parents)),
            "media_ref": flat.field("media_ref").take(pa.array(pos)),
        }
    )


def media_ref_rollup(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per-media-asset reference rollup over the interleaved spans
    schema: explode media spans (vectorized flatten), parse the tile
    coordinates out of each ``tile://band/tx_ty`` ref, and emit one
    row per asset with its span count and distinct referencing-doc
    count.  Tiles hash-bucket so the single shuffle is integer-keyed
    with 16 groups; the per-bucket kernel dedups
    (doc, asset) pairs globally (a bucket sees every row of its
    assets).  The asset manifest a media-dedup / retrieval stage
    plans from at 100 TB."""
    import pandas as pd
    import pyarrow.compute as pc

    def parse(batch: pa.Table) -> pa.Table:
        refs = extract_media_refs_batch(batch)
        m = pc.extract_regex(
            refs.column("media_ref"),
            r"tile://(?P<band>[a-z]+)/(?P<tx>\d+)_(?P<ty>\d+)")
        if isinstance(m, pa.ChunkedArray):
            m = m.combine_chunks()
        valid = pc.is_valid(m)
        keep = np.flatnonzero(np.asarray(valid.to_numpy(
            zero_copy_only=False), dtype=bool))
        m = m.take(pa.array(keep))
        tx = pc.cast(m.field("tx"), pa.int64())
        ty = pc.cast(m.field("ty"), pa.int64())
        # per-batch (doc, asset) dedup shrinks the shuffle payload
        df = pd.DataFrame({
            "doc_id": refs.column("doc_id").take(
                pa.array(keep)).to_pandas(),
            "band": m.field("band").to_pandas(),
            "tx": tx.to_numpy(zero_copy_only=False),
            "ty": ty.to_numpy(zero_copy_only=False),
            "n": 1,
        })
        g = (df.groupby(["band", "tx", "ty", "doc_id"],
                        sort=False)["n"].sum().reset_index())
        return pa.Table.from_pandas(g, preserve_index=False)

    def kernel(grp: "pd.DataFrame") -> "pd.DataFrame":
        a = grp.groupby(["band", "tx", "ty"], sort=False).agg(
            n_spans=("n", "sum"), n_docs=("doc_id", "nunique"))
        a = a.reset_index()
        a["n_spans"] = a["n_spans"].astype(np.int64)
        a["n_docs"] = a["n_docs"].astype(np.int64)
        return a

    return bucket_exchange(
        ds.map_batches(parse, batch_format="pyarrow", zero_copy_batch=True),
        ["tx", "ty"], kernel, 16, "pandas")


def span_fingerprint_batch(batch: pa.Table) -> pa.Table:
    """Order-sensitive fingerprint of each document's FULL span
    sequence — the per-row invariant the north rule pins against the
    reference ("span-sequence equality: kind, text, media_ref, order").

    Every span is serialized ``kind␟text␟media_ref␞`` (unit/record
    separators, unambiguous for any field values not containing them)
    and the concatenation is hashed with the engine-wide 64-bit Horner
    family — two pipelines that preserve span sequences produce equal
    fingerprints, any reorder/drop/mutation flips them.  All Arrow
    kernels (struct field extract → element-wise join → list join →
    buffer hash); no per-row Python."""
    from .text import hash_string_array

    spans = batch.column("spans")
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = spans.flatten()
    per_span = pc.binary_join_element_wise(
        pc.fill_null(flat.field("kind"), ""),
        pc.fill_null(flat.field("text"), ""),
        pc.fill_null(flat.field("media_ref"), ""),
        "\x1f")
    per_span = pc.binary_join_element_wise(per_span, "", "\x1e")
    counts = pc.list_value_length(spans).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    offs = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    doc_str = pc.binary_join(
        pa.ListArray.from_arrays(pa.array(offs, pa.int32()),
                                 per_span.combine_chunks()
                                 if isinstance(per_span, pa.ChunkedArray)
                                 else per_span), "")
    fp = hash_string_array(doc_str)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "n_spans": pa.array(counts),
        "span_fp": pa.array(fp.view(np.int64)),
    })


def compact_text_spans_batch(batch: pa.Table) -> pa.Table:
    """Text-only span compaction: drop every non-``text`` span from the
    interleaved sequence, PRESERVING the relative order of the kept
    spans, and fingerprint the compacted sequence with the same
    ``kind␟text␟media_ref␞`` Horner encoding as
    :func:`span_fingerprint_batch` — the "strip media for text-only
    training" projection, with the north rule's order invariant
    checkable on the output.  Emits every input doc (a doc with no
    text spans keeps the empty-sequence fingerprint = the Horner
    basis).  All Arrow kernels + cumsum segment arithmetic; no per-row
    Python."""
    from .text import hash_string_array

    spans = batch.column("spans")
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = spans.flatten()
    kind = pc.fill_null(flat.field("kind"), "")
    keep = pc.equal(kind, "text")
    per_span = pc.binary_join_element_wise(
        kind,
        pc.fill_null(flat.field("text"), ""),
        pc.fill_null(flat.field("media_ref"), ""),
        "\x1f")
    per_span = pc.binary_join_element_wise(per_span, "", "\x1e")
    kept_span = per_span.filter(keep)
    counts = pc.list_value_length(spans).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    offs = np.concatenate(([0], np.cumsum(counts)))
    km = keep.to_numpy(zero_copy_only=False).astype(np.int64)
    cm = np.concatenate(([0], np.cumsum(km)))
    n_kept = cm[offs[1:]] - cm[offs[:-1]]
    new_offs = np.concatenate(([0], np.cumsum(n_kept))).astype(np.int32)
    doc_str = pc.binary_join(
        pa.ListArray.from_arrays(pa.array(new_offs, pa.int32()),
                                 kept_span.combine_chunks()
                                 if isinstance(kept_span, pa.ChunkedArray)
                                 else kept_span), "")
    fp = hash_string_array(doc_str)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "n_kept": pa.array(n_kept),
        "n_dropped": pa.array(counts - n_kept),
        "text_fp": pa.array(fp.view(np.int64)),
    })


def frame_sample_plan(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Video frame-sampling schedule per distinct media asset.

    No video is decoded; the *plan* — which frames a sampler would
    pull — is computed from the spans: explode ``kind='media'`` spans,
    reduce to distinct ``tile://band/tx_ty`` assets (pre-deduped per
    batch so the shuffle carries O(#assets) rows), derive a
    deterministic pseudo-duration ``n_frames = (7·tx + 13·ty) mod 290 +
    10``, and emit the k
    evenly-spaced frame indices ``floor(j·n_frames/k)`` every sampler
    uses (n_frames ≥ 10 ≥ k keeps them strictly increasing).

    Output: (band, tx, ty, n_frames, frame_idx) — one row per sampled
    frame.
    """
    k = 8  # frames per asset
    refs = ds.map_batches(extract_media_refs_batch, batch_format="pyarrow",
                          zero_copy_batch=True)

    def parse_dedup(batch: pa.Table) -> pa.Table:
        import pandas as pd

        s = batch.column("media_ref").to_pandas()
        m = s.str.extract(r"tile://([a-z]+)/(\d+)_(\d+)")
        ok = m[0].notna()
        df = pd.DataFrame({
            "band": m[0][ok],
            "tx": m[1][ok].astype(np.int64),
            "ty": m[2][ok].astype(np.int64),
        }).drop_duplicates()
        # no pandas metadata: the groupby's block unify cannot hash it
        return pa.Table.from_pandas(
            df, preserve_index=False).replace_schema_metadata()

    assets = (refs.map_batches(parse_dedup, batch_format="pyarrow")
              .groupby(["band", "tx", "ty"]).count())

    def plan(batch: pa.Table) -> pa.Table:
        tx = batch.column("tx").to_numpy(zero_copy_only=False)
        ty = batch.column("ty").to_numpy(zero_copy_only=False)
        nf = (7 * tx + 13 * ty) % 290 + 10
        j = np.tile(np.arange(k, dtype=np.int64), len(tx))
        rep = np.repeat(np.arange(len(tx)), k)
        return pa.table({
            "band": batch.column("band").take(pa.array(rep)),
            "tx": pa.array(tx[rep]), "ty": pa.array(ty[rep]),
            "n_frames": pa.array(nf[rep]),
            "frame_idx": pa.array(j * nf[rep] // k),
        })

    return assets.map_batches(plan, batch_format="pyarrow",
                              zero_copy_batch=True)
