"""Multimodal (image/audio/video) column stages.

The interleaved documents carry ``kind="media"`` spans whose
``media_ref`` points into a blob store (``tile://band/tix_tiy`` for
raster tiles, ``img://id`` for imagery).  These stages treat media as
opaque ``binary`` columns with typed metadata and run decode /
feature-extract / resize / frame-sample as actor-pool ``map_batches``
stages.

The image/audio codec libraries are NOT in this container, so the codec
boundary is stubbed exactly as the task prescribes: ``DecodeImage`` with
``strict=True`` raises ``NotImplementedError`` at the decode call, and
the default deterministic fake produces a stable pseudo-image from the
payload bytes so the Ray-side plumbing (schema, batch size, actor
signature, output layout) is real and tested end-to-end.
"""

from __future__ import annotations

import hashlib

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


class FetchMedia:
    """Actor stage: media_ref → payload bytes (binary column).

    ``tile://`` refs resolve against the tile store parquet;
    ``img://`` refs synthesize a deterministic payload (the sandbox has
    no real blob store).  Payloads are opaque binary — large rows, so
    callers use a small ``batch_size``."""

    def __init__(self, tile_root: str | None = None):
        from ..state.tiles import TileStore

        self.store = TileStore(tile_root) if tile_root else None

    def _fetch(self, ref: str) -> bytes:
        if ref.startswith("tile://") and self.store is not None:
            _, _, rest = ref.partition("tile://")
            band, _, tile = rest.partition("/")
            tix, _, tiy = tile.partition("_")
            arr = self.store.get(band, int(tix), int(tiy))
            return arr.tobytes() if arr is not None else b""
        return hashlib.blake2b(ref.encode(), digest_size=32).digest() * 64

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs = batch.column("media_ref").to_pylist()
        return batch.append_column(
            "payload", pa.array([self._fetch(r) for r in refs], pa.binary())
        )


class DecodeImage:
    """Actor stage: payload bytes → decoded (H, W, 3) uint8 image.

    STUB: no image codec is available in this container.
    ``strict=True`` raises ``NotImplementedError`` (the marked codec
    boundary); the default fake decodes deterministically from the
    payload hash so downstream stages (resize, feature extract) are
    exercised for real."""

    def __init__(self, height: int = 64, width: int = 96, strict: bool = False):
        self.h = height
        self.w = width
        self.strict = strict

    def decode(self, payload: bytes) -> np.ndarray:
        if self.strict:
            raise NotImplementedError(
                "image codec not available in this environment; plug a real "
                "decoder (PIL/libjpeg) here on a full cluster"
            )
        seed = int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")
        rng = np.random.default_rng(seed)
        return rng.integers(0, 256, (self.h, self.w, 3), dtype=np.uint8)

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        imgs = [self.decode(p or b"") for p in payloads]
        flat = np.stack(imgs).reshape(len(imgs), -1)
        col = pa.FixedSizeListArray.from_arrays(
            pa.array(flat.reshape(-1), pa.uint8()), self.h * self.w * 3
        )
        out = batch.drop_columns(["payload"])
        out = out.append_column("image", col)
        out = out.append_column("img_h", pa.array([self.h] * len(imgs), pa.int32()))
        out = out.append_column("img_w", pa.array([self.w] * len(imgs), pa.int32()))
        return out


class ImageFeatures:
    """Actor stage: decoded image → small feature vector (channel means,
    stds, gradient energy) — a stand-in for a vision-model embedding
    with the same actor/batch shape."""

    def __init__(self, height: int = 64, width: int = 96):
        self.h = height
        self.w = width

    def __call__(self, batch: pa.Table) -> pa.Table:
        img_col = batch.column("image")
        if isinstance(img_col, pa.ChunkedArray):
            img_col = img_col.combine_chunks()
        flat = img_col.flatten().to_numpy(zero_copy_only=False)
        imgs = flat.reshape(-1, self.h, self.w, 3).astype(np.float64)
        means = imgs.mean(axis=(1, 2))
        stds = imgs.std(axis=(1, 2))
        grad = np.abs(np.diff(imgs, axis=2)).mean(axis=(1, 2))
        feats = np.concatenate([means, stds, grad], axis=1)
        col = pa.FixedSizeListArray.from_arrays(
            pa.array(feats.reshape(-1)), feats.shape[1]
        )
        return batch.drop_columns(["image"]).append_column("features", col)


class ResizeImage:
    """Actor stage: decoded (H, W, 3) images → (h2, w2, 3) via
    nearest-neighbor index sampling — REAL vectorized math (no codec
    involved), batched over the whole fixed-size-list column at once."""

    def __init__(self, src_h: int, src_w: int, dst_h: int, dst_w: int):
        self.sh, self.sw = src_h, src_w
        self.dh, self.dw = dst_h, dst_w
        # precomputed source index grids (once per actor)
        self.ri = np.minimum((np.arange(dst_h) + 0.5) * src_h / dst_h,
                             src_h - 1).astype(np.int64)
        self.ci = np.minimum((np.arange(dst_w) + 0.5) * src_w / dst_w,
                             src_w - 1).astype(np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch.column("image")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False)
        imgs = flat.reshape(-1, self.sh, self.sw, 3)
        small = imgs[:, self.ri[:, None], self.ci[None, :], :]
        out_col = pa.FixedSizeListArray.from_arrays(
            pa.array(small.reshape(-1), pa.uint8()), self.dh * self.dw * 3
        )
        out = batch.drop_columns(["image"]).append_column("image", out_col)
        ih = batch.column_names.index("img_h") if "img_h" in batch.column_names else None
        if ih is not None:
            out = out.drop_columns(["img_h", "img_w"])
        out = out.append_column("img_h", pa.array([self.dh] * len(batch), pa.int32()))
        out = out.append_column("img_w", pa.array([self.dw] * len(batch), pa.int32()))
        return out


class SampleVideoFrames:
    """Actor stage: video payload → ``n_frames`` evenly-strided frames.

    STUB at the codec boundary (no video decoder in this container;
    ``strict=True`` raises ``NotImplementedError``): the fake container
    derives a deterministic frame count and per-frame images from the
    payload hash.  The Ray-side plumbing — one output ROW PER SAMPLED
    FRAME (doc_id, frame_idx, image), small batches for large payloads —
    is the real large-scale video-pipeline layout."""

    def __init__(self, n_frames: int = 4, height: int = 48, width: int = 64,
                 strict: bool = False):
        self.n = n_frames
        self.h = height
        self.w = width
        self.strict = strict

    def _container_frames(self, payload: bytes) -> int:
        if self.strict:
            raise NotImplementedError(
                "video codec not available in this environment; plug a real "
                "demuxer (pyav/ffmpeg) here on a full cluster"
            )
        seed = int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")
        return 8 + seed % 120  # fake stream length

    def _frame(self, payload: bytes, idx: int) -> np.ndarray:
        seed = int.from_bytes(
            hashlib.blake2b(payload + idx.to_bytes(4, "big"),
                            digest_size=8).digest(), "big")
        rng = np.random.default_rng(seed)
        return rng.integers(0, 256, (self.h, self.w, 3), dtype=np.uint8)

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        keys = batch.column("doc_id")
        out_idx, out_frame, out_imgs = [], [], []
        for i, p in enumerate(payloads):
            p = p or b""
            total = self._container_frames(p)
            # evenly strided sample positions (floor spacing, start at 0)
            pos = (np.arange(self.n) * total) // self.n
            for fp in pos:
                out_idx.append(i)
                out_frame.append(int(fp))
                out_imgs.append(self._frame(p, int(fp)))
        flat = np.stack(out_imgs).reshape(len(out_imgs), -1) if out_imgs else \
            np.zeros((0, self.h * self.w * 3), np.uint8)
        col = pa.FixedSizeListArray.from_arrays(
            pa.array(flat.reshape(-1), pa.uint8()), self.h * self.w * 3
        )
        idx = pa.array(np.asarray(out_idx, dtype=np.int64))
        return pa.table({
            "doc_id": keys.take(idx),
            "frame_idx": pa.array(np.asarray(out_frame, dtype=np.int32)),
            "image": col,
            "img_h": pa.array([self.h] * len(out_imgs), pa.int32()),
            "img_w": pa.array([self.w] * len(out_imgs), pa.int32()),
        })


class AudioFeatures:
    """Actor stage: audio payload → (rms, zero-crossing rate, band
    energies) features.  STUB decode (deterministic waveform from the
    payload hash; ``strict=True`` raises at the codec boundary) — the
    feature math itself is real vectorized DSP."""

    def __init__(self, n_samples: int = 4096, n_bands: int = 8,
                 strict: bool = False):
        self.n = n_samples
        self.bands = n_bands
        self.strict = strict

    def _waveform(self, payload: bytes) -> np.ndarray:
        if self.strict:
            raise NotImplementedError(
                "audio codec not available in this environment; plug a real "
                "decoder (soundfile/librosa) here on a full cluster"
            )
        seed = int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")
        rng = np.random.default_rng(seed)
        return rng.standard_normal(self.n)

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        W = np.stack([self._waveform(p or b"") for p in payloads]) if len(payloads) \
            else np.zeros((0, self.n))
        rms = np.sqrt((W * W).mean(axis=1)) if len(W) else np.zeros(0)
        zcr = (np.abs(np.diff(np.signbit(W), axis=1)).sum(axis=1) / self.n
               if len(W) else np.zeros(0))
        spec = np.abs(np.fft.rfft(W, axis=1)) ** 2 if len(W) else np.zeros((0, 1))
        edges = np.linspace(0, spec.shape[1], self.bands + 1, dtype=np.int64)
        bands = np.stack([
            spec[:, edges[b]:max(edges[b + 1], edges[b] + 1)].mean(axis=1)
            for b in range(self.bands)
        ], axis=1) if len(W) else np.zeros((0, self.bands))
        feats = np.concatenate([rms[:, None], zcr[:, None], bands], axis=1)
        col = pa.FixedSizeListArray.from_arrays(
            pa.array(feats.reshape(-1)), feats.shape[1]
        )
        return batch.drop_columns(["payload"]).append_column("audio_features", col)


#: media_ref layout of the tile scheme (RE2 — same pattern in the SQL
#: oracle)
MEDIA_REF_RE = r"tile://([a-z]+)/(\d+)_(\d+)"


def media_ref_rollup(ds: "ray.data.Dataset",
                     num_buckets: int = 16) -> "ray.data.Dataset":
    """Per-media-asset reference rollup over the interleaved spans
    schema: explode media spans (vectorized flatten), parse the tile
    coordinates out of each ``tile://band/tx_ty`` ref, and emit one
    row per asset with its span count and distinct referencing-doc
    count.  Tiles hash-bucket so the single shuffle is integer-keyed
    with ``num_buckets`` groups; the per-bucket kernel dedups
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
        ["tx", "ty"], kernel, num_buckets, "pandas")


def span_fingerprint_batch(batch: pa.Table,
                           key_col: str = "doc_id") -> pa.Table:
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
        key_col: batch.column(key_col),
        "n_spans": pa.array(counts),
        "span_fp": pa.array(fp.view(np.int64)),
    })


def compact_text_spans_batch(batch: pa.Table,
                             key_col: str = "doc_id") -> pa.Table:
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
        key_col: batch.column(key_col),
        "n_kept": pa.array(n_kept),
        "n_dropped": pa.array(counts - n_kept),
        "text_fp": pa.array(fp.view(np.int64)),
    })


def frame_sample_plan(ds: "ray.data.Dataset", k: int = 8) -> "ray.data.Dataset":
    """Video frame-sampling schedule per distinct media asset.

    The decode/keyframe codec is environment-stubbed (see module
    docstring), but the Ray-side *plan* — which frames each worker will
    pull — is real: explode ``kind='media'`` spans, reduce to distinct
    ``tile://band/tx_ty`` assets (pre-deduped per batch so the shuffle
    carries O(#assets) rows), derive a deterministic pseudo-duration
    ``n_frames = (7·tx + 13·ty) mod 290 + 10``, and emit the k
    evenly-spaced frame indices ``floor(j·n_frames/k)`` every sampler
    uses (n_frames ≥ 10 ≥ k keeps them strictly increasing).

    Output: (band, tx, ty, n_frames, frame_idx) — one row per sampled
    frame, ready to feed a ``FetchMedia``-style actor pool.
    """
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
        return pa.Table.from_pandas(df, preserve_index=False)

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
