"""Deterministic hashing primitives shared across the engine.

The canonical-id rule reproduces the reference's id generator
(``md2csv.py:20-22``, duplicated at ``csv2rdf-jsonld.py:12-14``):
``md5(name.encode())[:8]`` — an 8-hex-char prefix of the MD5 of the UTF-8
name.  Because the id is *self-computable from the name*, entity resolution
never needs a broadcast id map (SURVEY.md §7.3): any stage holding a name can
recompute the canonical id locally.

DuckDB's ``substr(md5(name), 1, 8)`` produces the identical string, which is
what makes the id rule oracle-checkable in plain SQL.
"""

from __future__ import annotations

import hashlib

import numpy as np

MD5_ID_LEN = 8


def md5_id(name: str) -> str:
    """8-hex-char canonical id of an entity name (md2csv.py:20-22)."""
    return hashlib.md5(name.encode("utf-8")).hexdigest()[:MD5_ID_LEN]


def stable_u64(s: str) -> int:
    """Stable 64-bit hash of a string (first 8 bytes of md5, big-endian).

    Used for salting / bucketing keys: ``stable_u64(url) % n_buckets`` is
    deterministic across processes and Python versions (unlike ``hash()``).
    """
    return int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "big")


def bucket_of(s: str, n_buckets: int) -> int:
    return stable_u64(s) % n_buckets


# ---------------------------------------------------------------------------
# Vectorized single-block MD5 — seeded per-row draws (training-data ops)
# ---------------------------------------------------------------------------
# shuffle_shard / sample_weighted / source_cap / mix_corpora all draw one
# deterministic pseudorandom key per DOCUMENT as md5(f"{seed}:{doc_id}").
# Those inputs are always < 56 bytes, i.e. exactly ONE md5 block after
# padding — so the whole batch can run through a numpy implementation of
# the md5 compression function (RFC 1321), 64 rounds of uint32 array ops
# over all N rows at once, instead of N Python-level hashlib calls.
# Bit-identical to hashlib.md5 (differential-tested in tests/test_hashing
# and, transitively, by the DuckDB md5() mirrors of all four queries).

# K[i] = floor(2^32 * |sin(i+1)|) — the RFC 1321 T table, computed rather
# than transcribed (exact in float64; differential tests would catch any
# platform where it isn't).
_MD5_K = np.floor(np.abs(np.sin(np.arange(1, 65))) * 2.0**32).astype(
    np.uint64).astype(np.uint32)
_MD5_S = np.array([7, 12, 17, 22] * 4 + [5, 9, 14, 20] * 4
                  + [4, 11, 16, 23] * 4 + [6, 10, 15, 21] * 4,
                  dtype=np.uint32)
_MD5_INIT = (np.uint32(0x67452301), np.uint32(0xEFCDAB89),
             np.uint32(0x98BADCFE), np.uint32(0x10325476))
_HEX_LUT = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


_MD5_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)  # digit-count thresholds


def _md5_single_block(blocks: np.ndarray) -> np.ndarray:
    """MD5 of N pre-padded 64-byte blocks → (N, 16) uint8 digests.

    ``blocks`` is (N, 64) uint8, already padded per RFC 1321 (0x80
    terminator + little-endian bit length in bytes 56:64).  Single-block
    messages only — callers guarantee payload ≤ 55 bytes.  The 64 rounds
    run fully in-place over six preallocated N-vectors (no per-round
    allocations) and over ≤16384-row chunks so the ~700 array passes stay
    cache-resident (measured 2.2× vs one monolithic pass at 2M rows).
    """
    n = len(blocks)
    CHUNK = 16384
    if n > CHUNK:
        out = np.empty((n, 16), dtype=np.uint8)
        for s0 in range(0, n, CHUNK):
            out[s0:s0 + CHUNK] = _md5_single_block(blocks[s0:s0 + CHUNK])
        return out
    M = np.ascontiguousarray(blocks).view("<u4").reshape(n, 16)
    A = np.full(n, _MD5_INIT[0], np.uint32)
    B = np.full(n, _MD5_INIT[1], np.uint32)
    C = np.full(n, _MD5_INIT[2], np.uint32)
    D = np.full(n, _MD5_INIT[3], np.uint32)
    F = np.empty(n, np.uint32)
    T = np.empty(n, np.uint32)
    for i in range(64):
        if i < 16:
            # F = (B & C) | (~B & D)
            np.bitwise_and(B, C, out=F)
            np.bitwise_not(B, out=T)
            np.bitwise_and(T, D, out=T)
            np.bitwise_or(F, T, out=F)
            g = i
        elif i < 32:
            # F = (D & B) | (~D & C)
            np.bitwise_and(D, B, out=F)
            np.bitwise_not(D, out=T)
            np.bitwise_and(T, C, out=T)
            np.bitwise_or(F, T, out=F)
            g = (5 * i + 1) % 16
        elif i < 48:
            # F = B ^ C ^ D
            np.bitwise_xor(B, C, out=F)
            np.bitwise_xor(F, D, out=F)
            g = (3 * i + 5) % 16
        else:
            # F = C ^ (B | ~D)
            np.bitwise_not(D, out=F)
            np.bitwise_or(F, B, out=F)
            np.bitwise_xor(F, C, out=F)
            g = (7 * i) % 16
        np.add(F, A, out=F)
        np.add(F, _MD5_K[i], out=F)
        np.add(F, M[:, g], out=F)
        s = _MD5_S[i]
        np.left_shift(F, s, out=T)
        np.right_shift(F, np.uint32(32 - s), out=F)
        np.bitwise_or(T, F, out=F)
        np.add(F, B, out=F)  # F now holds new B
        # register rotation: newA=D newB=F newC=B newD=C; old A is scratch
        A, B, C, D, F = D, F, B, C, A
    out = np.empty((n, 16), dtype=np.uint8)
    for j, (reg, init) in enumerate(zip((A, B, C, D), _MD5_INIT)):
        np.add(reg, init, out=reg)
        out[:, 4 * j:4 * j + 4] = (
            reg.astype("<u4")[:, None].view(np.uint8).reshape(n, 4)
        )
    return out


def seeded_md5_digests(seed: str, ids) -> np.ndarray:
    """``md5(f"{seed}:{id}")`` digests for an int array → (N, 16) uint8.

    Vectorized end to end: decimal formatting via numpy's int→``S21``
    cast, RFC 1321 padding by array writes, 64 compression rounds as
    in-place uint32 array ops — zero Python-level dispatch per row.  ≡
    ``hashlib.md5(f"{seed}:{i}".encode()).digest()`` row-for-row
    (differential-tested, and transitively pinned by the DuckDB ``md5()``
    mirrors of shuffle_shard / sample_weighted / source_cap / mix_corpora).
    """
    ids = np.asarray(ids, dtype=np.int64)
    n = len(ids)
    if not n:
        return np.empty((0, 16), dtype=np.uint8)
    pre = np.frombuffer(f"{seed}:".encode("utf-8"), dtype=np.uint8)
    p = len(pre)
    b = ids.astype("S21")  # minimal decimal text, NUL-padded to the right
    w = b.dtype.itemsize
    # negative ids would need sign handling in the digit-count rule; no
    # caller produces them — take the scalar path rather than miscount
    if p + w > 55 or ids.min() < 0:
        return np.frombuffer(
            b"".join(hashlib.md5(f"{seed}:{i}".encode()).digest() for i in ids),
            dtype=np.uint8,
        ).reshape(n, 16)
    # digit count via one binary search per row against the 10^k table
    lens = p + 1 + np.searchsorted(_MD5_POW10, ids, side="right")
    buf = np.zeros((n, 64), dtype=np.uint8)
    buf[:, :p] = pre
    buf[:, p:p + w] = np.ascontiguousarray(b).view(np.uint8).reshape(n, w)
    buf[np.arange(n), lens] = 0x80
    buf[:, 56:64] = (lens * 8).astype("<u8")[:, None].view(np.uint8).reshape(n, 8)
    return _md5_single_block(buf)


def seeded_md5_sortkey(seed: str, ids) -> np.ndarray:
    """Raw 16-byte digests as ``S16`` — a drop-in ORDER-preserving stand-in
    for the hexdigest string: hex encoding maps each byte monotonically to
    two ASCII chars, so sorting the raw digest bytes ≡ sorting the hex
    strings the DuckDB mirrors rank by.  Skips hex materialization for the
    rank-only callers (shuffle_shard / source_cap / mix_corpora).

    numpy ``S`` item access strips trailing NUL bytes; that is still
    order-safe here: two distinct fixed-16-byte digests first differ at
    some byte i, stripping only removes trailing 0x00 runs (the minimal
    byte), so the comparison is still decided at i — a stripped string is
    a proper prefix of the other only when it was already smaller, and no
    two distinct digests can strip to the same value.  Order-preservation
    vs the hexdigest rank is differential-tested in tests/test_hashing.py."""
    d = seeded_md5_digests(seed, ids)
    return d.reshape(-1).view("S16")


def digests_to_hex(digests: np.ndarray) -> np.ndarray:
    """(N, 16) uint8 digests → '<U32' lowercase hex strings (vectorized)."""
    n = len(digests)
    if not n:
        return np.empty(0, dtype="U32")
    out = np.empty((n, 32), dtype=np.uint8)
    out[:, 0::2] = _HEX_LUT[digests >> 4]
    out[:, 1::2] = _HEX_LUT[digests & 0x0F]
    return out.reshape(-1).view("S32").astype("U32")


def seeded_md5_hex(seed: str, ids) -> np.ndarray:
    """Vectorized ``md5(f"{seed}:{id}").hexdigest()`` → '<U32' array."""
    return digests_to_hex(seeded_md5_digests(seed, ids))


def seeded_md5_u32(seed: str, ids) -> np.ndarray:
    """Vectorized ``int(md5(f"{seed}:{id}").hexdigest()[:8], 16)`` → int64.

    The first 8 hex digits are the first 4 digest bytes big-endian.
    """
    d = seeded_md5_digests(seed, ids)
    if not len(d):
        return np.empty(0, dtype="int64")
    return (
        (d[:, 0].astype("int64") << 24)
        | (d[:, 1].astype("int64") << 16)
        | (d[:, 2].astype("int64") << 8)
        | d[:, 3].astype("int64")
    )


# ---------------------------------------------------------------------------
# Rolling polynomial hash — document fingerprinting (training-data ops)
# ---------------------------------------------------------------------------

_FP_BASE = np.uint64(1099511628211)  # FNV prime, used as polynomial base
_FP_MOD_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def rolling_fingerprints(tokens: list[str], window: int = 4) -> np.ndarray:
    """Rolling polynomial hash over token ``window``-grams → uint64 array.

    One fingerprint per window position; the document fingerprint sketch is
    the ``k`` smallest values (winnowing-style min-k), computed by callers.
    """
    if len(tokens) < window:
        tokens = tokens + [""] * (window - len(tokens))
    tok_h = np.array([stable_u64(t) for t in tokens], dtype=np.uint64)
    n = len(tok_h) - window + 1
    out = np.zeros(n, dtype=np.uint64)
    for j in range(window):
        out = (out * _FP_BASE + tok_h[j : j + n]) & _FP_MOD_MASK
    return out


def min_k_sketch(values: np.ndarray, k: int = 8) -> list[int]:
    """k smallest distinct values of a fingerprint array (document sketch)."""
    u = np.unique(values)
    return [int(v) for v in u[:k]]
