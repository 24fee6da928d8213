"""Vectorized batch kernels for the bitset BFS.

Permutation batches are (m, n) arrays: uint8 one-line entries for the plain
graph, int8 signed window entries for the burnt graph. Ranks are int64 and
use the same encodings as :mod:`pancakes.perms` (lexicographic Lehmer rank;
signed ranks put the unsigned rank in the high bits and one sign bit per
position in the low n bits).

Batches are stored column-major: the unrank and flip kernels return (m, n)
views of C-ordered (n, m) arrays, so each position's m entries are
contiguous and every per-position step is one vector operation on a
contiguous row. Unrank splits ranks into Lehmer digits with ``np.divmod``
and turns the digits into entries with one right-to-left bump pass; rank
counts smaller entries per position in uint8 and folds the digits into the
int64 rank by Horner's rule. The kernels accept batches in either memory
order.

Bitsets are flat uint64 arrays with bit ``b`` of word ``w`` addressing rank
``64*w + b``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "factorials",
    "batch_unrank",
    "batch_rank",
    "batch_flip",
    "batch_sunrank",
    "batch_srank",
    "batch_signed_flip",
    "bitset_alloc",
    "bitset_set",
    "bitset_test",
    "bitset_extract_ranks",
    "bitset_popcount",
]


def factorials(n: int) -> list[int]:
    return [math.factorial(k) for k in range(n + 1)]


# ---------------------------------------------------------------------------
# unsigned permutations

def batch_unrank(n: int, ranks: np.ndarray) -> np.ndarray:
    """Decode lexicographic ranks into one-line notation, shape (m, n) uint8."""
    cols = np.zeros((n, ranks.shape[0]), dtype=np.uint8)
    rest = ranks
    fact = factorials(n)
    for pos in range(n - 1):
        digit, rest = np.divmod(rest, fact[n - 1 - pos])
        cols[pos] = digit
    # digits to 0-based entries, right to left: cols[j + 1:] already hold a
    # permutation of 0..n-2-j, and giving position j the value digit[j] bumps
    # every entry to its right that is >= digit[j] up by one
    for j in range(n - 2, -1, -1):
        left = cols[j]
        for k in range(j + 1, n):
            cols[k] += cols[k] >= left
    cols += 1
    return cols.T


def batch_rank(perms: np.ndarray) -> np.ndarray:
    """Lexicographic ranks of one-line uint8 rows, shape (m,) int64."""
    cols = perms.T
    n, m = cols.shape
    ranks = np.zeros(m, dtype=np.int64)
    smaller = np.empty(m, dtype=np.uint8)
    for pos in range(n - 1):
        v = cols[pos]
        smaller[:] = 0
        for k in range(pos + 1, n):
            smaller += cols[k] < v
        # Horner form of sum(digit[pos] * (n - 1 - pos)!)
        ranks *= n - pos
        ranks += smaller
    return ranks


def batch_flip(perms: np.ndarray, i: int) -> np.ndarray:
    """Reverse the first i columns of each row; the copy is column-major."""
    out = np.empty_like(perms, order="F")
    out[:, :i] = perms[:, i - 1 :: -1]
    out[:, i:] = perms[:, i:]
    return out


# ---------------------------------------------------------------------------
# signed permutations

def batch_sunrank(n: int, ranks: np.ndarray) -> np.ndarray:
    """Decode signed ranks into window notation, shape (m, n) int8."""
    out = batch_unrank(n, ranks >> np.int64(n)).view(np.int8)
    cols = out.T
    for idx in range(n):
        np.negative(cols[idx], where=(ranks >> np.int64(idx)) & 1 == 1, out=cols[idx])
    return out


def batch_srank(perms: np.ndarray) -> np.ndarray:
    """Signed ranks of int8 window rows, shape (m,) int64."""
    n = perms.shape[1]
    ranks = batch_rank(np.abs(perms).view(np.uint8))
    cols = perms.T
    for idx in range(n - 1, -1, -1):
        ranks <<= np.int64(1)
        ranks |= cols[idx] < 0
    return ranks


def batch_signed_flip(perms: np.ndarray, i: int) -> np.ndarray:
    """Reverse and negate the first i columns of each row; the copy is column-major."""
    out = np.empty_like(perms, order="F")
    np.negative(perms[:, i - 1 :: -1], out=out[:, :i])
    out[:, i:] = perms[:, i:]
    return out


# ---------------------------------------------------------------------------
# bitsets

def bitset_alloc(size_bits: int) -> np.ndarray:
    return np.zeros((size_bits + 63) // 64, dtype=np.uint64)


def bitset_set(words: np.ndarray, ranks: np.ndarray) -> None:
    """Set the given bits (idempotent; duplicate ranks allowed)."""
    bit = np.left_shift(np.uint64(1), (ranks & 63).astype(np.uint64))
    np.bitwise_or.at(words, ranks >> 6, bit)


def bitset_test(words: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Boolean array: is each rank's bit set?"""
    shift = (ranks & 63).astype(np.uint64)
    return (words[ranks >> 6] >> shift).astype(np.int64) & 1 == 1


def bitset_extract_ranks(words: np.ndarray, word_offset: int = 0) -> np.ndarray:
    """Ranks of all set bits, ascending, as int64."""
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    ranks = np.flatnonzero(bits).astype(np.int64, copy=False)
    if word_offset:
        ranks += word_offset * 64
    return ranks


def bitset_popcount(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum())
