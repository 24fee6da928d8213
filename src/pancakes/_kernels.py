"""Vectorized batch kernels for the bitset BFS.

Permutation batches are (m, n) arrays: uint8 one-line entries for the plain
graph, int8 signed window entries for the burnt graph. Ranks are int64 and
use the same encodings as :mod:`pancakes.perms` (lexicographic Lehmer rank;
signed ranks put the unsigned rank in the high bits and one sign bit per
position in the low n bits).

Batches are stored column-major: the unrank and flip kernels return (m, n)
views of C-ordered (n, m) arrays, so each position's m entries are
contiguous and every per-position step is one vector operation on a
contiguous row. The kernels accept batches in either memory order.

Each per-position step runs in the narrowest dtype that holds its values,
and ranks are widened to int64 once, where a kernel returns. Lehmer ranks
below n! are held in int32 while n! < 2**31 (n <= 12) and in int64 above
that, and narrower where the values allow: unrank takes each digit with
one floor division and one multiply-subtract, in uint16 once the remainder
is below 2**16, and rank folds the digits in by Horner's rule, in uint16
while the partial sum fits (all of it for n <= 8). Digits, entries and
comparison results are uint8 or bool, written into buffers allocated once
per call. The n sign bits of a signed rank travel in a uint8 word (n <= 8)
or a uint16 word (n <= 16) and meet the rank in one shift and one OR, in
int32 while n! * 2**n < 2**31 (n <= 9) and in int64 above that.

Every per-rank step also stays on NumPy's fast loops, as timed at 2**18
entries on NumPy 2.4:

- no uint8 or uint16 word is shifted left by a constant; it is doubled
  with ``np.add(w, w, out=w)``, 10 to 20 times faster for uint8;
- a comparison writes its bool result through a bool view of a byte
  buffer, and counts add that byte buffer, never a bool array, into a
  uint8 one, about twice as fast;
- ranks are compacted with ``np.compress``, not boolean-mask indexing
  (the search's fresh ranks and the ball engine's layers), 2 to 3.5 times
  faster, and gathered with ``np.take``, not fancy indexing;
- the signed rank is finished in int32 while it fits, as above, which
  more than halves the shift and the OR.

Ranks must fit in int64: n! < 2**63 holds for plain n <= 20 and
n! * 2**n < 2**63 for signed n <= 16, the limits :data:`MAX_RANK_N` and
:data:`MAX_SRANK_N` that the layer search also refuses beyond. Past them
the kernels raise ValueError instead of wrapping around.

Bitsets are flat uint64 arrays with bit ``b`` of word ``w`` addressing rank
``64*w + b``. :func:`bitset_set`, :func:`bitset_test` and
:func:`bitset_extract_ranks` work on them through a uint8 view, where rank
``r`` is bit ``r & 7`` of byte ``r >> 3``; that holds on a little-endian
host only, the same ``<u8`` layout a checkpoint file stores, so importing
this module elsewhere fails.
"""

from __future__ import annotations

import math
import sys

import numpy as np

if sys.byteorder != "little":
    raise ImportError("pancakes bitsets need a little-endian host")

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


# the largest n whose plain (n! - 1) and signed ((n! << n) - 1) ranks fit in
# int64: 20! < 2**63 <= 21! and 16! * 2**16 < 2**63 <= 17! * 2**17
MAX_RANK_N = 20
MAX_SRANK_N = 16


def factorials(n: int) -> list[int]:
    return [math.factorial(k) for k in range(n + 1)]


def _lehmer_dtype(n: int) -> type[np.signedinteger]:
    """Narrowest signed dtype that holds every Lehmer rank below n!."""
    if n > MAX_RANK_N:
        raise ValueError(
            f"ranks of {n}-entry permutations do not fit in int64 (n <= {MAX_RANK_N})"
        )
    return np.int32 if math.factorial(n) < 2**31 else np.int64


def _sign_dtype(n: int) -> type[np.unsignedinteger]:
    """Unsigned dtype whose low n bits hold the sign bits of a signed rank."""
    if n > MAX_SRANK_N:
        # a uint16 word would also drop sign bits
        raise ValueError(
            f"signed ranks of {n} entries do not fit in int64 (n <= {MAX_SRANK_N})"
        )
    return np.uint8 if n <= 8 else np.uint16


# ---------------------------------------------------------------------------
# unsigned permutations

def batch_unrank(n: int, ranks: np.ndarray) -> np.ndarray:
    """Decode lexicographic ranks into one-line notation, shape (m, n) uint8."""
    m = ranks.shape[0]
    cols = np.zeros((n, m), dtype=np.uint8)
    rest = ranks.astype(_lehmer_dtype(n))  # a copy: the caller's ranks stay
    digit = np.empty_like(rest)
    fact = factorials(n)
    for pos in range(n - 2):
        if fact[n - pos] <= 1 << 16 and rest.dtype != np.uint16:
            # rest < (n - pos)! from here on
            rest = rest.astype(np.uint16)
            digit = np.empty_like(rest)
        np.floor_divide(rest, fact[n - 1 - pos], out=digit)
        cols[pos] = digit
        digit *= fact[n - 1 - pos]
        rest -= digit
    if n > 1:
        cols[n - 2] = rest  # the digit of 1!; the last digit is always 0
    # digits to 0-based entries, right to left: cols[j + 1:] already hold a
    # permutation of 0..n-2-j, and giving position j the value digit[j] bumps
    # every entry to its right that is >= digit[j] up by one
    bump = np.empty(m, dtype=np.uint8)
    for j in range(n - 2, -1, -1):
        left = cols[j]
        for k in range(j + 1, n):
            np.greater_equal(cols[k], left, out=bump.view(np.bool_))
            cols[k] += bump
    cols += 1
    return cols.T


def _lehmer_ranks(perms: np.ndarray) -> np.ndarray:
    """Lexicographic ranks of one-line uint8 rows: uint16 for n <= 8, else
    the Lehmer dtype of n."""
    cols = perms.T
    n, m = cols.shape
    wide = _lehmer_dtype(n)
    ranks = np.zeros(m, dtype=np.uint16)
    smaller = np.empty(m, dtype=np.uint8)
    less = np.empty(m, dtype=np.uint8)
    bound = 1
    for pos in range(n - 1):
        v = cols[pos]
        np.less(cols[pos + 1], v, out=smaller.view(np.bool_))
        for k in range(pos + 2, n):
            np.less(cols[k], v, out=less.view(np.bool_))
            smaller += less
        # Horner form of sum(digit[pos] * (n - 1 - pos)!); the sum so far is
        # below n! / (n - 1 - pos)!, so it stays in uint16 while that fits
        bound *= n - pos
        if bound > 1 << 16 and ranks.dtype != wide:
            ranks = ranks.astype(wide)
        ranks *= n - pos
        ranks += smaller
    return ranks


def batch_rank(perms: np.ndarray) -> np.ndarray:
    """Lexicographic ranks of one-line uint8 rows, shape (m,) int64."""
    return _lehmer_ranks(perms).astype(np.int64, copy=False)


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
    out = batch_unrank(n, ranks >> n).view(np.int8)
    signs = ranks.astype(_sign_dtype(n))  # keeps the low bits
    bit = np.empty_like(signs)
    s = np.empty(ranks.shape[0], dtype=np.int8)
    mask = np.empty_like(s)
    for pos, x in enumerate(out.T):
        # s = 1 negates x: (x ^ -1) + 1 == -x; s = 0 leaves it as it is
        np.bitwise_and(signs, 1 << pos, out=bit)
        np.not_equal(bit, 0, out=s.view(np.bool_))
        np.negative(s, out=mask)
        x ^= mask
        x += s
    return out


def batch_srank(perms: np.ndarray) -> np.ndarray:
    """Signed ranks of int8 window rows, shape (m,) int64."""
    m, n = perms.shape
    ranks = _lehmer_ranks(np.abs(perms).view(np.uint8))
    signs = np.zeros(m, dtype=_sign_dtype(n))
    negative = np.empty(m, dtype=np.uint8)
    cols = perms.T
    for idx in range(n - 1, -1, -1):
        np.less(cols[idx], 0, out=negative.view(np.bool_))
        np.add(signs, signs, out=signs)  # signs <<= 1
        signs |= negative
    # the shift and the OR run in int32 while n! * 2**n < 2**31 (n <= 9)
    signed = np.int32 if math.factorial(n) << n < 2**31 else np.int64
    ranks = ranks.astype(signed, copy=False)
    ranks <<= n
    ranks |= signs
    return ranks.astype(np.int64, copy=False)


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
    bits = ranks.astype(np.uint8)  # keeps the low bits
    bits &= 7
    np.left_shift(1, bits, out=bits)
    np.bitwise_or.at(words.view(np.uint8), ranks >> 3, bits)


def bitset_test(words: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Boolean array: is each rank's bit set?"""
    bits = np.take(words.view(np.uint8), ranks >> 3)
    shift = ranks.astype(np.uint8)  # keeps the low bits
    shift &= 7
    bits >>= shift
    bits &= 1
    return bits.view(np.bool_)


def bitset_extract_ranks(words: np.ndarray, word_offset: int = 0) -> np.ndarray:
    """Ranks of all set bits, ascending, as int64.

    When fewer than half of the words are nonzero, only those words are
    unpacked, and each bit is moved from its place among them to its word.
    """
    sparse = 2 * np.count_nonzero(words) < words.size
    if sparse:
        index = np.flatnonzero(words)
        words = words[index]
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    ranks = np.flatnonzero(bits).astype(np.int64, copy=False)
    del bits
    if sparse:
        # the j-th nonzero word is word index[j]: 64 * (index[j] - j) further on
        index -= np.arange(index.size)
        index <<= 6
        ranks += np.repeat(index, np.bitwise_count(words))
    if word_offset:
        ranks += word_offset * 64
    return ranks


def bitset_popcount(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum())
