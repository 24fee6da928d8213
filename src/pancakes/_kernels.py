"""Vectorized batch kernels for the bitset BFS.

Permutation batches are (m, n) arrays of uint8 one-line entries, for both
graphs: a burnt graph's search ranks unsigned rows with their signed ranks.
Only :func:`batch_sunrank`, :func:`batch_signed_flip` and
:func:`batch_srank` handle int8 signed window entries. Ranks are int64 and
use the same encodings as :mod:`pancakes.perms` (lexicographic Lehmer rank;
signed ranks put the unsigned rank in the high bits and one sign bit per
position in the low n bits).

Batches are stored column-major: the unrank and flip kernels return (m, n)
views of C-ordered (n, m) arrays, so each position's m entries are
contiguous and every per-position step is one vector operation on a
contiguous row. The kernels accept batches in either memory order.

Ranking is done by :class:`FlipRanks`. The search ranks every flip of a
chunk, in ascending flip order, from one state: flip i keeps Lehmer digits
i..n-1 and their share of the rank (the *tail*, the parent rank mod
(n - i)!), and each step of i updates the digits of the flipped prefix
with one comparison per entry before it. That is O(n^2) vector operations
for all n - 1 or n flips of a rank, where flipping a copy and ranking it
anew cost O(n^2) per flip. The state owns its chunk: :meth:`FlipRanks.load`
takes the int64 ranks, signed for a signed state, unranks them into
unsigned uint8 rows with :func:`batch_unrank` (a signed rank's unsigned
part is the rank shifted right by n; the state reads the signs from the
ranks) and returns that batch. It holds one batch and its chunk of ranks
at a time, until :meth:`FlipRanks.release`, which the search's chunk loops
call when they end.
:func:`batch_rank` with a state is the one stateful entry, for both kinds.
With one argument, :func:`batch_rank` and :func:`batch_srank` rank a batch
whole by plain Lehmer counts (each digit the count of smaller entries after
its position, folded by Horner's rule) and build no state.

Flips ascend, so a caller can drop rows between flips: the bottom-up search
drops the rows whose flip lands in the frontier once they are at least a
quarter of the rows left. A row matched by a flip that drops none stays in
the batch and can match again. :meth:`FlipRanks.compact` moves the rows
left and their ranks to the front of the batch's, the ranks' and the
state's own buffers, allocating nothing the size of the batch, and the
later flips rank only those rows.

Each per-position step runs in the narrowest dtype that holds its values,
and ranks are widened to int64 once, where a kernel returns. Lehmer ranks
below n! are held in int32 while n! < 2**31 (n <= 12) and in int64 above
that, and narrower where the values allow: unrank takes each digit with
one floor division and one multiply-subtract, in uint16 once the remainder
is below 2**16. A flip's digits are uint8; they are folded by Horner's
rule in runs whose sums fit in uint16, the runs meet in the wide sum, and
the tail, kept in the wide dtype, is added last. A signed rank puts the n
sign bits in its low bits: the tail keeps the parent's bits from i up, and
the new low i bits, the complements of the flipped entries' signs in
reverse order, travel in a uint8 word (n <= 8) or a uint16 word (n <= 16),
one doubling and one OR per step. Its sum and tail are int32 while
n! * 2**n < 2**31 (n <= 9) and int64 above that. Digits, entries and
comparison results are uint8 or bool. The state's buffers are allocated
once and serve every batch of a search's chunk loop.

:func:`batch_sunrank`, :func:`batch_flip`, :func:`batch_signed_flip` and
the whole-batch rankers stay: the search no longer calls them, but the
kernel tests rank flipped copies with them, a second route to every flip's
ranks that shares no code with :class:`FlipRanks`, and the benchmark's
tracer (``perfbench/spans.py``) wraps them by name.

Every per-rank step also stays on NumPy's fast loops, as timed at 2**18
entries on NumPy 2.4, but one:

- no uint8 or uint16 word is shifted left by a constant; it is doubled
  with ``np.add(w, w, out=w)``, 10 to 20 times faster for uint8;
- a comparison writes its bool result through a bool view of a byte
  buffer, and counts add that byte buffer, never a bool array, into a
  uint8 one, about twice as fast;
- ranks are compacted with ``np.compress``, not boolean-mask indexing
  (the search's fresh ranks and the ball engine's layers), 2 to 3.5 times
  faster, and gathered with ``np.take``, not fancy indexing;
- bits are set with ``np.add.at``, whose indexed loop takes 2.2 ns per
  rank against 10.6 ns for ``np.bitwise_or.at``. Adding bits not yet set
  is an OR only while no rank comes twice, so :func:`bitset_add` takes
  ranks that do not repeat, such as one flip (a bijection) of distinct
  ranks, the search's fresh neighbors; :func:`bitset_set` takes any ranks;
- set bits are found with ``np.flatnonzero`` on a bool view of the
  unpacked 0/1 bytes, 0.9 ns per byte against 6.9 ns on the uint8 bytes;
- the exception: :func:`bitset_test` (``bits >>= shift``) and
  :func:`bitset_set` and :func:`bitset_add` (``np.left_shift(1, bits)``)
  shift uint8 by a uint8 array, which takes 55 to 85 us per 2**18 entries
  against 8 to 10 us for a same-type AND or add. Replacing those shifts is
  part of item 3 in ROADMAP.md.

Ranks must fit in int64: n! < 2**63 holds for plain n <= 20 and
n! * 2**n < 2**63 for signed n <= 16, the limits :data:`MAX_RANK_N` and
:data:`MAX_SRANK_N` that the layer search also refuses beyond. Past them
the kernels raise ValueError instead of wrapping around.

Bitsets are flat uint64 arrays with bit ``b`` of word ``w`` addressing rank
``64*w + b``. :func:`bitset_set`, :func:`bitset_add`, :func:`bitset_test`
and :func:`bitset_extract_ranks` work on them through a uint8 view, where rank
``r`` is bit ``r & 7`` of byte ``r >> 3``; that holds on a little-endian
host only, the same ``<u8`` layout a checkpoint file stores, so importing
this module elsewhere fails.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

if sys.byteorder != "little":
    raise ImportError("pancakes bitsets need a little-endian host")

__all__ = [
    "factorials",
    "FlipRanks",
    "batch_unrank",
    "batch_rank",
    "batch_flip",
    "batch_sunrank",
    "batch_srank",
    "batch_signed_flip",
    "bitset_alloc",
    "bitset_set",
    "bitset_add",
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


@functools.cache
def _horner_runs(n: int, flip: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """How :meth:`FlipRanks.rank` folds the prefix digits of ``flip``: runs
    of (row, radix), most significant first, each with the product of its
    radices.

    Row j of the prefix (position flip - 1 - j) has radix n - flip + 1 + j.
    Runs are cut from the least significant up so that each one's Horner
    sum fits in uint16.
    """
    cut: list[list[tuple[int, int]]] = []
    span = 1 << 17
    for row in range(flip):
        radix = n - flip + 1 + row
        if radix == 1:
            continue  # the digit is 0
        if span * radix > 1 << 16:
            cut.append([])
            span = 1
        cut[-1].append((row, radix))
        span *= radix
    return [(math.prod(r for _, r in run), run[::-1]) for run in reversed(cut)]


class FlipRanks:
    """State from which :func:`batch_rank` ranks every flip of a batch, in
    ascending flip order; a signed state returns signed ranks.

    Flip i leaves Lehmer digits i..n-1 as they are, so their share of a
    neighbor's rank is the batch rank mod (n - i)!, the *tail*. Entry p[j]
    (j < i) moves to position i - 1 - j, where its digit is p[j] - 1 minus
    the count of smaller entries among p[j+1..i-1]; each step of i compares
    the entry that joins the prefix with those before it, once. A signed
    flip keeps the sign bits at positions >= i, which stay in the tail, and
    gives bit q < i the complement of entry i - 1 - q's sign: the *word*,
    one doubling and one OR per step. So ranking all n flips costs O(n^2)
    per rank, where ranking each flip anew cost O(n^2) per flip.

    The buffers hold ``rows`` ranks and are reused for each chunk that
    :meth:`load` brings in, so a search allocates them once per run of
    chunks. The int64 ranks a call returns are one of them, overwritten by
    the next call. ``ranks`` holds the ranks of the batch's rows, in order.

    The state holds its batch, and ``ranks``, a view that keeps the
    caller's whole array of ranks alive, only from :meth:`load` until
    :meth:`release` or the next load. The search's chunk loops release it
    when they end, so nothing of one block of ranks but the buffers is
    alive while the next block is extracted.
    """

    def __init__(self, n: int, rows: int, *, signed: bool = False) -> None:
        if signed:
            self._word_buf = np.empty(rows, dtype=_sign_dtype(n))
            wide = np.int32 if math.factorial(n) << n < 2**31 else np.int64
        else:
            wide = _lehmer_dtype(n)
        self.n, self.signed = n, signed
        self._scale = 1 << n if signed else 1
        self._rows = rows
        self._digit_buf = np.empty((n, rows), dtype=np.uint8)
        self._tail_buf = np.empty(rows, dtype=wide)
        # the uint16 Horner runs of rank(); _advance() uses the same bytes for
        # its comparison results and counts
        self._group_buf = np.empty(rows, dtype=np.uint16)
        self._out_buf = np.empty(rows, dtype=np.int64)
        # the wide Horner sum of rank() and the tail steps of _advance(); an
        # int64 sum is the result itself
        self._sum_buf = self._out_buf if wide is np.int64 else np.empty(rows, dtype=wide)
        self._batch = self.ranks = None

    def load(self, ranks: np.ndarray) -> np.ndarray:
        """Unrank the chunk ``ranks`` and return its batch; flip 0 is next.

        The batch holds unsigned uint8 one-line rows, for a signed state
        too: the state reads the signs from the signed ``ranks``. The
        previous batch and ranks are released first, so only the caller's
        references keep them alive while this one is unranked. The state
        holds the new batch and ``ranks`` until :meth:`release` or the next
        load.
        """
        self.release()
        n = self.n
        perms = batch_unrank(n, ranks >> n if self.signed else ranks)
        self._batch, self.ranks, self._flip = perms, ranks, 0
        self._fit(perms.shape[0])
        np.copyto(self._tail, ranks, casting="unsafe")  # the ranks fit
        if self.signed:
            self._word.fill(0)
        return perms

    def release(self) -> None:
        """Drop the loaded batch and its ranks; the buffers stay for the next load."""
        self._batch = self.ranks = None

    def _fit(self, m: int) -> None:
        """Point the views of the buffers at their first ``m`` rows."""
        rows = self._rows
        self._digits = self._digit_buf[:, :m]
        bytes_ = self._group_buf.view(np.uint8)
        self._less, self._count = bytes_[:m], bytes_[rows : rows + m]
        self._group, self._sum, self._out = self._group_buf[:m], self._sum_buf[:m], self._out_buf[:m]
        self._tail = self._tail_buf[:m]
        if self.signed:
            self._word = self._word_buf[:m]

    def compact(self, index: np.ndarray) -> np.ndarray:
        """Keep only the rows ``index`` (ascending) of the loaded batch.

        The kept rows move to the front of the batch's own buffer, their
        ranks to the front of the buffer of the loaded ``ranks``, which is
        overwritten, and their prefix digits, tail and sign word to the
        front of the state's, so the later flips rank only them. Nothing is
        allocated: each position is gathered into the int64 result buffer,
        free until the next :meth:`rank`, and copied back to the front of
        its own row. (A take into the row itself would copy the row first,
        and twice as slowly.) Returns the compacted batch, a view of the
        loaded batch's buffer, which the later flips take in its place;
        ``ranks`` becomes the kept rows' ranks.
        """
        k = index.size
        cols = self._batch.T
        live = [*cols, self.ranks, *self._digits[: self._flip], self._tail]
        if self.signed:
            live.append(self._word)
        for row in live:
            gathered = self._out_buf.view(row.dtype)[:k]
            # the indices are in range: clip skips the bounds check
            np.take(row, index, out=gathered, mode="clip")
            np.copyto(row[:k], gathered)
        self._fit(k)
        self._batch, self.ranks = cols[:, :k].T, self.ranks[:k]
        return self._batch

    def _advance(self, cols: np.ndarray, flip: int) -> None:
        """Step the digits, tail and word from the current flip to ``flip``;
        ``cols`` holds the batch's entries by position."""
        n, digits, count, less, tail = self.n, self._digits, self._count, self._less, self._tail
        is_less = less.view(np.bool_)
        for t in range(self._flip, flip):
            # entry t joins the prefix; its own digit counts every smaller entry
            v = cols[t]
            np.subtract(v, 1, out=digits[t])
            # the parent's digit at t, needed for the tail, is 0 at t = n - 1
            parent_digit = t < n - 1
            if parent_digit:
                count.fill(0)
            for j in range(t):
                np.less(v, cols[j], out=is_less)
                digits[j] -= less
                if parent_digit:
                    count += less
            step = self._sum
            if parent_digit:
                # v - 1 minus the t - count smaller entries before it
                count += v
                count -= t + 1
                weight = math.factorial(n - 1 - t) * self._scale
                np.multiply(count, weight, out=step, dtype=tail.dtype)
                tail -= step
            if self.signed:
                # bit t of the tail is entry t's sign; the word takes its complement
                np.bitwise_and(tail, 1 << t, out=step)
                tail -= step
                np.equal(step, 0, out=is_less)
                word = self._word
                np.add(word, word, out=word)  # word <<= 1
                word |= less
        self._flip = flip

    def rank(self, perms: np.ndarray, flip: int) -> np.ndarray:
        """Ranks of the loaded batch ``perms`` with its first ``flip`` entries flipped."""
        if perms is not self._batch:
            raise ValueError("the state holds another batch; load this one first")
        if flip < self._flip:
            raise ValueError(f"flips must ascend: flip {flip} after flip {self._flip}")
        self._advance(perms.T, flip)
        digits, group, total = self._digits, self._group, self._sum
        runs = _horner_runs(self.n, flip)
        if not runs:
            total.fill(0)
        # each run is a uint16 Horner sum, and the runs meet in the wide sum
        for k, (span, ((row, _), *rest)) in enumerate(runs):
            np.copyto(group, digits[row])
            for row, radix in rest:
                group *= radix
                group += digits[row]
            if k == 0:
                np.copyto(total, group)
            else:
                total *= span
                total += group
        total *= math.factorial(self.n - flip) * self._scale
        total += self._tail
        if self.signed:
            total += self._word  # the sign bits below the tail's
        if total is not self._out:
            np.copyto(self._out, total)
        return self._out


def _whole_ranks(perms: np.ndarray) -> np.ndarray:
    """Lexicographic ranks of one-line uint8 rows, shape (m,) int64.

    The Lehmer digit of a position is the count of smaller entries after
    it; the digits are folded by Horner's rule, each comparison added to
    the sum as it is made. The search never ranks a batch whole, so this
    route is kept short rather than fast.
    """
    m, n = perms.shape
    total = np.zeros(m, dtype=_lehmer_dtype(n))
    less = np.empty(m, dtype=np.uint8)
    cols = perms.T
    for j in range(n - 1):  # the last digit is always 0
        total *= n - j
        for k in range(j + 1, n):
            np.less(cols[k], cols[j], out=less.view(np.bool_))
            total += less
    return total.astype(np.int64, copy=False)


def batch_rank(
    perms: np.ndarray, flip: int | None = None, state: FlipRanks | None = None
) -> np.ndarray:
    """Lexicographic ranks of one-line uint8 rows, shape (m,) int64.

    Given ``flip`` and a ``state`` that loaded ``perms``, the ranks of the
    rows with their first ``flip`` entries reversed, or reversed and negated
    for a signed state, whose ranks are signed; see :class:`FlipRanks`.
    One of ``flip`` and ``state`` without the other raises ValueError.
    """
    if state is None:
        if flip is not None:
            raise ValueError(f"flip {flip} needs the state that loaded the batch")
        return _whole_ranks(perms)
    if flip is None:
        raise ValueError("a state ranks a flip of its batch; no flip was given")
    return state.rank(perms, flip)


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
    signs = np.zeros(m, dtype=_sign_dtype(n))
    negative = np.empty(m, dtype=np.uint8)
    cols = perms.T
    for idx in range(n - 1, -1, -1):
        np.less(cols[idx], 0, out=negative.view(np.bool_))
        np.add(signs, signs, out=signs)  # signs <<= 1
        signs |= negative
    ranks = _whole_ranks(np.abs(perms).view(np.uint8))
    ranks <<= n
    ranks |= signs
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
    bits = ranks.astype(np.uint8)  # keeps the low bits
    bits &= 7
    np.left_shift(1, bits, out=bits)
    np.bitwise_or.at(words.view(np.uint8), ranks >> 3, bits)


def bitset_add(words: np.ndarray, ranks: np.ndarray) -> None:
    """Set the given bits; no rank may appear twice in ``ranks``.

    The bits already set are dropped, so adding each rank's bit to its byte
    ORs it in; a rank given twice would carry into the next bit.
    """
    view = words.view(np.uint8)
    index = ranks >> 3
    bits = ranks.astype(np.uint8)  # keeps the low bits
    bits &= 7
    np.left_shift(1, bits, out=bits)
    held = np.take(view, index)
    held &= bits
    bits ^= held
    del held
    np.add.at(view, index, bits)


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
    A caller that wants the clear bits passes an inverted copy of the words
    with the bits past the last rank cleared.
    """
    sparse = 2 * np.count_nonzero(words) < words.size
    if sparse:
        index = np.flatnonzero(words)
        words = words[index]
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    # the unpacked bytes are 0 or 1: a bool view takes the fast loop
    ranks = np.flatnonzero(bits.view(np.bool_)).astype(np.int64, copy=False)
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
