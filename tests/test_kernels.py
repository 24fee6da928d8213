"""Batch numpy kernels against the scalar implementations."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pancakes import _kernels as K
from pancakes.perms import (
    Perm,
    SignedPerm,
    apply_flip,
    apply_signed_flip,
    rank,
    srank,
    sunrank,
    unrank,
)

# ranks at each end of a graph's range: the int32/int64 accumulator and the
# uint8/uint16 sign word must agree with the scalar code on both sides
EDGE = 1 << 12


def edge_ranks(size):
    """The lowest and the highest EDGE ranks below ``size``, as int64."""
    return np.concatenate([np.arange(EDGE), np.arange(size - EDGE, size)]).astype(np.int64)


def assert_ranks_back(rank_kernel, rows, dtype, ranks):
    """``rank_kernel`` returns ``ranks`` as int64 for rows in either memory order."""
    rows = np.array(rows, dtype=dtype)
    for batch in (np.ascontiguousarray(rows), np.asfortranarray(rows)):
        back = rank_kernel(batch)
        assert back.dtype == np.int64
        assert np.array_equal(back, ranks)


def test_rank_limits_are_the_widest_that_fit_int64():
    # the largest plain rank is n! - 1 and the largest signed one n! * 2**n - 1
    assert math.factorial(K.MAX_RANK_N) < 2**63 <= math.factorial(K.MAX_RANK_N + 1)
    widest, past = K.MAX_SRANK_N, K.MAX_SRANK_N + 1
    assert math.factorial(widest) << widest < 2**63 <= math.factorial(past) << past


class TestUnsignedKernels:
    def test_unrank_matches_scalar_exhaustive(self):
        for n in range(1, 7):
            ranks = np.arange(math.factorial(n), dtype=np.int64)
            batch = K.batch_unrank(n, ranks)
            for r in range(math.factorial(n)):
                assert tuple(int(x) for x in batch[r]) == unrank(n, r).entries

    def test_rank_matches_scalar_exhaustive(self):
        for n in range(1, 7):
            size = math.factorial(n)
            batch = K.batch_unrank(n, np.arange(size, dtype=np.int64))
            back = K.batch_rank(batch)
            assert np.array_equal(back, np.arange(size))

    def test_rank_random_large_n(self):
        rng = np.random.default_rng(7)
        # 20 is the largest n whose ranks fit in int64
        for n in (8, 10, 12, 16, 20):
            ranks = rng.integers(0, math.factorial(n), size=500, dtype=np.int64)
            perms = K.batch_unrank(n, ranks)
            for row, r in zip(perms, ranks):
                assert tuple(int(x) for x in row) == unrank(n, int(r)).entries
            assert np.array_equal(K.batch_rank(perms), ranks)

    @pytest.mark.parametrize("n", [8, 9, 12, 13, 20])
    def test_roundtrip_at_accumulator_edge(self, n):
        # 8! <= 2**16 < 9!: n = 8 is the last whole uint16 Horner sum and unrank
        # remainder, 9 the first that starts wider; 12! < 2**31 <= 13!: n = 12
        # is the last int32 accumulator, and 20 is the last n whose ranks fit
        # in int64
        ranks = edge_ranks(math.factorial(n))
        before = ranks.copy()
        perms = K.batch_unrank(n, ranks)
        assert np.array_equal(ranks, before)
        expected = [unrank(n, int(r)).entries for r in ranks]
        assert [tuple(row) for row in perms.tolist()] == expected
        assert_ranks_back(K.batch_rank, expected, np.uint8, ranks)

    def test_refuses_ranks_beyond_int64(self):
        # 21! > 2**63: the int64 Horner sum and the digits would wrap around
        with pytest.raises(ValueError, match="n <= 20"):
            K.batch_unrank(21, np.zeros(1, dtype=np.int64))
        with pytest.raises(ValueError, match="n <= 20"):
            K.batch_rank(np.arange(1, 22, dtype=np.uint8).reshape(1, 21))

    def test_flip_matches_scalar(self):
        rng = np.random.default_rng(11)
        n = 7
        ranks = rng.integers(0, math.factorial(n), size=200, dtype=np.int64)
        perms = K.batch_unrank(n, ranks)
        for i in range(2, n + 1):
            flipped = K.batch_flip(perms, i)
            for row_in, row_out in zip(perms, flipped):
                p = Perm(tuple(int(x) for x in row_in))
                assert tuple(int(x) for x in row_out) == apply_flip(p, i).entries

    def test_rank_of_flip_matches_scalar_exhaustive(self):
        for n in range(2, 8):
            perms = K.batch_unrank(n, np.arange(math.factorial(n), dtype=np.int64))
            scalar = [unrank(n, r) for r in range(math.factorial(n))]
            for i in range(2, n + 1):
                expected = [rank(apply_flip(p, i)) for p in scalar]
                assert K.batch_rank(K.batch_flip(perms, i)).tolist() == expected

    def test_rank_ignores_memory_order(self):
        rng = np.random.default_rng(29)
        n = 9
        perms = K.batch_unrank(n, rng.integers(0, math.factorial(n), size=300))
        c_order, f_order = np.ascontiguousarray(perms), np.asfortranarray(perms)
        assert c_order.flags.c_contiguous and f_order.flags.f_contiguous
        assert np.array_equal(K.batch_rank(c_order), K.batch_rank(f_order))


class TestSignedKernels:
    def test_sunrank_matches_scalar_exhaustive(self):
        for n in range(1, 5):
            size = math.factorial(n) << n
            batch = K.batch_sunrank(n, np.arange(size, dtype=np.int64))
            for r in range(size):
                assert tuple(int(x) for x in batch[r]) == sunrank(n, r).entries

    def test_srank_roundtrip_exhaustive(self):
        for n in range(1, 5):
            size = math.factorial(n) << n
            batch = K.batch_sunrank(n, np.arange(size, dtype=np.int64))
            assert np.array_equal(K.batch_srank(batch), np.arange(size))

    def test_srank_random_large_n(self):
        rng = np.random.default_rng(13)
        # 16 is the largest n whose signed ranks fit in int64
        for n in (6, 8, 10, 12, 16):
            size = math.factorial(n) << n
            ranks = rng.integers(0, size, size=500, dtype=np.int64)
            perms = K.batch_sunrank(n, ranks)
            for row, r in zip(perms, ranks):
                assert tuple(int(x) for x in row) == sunrank(n, int(r)).entries
            assert np.array_equal(K.batch_srank(perms), ranks)

    @pytest.mark.parametrize("n", [8, 9, 10, 11, 12, 13, 16])
    def test_roundtrip_at_sign_word_and_accumulator_edge(self, n):
        # n = 8 is the last uint8 sign word and 9 the first uint16 one;
        # 9! * 2**9 < 2**31 <= 10! * 2**10: 9 is the last signed rank finished
        # in int32, and 10 and 11 widen an int32 unsigned part to shift in the
        # signs in int64; the unsigned part switches from int32 to int64 after
        # 12; 16 is the last n whose signed ranks fit in int64
        ranks = edge_ranks(math.factorial(n) << n)
        before = ranks.copy()
        perms = K.batch_sunrank(n, ranks)
        assert np.array_equal(ranks, before)
        expected = [sunrank(n, int(r)).entries for r in ranks]
        assert [tuple(row) for row in perms.tolist()] == expected
        assert_ranks_back(K.batch_srank, expected, np.int8, ranks)

    @pytest.mark.parametrize("n", [8, 9])
    def test_srank_matches_scalar_over_every_sign_pattern(self, n):
        # every sign bit position must land where perms.srank puts it, in the
        # uint8 (n = 8) and the uint16 (n = 9) sign word
        rng = np.random.default_rng(41 + n)
        patterns = np.arange(1 << n)
        bits = (patterns[:, None] >> np.arange(n)) & 1
        for entries in ([*range(1, n + 1)], [*range(n, 0, -1)], list(rng.permutation(n) + 1)):
            rows = np.where(bits == 1, -np.array(entries), np.array(entries))
            expected = [srank(SignedPerm(tuple(int(x) for x in row))) for row in rows]
            assert_ranks_back(K.batch_srank, rows, np.int8, expected)

    def test_refuses_ranks_beyond_int64(self):
        # 17! << 17 > 2**63, and a uint16 word holds 16 sign bits
        with pytest.raises(ValueError, match="n <= 16"):
            K.batch_sunrank(17, np.zeros(1, dtype=np.int64))
        with pytest.raises(ValueError, match="n <= 16"):
            K.batch_srank(-np.arange(1, 18, dtype=np.int8).reshape(1, 17))

    def test_signed_flip_matches_scalar(self):
        rng = np.random.default_rng(17)
        n = 5
        size = math.factorial(n) << n
        ranks = rng.integers(0, size, size=200, dtype=np.int64)
        perms = K.batch_sunrank(n, ranks)
        for i in range(1, n + 1):
            flipped = K.batch_signed_flip(perms, i)
            for row_in, row_out in zip(perms, flipped):
                s = SignedPerm(tuple(int(x) for x in row_in))
                assert tuple(int(x) for x in row_out) == apply_signed_flip(s, i).entries

    def test_srank_of_flip_matches_scalar_exhaustive(self):
        for n in range(1, 6):
            size = math.factorial(n) << n
            perms = K.batch_sunrank(n, np.arange(size, dtype=np.int64))
            scalar = [sunrank(n, r) for r in range(size)]
            for i in range(1, n + 1):
                expected = [srank(apply_signed_flip(s, i)) for s in scalar]
                assert K.batch_srank(K.batch_signed_flip(perms, i)).tolist() == expected

    def test_srank_ignores_memory_order(self):
        rng = np.random.default_rng(31)
        n = 7
        perms = K.batch_sunrank(n, rng.integers(0, math.factorial(n) << n, size=300))
        c_order, f_order = np.ascontiguousarray(perms), np.asfortranarray(perms)
        assert c_order.flags.c_contiguous and f_order.flags.f_contiguous
        assert np.array_equal(K.batch_srank(c_order), K.batch_srank(f_order))

    def test_flip_involution_batchwise(self):
        n = 6
        size = math.factorial(n) << n
        rng = np.random.default_rng(19)
        ranks = rng.integers(0, size, size=300, dtype=np.int64)
        perms = K.batch_sunrank(n, ranks)
        for i in range(1, n + 1):
            assert np.array_equal(K.batch_signed_flip(K.batch_signed_flip(perms, i), i), perms)


def flip_ranks(n, ranks, signed, state=None):
    """Each flip's ranks, in ascending order, from one FlipRanks loaded with
    ``ranks``, as the search ranks a chunk."""
    if state is None:
        state = K.FlipRanks(n, ranks.size, signed=signed)
    perms = state.load(ranks)
    out = {}
    for i in range(1 if signed else 2, n + 1):
        got = K.batch_rank(perms, i, state)
        assert got.dtype == np.int64 and got.shape == ranks.shape
        out[i] = got.copy()  # the next flip overwrites it
    return out


def flipped_ranks(n, ranks, signed):
    """Each flip's ranks from a flipped copy of the batch, ranked whole by
    Lehmer counts that share no code with :class:`FlipRanks`."""
    if signed:
        perms = K.batch_sunrank(n, ranks)
        return {i: K.batch_srank(K.batch_signed_flip(perms, i)) for i in range(1, n + 1)}
    perms = K.batch_unrank(n, ranks)
    return {i: K.batch_rank(K.batch_flip(perms, i)) for i in range(2, n + 1)}


def ranks_with_ends(size):
    """Lists of ranks below ``size`` that often hold its first and last rank."""
    rank = st.one_of(st.integers(0, size - 1), st.sampled_from([0, size - 1]))
    return st.lists(rank, max_size=40).map(lambda r: np.array(r, dtype=np.int64))


class TestFlipRanks:
    def test_plain_flips_match_scalar_exhaustive(self):
        for n in range(2, 8):
            got = flip_ranks(n, np.arange(math.factorial(n), dtype=np.int64), signed=False)
            scalar = [unrank(n, r) for r in range(math.factorial(n))]
            for i in range(2, n + 1):
                assert got[i].tolist() == [rank(apply_flip(p, i)) for p in scalar], (n, i)

    def test_signed_flips_match_scalar_exhaustive(self):
        for n in range(1, 6):
            size = math.factorial(n) << n
            got = flip_ranks(n, np.arange(size, dtype=np.int64), signed=True)
            scalar = [sunrank(n, r) for r in range(size)]
            for i in range(1, n + 1):
                assert got[i].tolist() == [srank(apply_signed_flip(s, i)) for s in scalar], (n, i)

    # 8! <= 2**16 < 9!: a flip's digits fold in one uint16 run up to n = 8 and
    # in two from 9; 12 and 13 hold the tail and the sum in int32, then int64;
    # 20 is the plain limit
    @pytest.mark.parametrize("n", [8, 9, 12, 13, 20])
    @settings(deadline=None)
    @given(data=st.data())
    def test_plain_at_dtype_edges(self, n, data):
        ranks = data.draw(ranks_with_ends(math.factorial(n)))
        expected = flipped_ranks(n, ranks, signed=False)
        for i, got in flip_ranks(n, ranks, signed=False).items():
            assert np.array_equal(got, expected[i]), i

    # a uint8 sign word up to n = 8, uint16 from 9; the sum in int32 up to
    # n = 9 (9! * 2**9 < 2**31), int64 from 10; 16 is the signed limit
    @pytest.mark.parametrize("n", [8, 9, 10, 16])
    @settings(deadline=None)
    @given(data=st.data())
    def test_signed_at_dtype_edges(self, n, data):
        ranks = data.draw(ranks_with_ends(math.factorial(n) << n))
        expected = flipped_ranks(n, ranks, signed=True)
        for i, got in flip_ranks(n, ranks, signed=True).items():
            assert np.array_equal(got, expected[i]), i

    @pytest.mark.parametrize("signed", [False, True])
    def test_chunks_of_no_rank_and_of_one(self, signed):
        n = 7
        size = math.factorial(n) << (n if signed else 0)
        empty = flip_ranks(n, np.zeros(0, dtype=np.int64), signed)
        assert all(got.size == 0 for got in empty.values())
        for r in (0, 1234, size - 1):
            one = np.array([r], dtype=np.int64)
            expected = flipped_ranks(n, one, signed)
            assert {i: got.tolist() for i, got in flip_ranks(n, one, signed).items()} == {
                i: ranks.tolist() for i, ranks in expected.items()
            }

    @pytest.mark.parametrize("signed", [False, True])
    def test_state_serves_a_shorter_batch_after_a_full_one(self, signed):
        # the search reuses one state for every chunk, the last one shorter
        n = 9
        size = math.factorial(n) << (n if signed else 0)
        ranks = np.random.default_rng(53).integers(0, size, size=1000, dtype=np.int64)
        state = K.FlipRanks(n, 1000, signed=signed)
        for batch in (ranks, ranks[:337], ranks[1:2]):
            got = flip_ranks(n, batch, signed, state)
            expected = flipped_ranks(n, batch, signed)
            assert all(np.array_equal(got[i], expected[i]) for i in got)

    @pytest.mark.parametrize(
        "n, signed", [(n, False) for n in range(1, 8)] + [(n, True) for n in range(1, 6)]
    )
    def test_compacted_rows_rank_as_flipped_copies(self, n, signed):
        # the bottom-up search drops matched rows between flips; every flip
        # after a compaction must still rank the rows that are left exactly
        size = math.factorial(n) << (n if signed else 0)
        ranks = np.arange(size, dtype=np.int64)
        expected = flipped_ranks(n, ranks, signed)
        rng = np.random.default_rng(1000 * n + signed)
        # a share of 1.0 drops every row at the first flip: the later flips
        # rank an empty batch
        for share in (0.0, 0.3, 0.7, 1.0):
            state = K.FlipRanks(n, size, signed=signed)
            perms = state.load(ranks.copy())  # compact overwrites the ranks
            rows = np.arange(size)  # the original row of each row left
            for i in range(1 if signed else 2, n + 1):
                got = K.batch_rank(perms, i, state)
                assert np.array_equal(got, expected[i][rows]), (share, i)
                index = np.flatnonzero(rng.random(rows.size) >= share)
                perms = state.compact(index)
                rows = rows[index]
                assert perms.shape == (rows.size, n)
                assert np.array_equal(state.ranks, ranks[rows]), (share, i)

    @pytest.mark.parametrize("signed", [False, True])
    def test_load_releases_the_previous_batch(self, monkeypatch, signed):
        # the search's memory charge holds one batch: once the caller drops
        # a chunk's batch, loading the next one frees it before unranking
        n = 7
        size = math.factorial(n) << (n if signed else 0)
        ranks = np.arange(0, size, 97, dtype=np.int64)
        state = K.FlipRanks(n, ranks.size, signed=signed)
        perms = state.load(ranks.copy())  # compact overwrites the ranks
        K.batch_rank(perms, 3, state)
        perms = state.compact(np.arange(0, ranks.size, 2))
        old = weakref.ref(perms)
        del perms
        assert old() is not None  # the state holds its batch
        unrank, alive = K.batch_unrank, []

        def unranking(*args):
            alive.append(old() is not None)
            return unrank(*args)

        monkeypatch.setattr(K, "batch_unrank", unranking)
        perms = state.load(ranks[1:])
        assert alive == [False] and old() is None
        expected = flipped_ranks(n, ranks[1:], signed)[3]
        assert np.array_equal(K.batch_rank(perms, 3, state), expected)

    def test_release_drops_the_batch_and_its_ranks(self):
        ranks = np.arange(40, dtype=np.int64)
        state = K.FlipRanks(5, 40)
        perms = state.load(ranks[10:])
        batch, block = weakref.ref(perms.base), weakref.ref(ranks)
        state.release()
        assert state.ranks is None
        with pytest.raises(ValueError, match="another batch"):
            K.batch_rank(perms, 2, state)
        del perms, ranks
        assert batch() is None and block() is None
        # the buffers serve the next load
        perms = state.load(np.arange(5, dtype=np.int64))
        assert np.array_equal(K.batch_rank(perms, 2, state), K.batch_rank(K.batch_flip(perms, 2)))

    def test_refuses_descending_flips_and_another_batch(self):
        n = 6
        ranks = np.arange(50, dtype=np.int64)
        state = K.FlipRanks(n, 50)
        perms = state.load(ranks)
        K.batch_rank(perms, 4, state)
        with pytest.raises(ValueError, match="flips must ascend"):
            K.batch_rank(perms, 3, state)
        with pytest.raises(ValueError, match="another batch"):
            K.batch_rank(K.batch_unrank(n, ranks), 5, state)

    def test_batch_rank_refuses_a_flip_without_its_state(self):
        # a flip without a state would rank the unflipped rows, and a state
        # without a flip would fail inside the step loop
        n = 6
        ranks = np.arange(50, dtype=np.int64)
        state = K.FlipRanks(n, 50)
        perms = state.load(ranks)
        with pytest.raises(ValueError, match="needs the state"):
            K.batch_rank(perms, 3)
        with pytest.raises(ValueError, match="no flip was given"):
            K.batch_rank(perms, None, state)
        with pytest.raises(ValueError, match="no flip was given"):
            K.batch_rank(perms, state=state)
        # both valid forms still rank
        assert np.array_equal(K.batch_rank(perms), ranks)
        assert np.array_equal(K.batch_rank(perms, 3, state), K.batch_rank(K.batch_flip(perms, 3)))

    def test_refuses_ranks_beyond_int64(self):
        with pytest.raises(ValueError, match="n <= 20"):
            K.FlipRanks(21, 1)
        with pytest.raises(ValueError, match="n <= 16"):
            K.FlipRanks(17, 1, signed=True)


class TestBitsets:
    def test_set_test_extract_roundtrip(self):
        words = K.bitset_alloc(1000)
        ranks = np.array([0, 1, 63, 64, 65, 511, 999], dtype=np.int64)
        K.bitset_set(words, ranks)
        assert K.bitset_popcount(words) == len(ranks)
        assert K.bitset_test(words, ranks).all()
        assert not K.bitset_test(words, np.array([2, 62, 66, 998], dtype=np.int64)).any()
        assert np.array_equal(K.bitset_extract_ranks(words), ranks)

    def test_test_matches_word_formula(self):
        # the kernel reads bytes of a uint8 view; every bit position of the
        # first, a middle and the last word must agree with the uint64 words
        rng = np.random.default_rng(37)
        words = rng.integers(0, 2**64, size=101, dtype=np.uint64)
        ranks = np.array([64 * w + b for w in (0, 50, 100) for b in range(64)])
        expected = (words[ranks >> 6] >> (ranks & 63).astype(np.uint64)) & np.uint64(1) == 1
        got = K.bitset_test(words, ranks)
        assert got.dtype == np.bool_
        assert np.array_equal(got, expected)
        assert 0 < expected.sum() < expected.size

    def test_set_matches_word_formula(self):
        # the kernel ORs bytes of a uint8 view; each bit position of the
        # first, a middle and the last word, set alone, and a batch with
        # duplicates set onto random words must match the uint64 word formula
        def word_formula(words, ranks):
            bit = np.left_shift(np.uint64(1), (ranks & 63).astype(np.uint64))
            np.bitwise_or.at(words, ranks >> 6, bit)

        for r in [64 * w + b for w in (0, 50, 100) for b in range(64)]:
            got, expected = K.bitset_alloc(101 * 64), K.bitset_alloc(101 * 64)
            K.bitset_set(got, np.array([r]))
            word_formula(expected, np.array([r]))
            assert np.array_equal(got, expected), r
        rng = np.random.default_rng(43)
        words = rng.integers(0, 2**64, size=101, dtype=np.uint64)
        words[::3] = 0
        ranks = rng.integers(0, 101 * 64, size=3000)
        ranks = np.concatenate([ranks, ranks[:500], np.full(7, 101 * 64 - 1)])
        got, expected = words.copy(), words.copy()
        K.bitset_set(got, ranks)
        word_formula(expected, ranks)
        assert np.array_equal(got, expected)

    @staticmethod
    def assert_add_matches_set(words, ranks):
        """bitset_add of distinct ``ranks`` onto ``words`` equals bitset_set."""
        ranks = np.asarray(ranks, dtype=np.int64)
        got, expected = words.copy(), words.copy()
        K.bitset_add(got, ranks)
        K.bitset_set(expected, ranks)
        assert np.array_equal(got, expected)

    def test_add_matches_set_on_every_bit_of_a_word(self):
        # each bit position of the first, a middle and the last word, alone
        # onto empty words and onto full ones (already set: adds nothing),
        # and all of them at once
        ranks = [64 * w + b for w in (0, 50, 100) for b in range(64)]
        empty = K.bitset_alloc(101 * 64)
        full = np.full_like(empty, np.uint64(2**64 - 1))
        for r in ranks:
            self.assert_add_matches_set(empty, [r])
            self.assert_add_matches_set(full, [r])
        self.assert_add_matches_set(empty, ranks)

    def test_add_matches_set_on_partly_set_words(self):
        rng = np.random.default_rng(53)
        words = rng.integers(0, 2**64, size=101, dtype=np.uint64)
        words[::3] = 0
        ranks = rng.permutation(101 * 64)[:3000]
        self.assert_add_matches_set(words, ranks)
        # every rank already set: the words stay as they are
        held = K.bitset_extract_ranks(words)
        got = words.copy()
        K.bitset_add(got, rng.permutation(held))
        assert np.array_equal(got, words)

    def test_add_of_no_rank_and_of_one(self):
        words = np.random.default_rng(59).integers(0, 2**64, size=4, dtype=np.uint64)
        self.assert_add_matches_set(words, [])
        for r in (0, 77, 4 * 64 - 1):
            self.assert_add_matches_set(words, [r])

    @settings(deadline=None)
    @given(data=st.data())
    def test_add_matches_set_across_a_byte_boundary(self, data):
        # a few bits on either side of each byte boundary of two words,
        # drawn distinct, onto words with some bits already set
        nbits = data.draw(st.sampled_from([1, 7, 8, 9, 16, 17, 64, 65, 128]))
        ranks = data.draw(st.lists(st.integers(0, nbits - 1), max_size=nbits, unique=True))
        held = data.draw(st.lists(st.integers(0, nbits - 1), max_size=nbits))
        words = K.bitset_alloc(nbits)
        K.bitset_set(words, np.array(held, dtype=np.int64))
        self.assert_add_matches_set(words, ranks)

    def test_duplicate_sets_idempotent(self):
        words = K.bitset_alloc(128)
        K.bitset_set(words, np.array([5, 5, 5, 70], dtype=np.int64))
        assert K.bitset_popcount(words) == 2

    def test_extract_with_offset(self):
        words = K.bitset_alloc(256)
        K.bitset_set(words, np.array([130, 200], dtype=np.int64))
        sub = words[2:]  # words 2.. hold bits 128..
        assert np.array_equal(K.bitset_extract_ranks(sub, word_offset=2), [130, 200])

    @pytest.mark.parametrize("offset", [0, 3, 1 << 40])
    def test_extract_matches_unpack_formula(self, offset):
        # blocks below half nonzero words unpack only those words; the rest,
        # and the first and last bits of a word, must come out the same
        def unpack_formula(words):
            bits = np.unpackbits(words.view(np.uint8), bitorder="little")
            return np.flatnonzero(bits).astype(np.int64) + 64 * offset

        nwords = 1 << 10
        rng = np.random.default_rng(47)
        blocks = [
            np.zeros(nwords, dtype=np.uint64),
            np.full(nwords, np.uint64(2**64 - 1)),
        ]
        for r in (0, 63, 64, 64 * nwords - 1):
            block = np.zeros(nwords, dtype=np.uint64)
            K.bitset_set(block, np.array([r]))
            blocks.append(block)
        for density in (1e-4, 1e-3, 1e-2, 0.1, 0.5):
            block = np.zeros(nwords, dtype=np.uint64)
            K.bitset_set(block, np.flatnonzero(rng.random(64 * nwords) < density))
            blocks.append(block)
        # a block whose nonzero words, under half of them, are full
        block = np.zeros(nwords, dtype=np.uint64)
        block[rng.random(nwords) < 0.4] = np.uint64(2**64 - 1)
        blocks.append(block)
        sparse = 0
        for block in blocks:
            got = K.bitset_extract_ranks(block, word_offset=offset)
            assert got.dtype == np.int64
            assert np.array_equal(got, unpack_formula(block))
            sparse += 2 * np.count_nonzero(block) < nwords
        assert 3 < sparse < len(blocks)

    def test_extract_peak_memory_per_bit(self):
        # One byte per bit unpacked plus the int64 ranks, and no second copy.
        bits = 1 << 21
        words = np.full(bits // 64, np.uint64(2**64 - 1), dtype=np.uint64)
        tracemalloc.start()
        try:
            ranks = K.bitset_extract_ranks(words)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ranks.size == bits and ranks.dtype == np.int64
        assert peak <= 10 * bits

    def test_sparse_extract_peak_memory_per_bit(self):
        # the sparse path's widest block has just under half its words full;
        # required_memory charges 9 bytes per bit of a block for extraction
        words = np.zeros(1 << 15, dtype=np.uint64)
        words[: (1 << 14) - 1] = np.uint64(2**64 - 1)
        tracemalloc.start()
        try:
            ranks = K.bitset_extract_ranks(words)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ranks.size == 64 * ((1 << 14) - 1)
        assert peak <= 9 * 64 * words.size

    def test_random_against_python_set(self):
        rng = np.random.default_rng(23)
        universe = 10_000
        ranks = rng.integers(0, universe, size=2000, dtype=np.int64)
        words = K.bitset_alloc(universe)
        K.bitset_set(words, ranks)
        expected = sorted(set(int(r) for r in ranks))
        assert K.bitset_popcount(words) == len(expected)
        assert np.array_equal(K.bitset_extract_ranks(words), expected)
