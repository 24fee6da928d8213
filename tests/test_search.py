"""Layered BFS profiles, checkpoint/resume, and the distance and sort queries."""

# searches with more than one worker import the thread pool on first use;
# loaded here, its module objects are not counted in their traced peaks
import concurrent.futures  # noqa: F401
import random
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    bfs_walk_reference,
    flip_by_composition,
    naive_distance_map,
    naive_layer_counts,
    signed_flip_reference,
)
from pancakes import _kernels, search
from pancakes._kernels import bitset_extract_ranks
from pancakes.checkpoint import (
    CheckpointError,
    _crc_tables,
    read_checkpoint,
    write_checkpoint,
)
from pancakes.graphs import GraphKind, PancakeGraph
from pancakes.perms import Perm, PermError, SignedPerm
from pancakes.search import (
    DEFAULT_MEMORY_LIMIT,
    MEMORY_LIMIT_ENV,
    LayerProfile,
    MemoryLimitError,
    distance,
    layer_profile,
    required_memory,
    resolve_memory_limit,
    resume,
    sort_sequence,
)
from pancakes.tables import known_counts

PLAIN = GraphKind.PLAIN
BURNT = GraphKind.BURNT
# graphs whose traced peak memory is checked against required_memory
PEAK_GRAPHS = [(PLAIN, n) for n in range(6, 11)] + [(BURNT, n) for n in range(4, 8)]
# graphs whose bitsets dominate the traced peak once the per-worker buffers
# are shrunk; the first three layers keep every bitset of a search alive
BITSET_GRAPHS = [(PLAIN, 10), (BURNT, 8)]


def traced_peak(run, *args, **kwargs):
    """Peak bytes traced by tracemalloc while ``run(*args, **kwargs)`` runs."""
    tracemalloc.start()
    try:
        run(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def graph(kind, n):
    return PancakeGraph(kind, n)


def apply_sequence(g, v, seq):
    for i in seq:
        v = g.apply(v, i)
    return v


def vertex(kind, entries):
    return SignedPerm(entries) if kind is BURNT else Perm(entries)


def greedy_descent(kind, entries, dist_map):
    """From ``entries`` to the identity, each step the smallest flip that
    lowers the distance by one."""
    burnt = kind is BURNT
    sequence = []
    while dist_map[entries]:
        for i in range(1 if burnt else 2, len(entries) + 1):
            step = signed_flip_reference(entries, i) if burnt else flip_by_composition(entries, i)
            if dist_map[step] == dist_map[entries] - 1:
                sequence.append(i)
                entries = step
                break
    return tuple(sequence)


def all_optimal_sequences(g, v, dist_map):
    """Every shortest flip sequence from v to the identity (small graphs only)."""
    d = dist_map[v.entries]
    if d == 0:
        return {()}
    out = set()
    for i in g.flip_indices:
        w = g.apply(v, i)
        if dist_map[w.entries] == d - 1:
            out |= {(i,) + rest for rest in all_optimal_sequences(g, w, dist_map)}
    return out


def bottom_up_layers(g, counts, chunk):
    """The layers the direction rule expands bottom-up, given the graph's
    layer counts: the frontier fills a chunk and holds more vertices than
    are left unvisited."""
    return [
        k
        for k, found in enumerate(counts)
        if found >= chunk and g.size - sum(counts[: k + 1]) < found
    ]


class TestLayerProfile:
    def test_plain_n4(self):
        assert layer_profile(graph(PLAIN, 4)).counts == (1, 3, 6, 11, 3)

    def test_burnt_n3(self):
        assert layer_profile(graph(BURNT, 3)).counts == (1, 3, 6, 12, 18, 6, 2)

    def test_burnt_n1(self):
        assert layer_profile(graph(BURNT, 1)).counts == (1, 1)

    def test_plain_n1_single_vertex(self):
        p = layer_profile(graph(PLAIN, 1))
        assert p.counts == (1,)
        assert p.complete

    def test_matches_naive_bfs_plain(self):
        for n in range(1, 8):
            expected = tuple(naive_layer_counts(n, burnt=False))
            assert layer_profile(graph(PLAIN, n)).counts == expected, n

    def test_matches_naive_bfs_burnt(self):
        for n in range(1, 6):
            expected = tuple(naive_layer_counts(n, burnt=True))
            assert layer_profile(graph(BURNT, n)).counts == expected, n

    def test_every_vertex_counted_once(self):
        for kind, n in [(PLAIN, 6), (BURNT, 4)]:
            p = layer_profile(graph(kind, n))
            assert p.total_visited == graph(kind, n).size
            assert p.complete

    def test_small_layer_polynomials_plain(self):
        for n in range(3, 8):
            counts = layer_profile(graph(PLAIN, n)).counts
            assert counts[0] == 1
            assert counts[1] == n - 1
            assert counts[2] == (n - 1) * (n - 2)
            assert counts[3] == (n - 1) * (n - 2) ** 2 - 1

    def test_small_layer_polynomials_burnt(self):
        for n in range(2, 6):
            counts = layer_profile(graph(BURNT, n)).counts
            assert counts[0] == 1
            assert counts[1] == n
            assert counts[2] == n * (n - 1)
            if n >= 3:
                assert counts[3] == n * (n - 1) ** 2

    def test_worker_count_does_not_change_profile(self):
        for kind, n in [(PLAIN, 6), (BURNT, 4)]:
            baseline = layer_profile(graph(kind, n), workers=1)
            for workers in (2, 3, 4, 7):
                assert layer_profile(graph(kind, n), workers=workers) == baseline

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind,n", [(PLAIN, 6), (BURNT, 4)])
    def test_kernel_work_matches_the_graph(self, monkeypatch, kind, n, workers):
        # as perfbench counts it: each vertex unranked once, each of its
        # neighbors ranked once and tested once; a family's calls made from
        # inside another of its calls (batch_sunrank -> batch_unrank) are not
        # counted again
        rows = {"unrank": 0, "rank": 0, "test": 0}
        lock = threading.Lock()
        inside = threading.local()

        def counting(family, kernel, batch):
            def call(*args, **kwargs):
                if getattr(inside, family, False):
                    return kernel(*args, **kwargs)
                setattr(inside, family, True)
                try:
                    return kernel(*args, **kwargs)
                finally:
                    setattr(inside, family, False)
                    with lock:
                        rows[family] += args[batch].shape[0]

            return call

        for name, family, batch in [
            ("batch_unrank", "unrank", 1),
            ("batch_sunrank", "unrank", 1),
            ("batch_rank", "rank", 0),
            ("batch_srank", "rank", 0),
            ("bitset_test", "test", 1),
        ]:
            monkeypatch.setattr(_kernels, name, counting(family, getattr(_kernels, name), batch))
        g = graph(kind, n)
        assert layer_profile(g, workers=workers).complete
        assert rows == {"unrank": g.size, "rank": g.degree * g.size, "test": g.degree * g.size}

    @pytest.mark.parametrize(
        "kind,n", [(PLAIN, n) for n in range(1, 8)] + [(BURNT, n) for n in range(1, 6)]
    )
    def test_no_fresh_array_repeats_a_rank(self, monkeypatch, kind, n):
        # _expand_span sets each array with bitset_add, which takes no rank
        # twice; chunks of 5 ranks put chunk boundaries inside every layer
        # of more than 5 vertices, and send the late layers bottom-up
        monkeypatch.setattr(search, "_CHUNK", 5)
        arrays = {"top-down": 0, "bottom-up": 0}

        def checked(direction, generator):
            def run(*args):
                for new in generator(*args):
                    assert np.unique(new).size == new.size
                    arrays[direction] += 1
                    yield new

            return run

        for name, direction in [
            ("_fresh_neighbors", "top-down"),
            ("_frontier_children", "bottom-up"),
        ]:
            monkeypatch.setattr(search, name, checked(direction, getattr(search, name)))
        g = graph(kind, n)
        profile = layer_profile(g)
        assert profile.counts == tuple(naive_layer_counts(n, burnt=kind is BURNT))
        # one top-down array per flip of each chunk of each top-down layer
        bottom_up = bottom_up_layers(g, profile.counts, 5)
        top_down = [c for k, c in enumerate(profile.counts) if k not in bottom_up]
        assert arrays["top-down"] == len(g.flip_indices) * sum(-(-c // 5) for c in top_down)
        # from P_5 and BP_3 on, some layer is bottom-up and finds vertices
        if g.size >= 48:
            assert arrays["bottom-up"] > 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_burnt_searches_build_no_signed_batch(self, monkeypatch, workers):
        # a signed state takes unsigned rows and reads the signs from the
        # ranks; chunks of 5 ranks send the late layers bottom-up and compact
        # their chunks between flips
        def refused(*args):
            raise AssertionError("a search built a signed batch")

        monkeypatch.setattr(_kernels, "batch_sunrank", refused)
        monkeypatch.setattr(search, "_CHUNK", 5)
        for n in range(1, 7):
            profile = layer_profile(graph(BURNT, n), workers=workers)
            assert profile.counts == tuple(naive_layer_counts(n, burnt=True)), n

    def test_profile_accessors(self):
        p = layer_profile(graph(PLAIN, 4))
        assert p.depth == 4
        assert p.graph == graph(PLAIN, 4)
        assert p.n == 4 and p.kind is PLAIN


# graphs whose every layer is expanded in both directions; many of their
# sizes are not multiples of 64 (P_5, P_7, BP_3 and more), so the last word
# of a bitset holds bits past the last rank
DIRECTION_GRAPHS = [(PLAIN, n) for n in range(1, 9)] + [(BURNT, n) for n in range(1, 7)]


class TestDirections:
    """Bottom-up layers: the unvisited vertices with a neighbor in the frontier."""

    def test_cases_include_a_partial_last_word(self):
        assert any(graph(kind, n).size % 64 for kind, n in DIRECTION_GRAPHS)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind,n", DIRECTION_GRAPHS)
    def test_bottom_up_finds_the_top_down_layer(self, monkeypatch, kind, n, workers):
        g = graph(kind, n)
        # small chunks and blocks put chunk and block boundaries inside
        # layers, and late layers leave whole blocks visited; P_8 and BP_6
        # take larger ones, or tiny kernel calls would take most of the run
        chunk, block_words = (37, 3) if g.size < 10_000 else (401, 16)
        monkeypatch.setattr(search, "_CHUNK", chunk)
        monkeypatch.setattr(search, "_BLOCK_WORDS", block_words)
        visited, frontier = search._start(g, None, workers, f"layer profile of {g}")
        nwords = visited.size
        spans = workers if nwords >= workers else 1  # as _expand_layer splits the words
        bounds = [nwords * w // spans for w in range(spans + 1)]
        blocks = [
            (lo, min(lo + block_words, hi))
            for lo, hi in zip(bounds, bounds[1:])
            for lo in range(lo, hi, block_words)
        ]
        counts, full_blocks = [1], 0
        while True:
            seen = np.unpackbits(visited.view(np.uint8), bitorder="little")[: g.size]
            full_blocks += sum(bool(seen[64 * lo : 64 * hi].all()) for lo, hi in blocks)
            del seen
            top_down = search._expand_layer(g, visited, frontier, workers, False)
            bottom_up = search._expand_layer(g, visited, frontier, workers, True)
            assert np.array_equal(bottom_up, top_down), len(counts)
            found = _kernels.bitset_popcount(top_down)
            if not found:
                break
            counts.append(found)
            np.bitwise_or(visited, top_down, out=visited)
            frontier = top_down
        assert counts == naive_layer_counts(n, burnt=kind is BURNT)
        # blocks with no unvisited vertex below the graph's size: the last
        # expansion, after which every vertex is visited, meets only those
        assert full_blocks >= len(blocks)
        # from P_6 and BP_4 on, some block is full while layers remain
        if g.size >= 384:
            assert full_blocks > len(blocks)

    @pytest.mark.parametrize(
        "kind, n, expected", [(PLAIN, 10, [9, 10, 11]), (BURNT, 8, [10, 11, 12])]
    )
    def test_late_layers_of_the_largest_tables_go_bottom_up(
        self, monkeypatch, tmp_path, kind, n, expected
    ):
        g = graph(kind, n)
        ran = []
        expand = search._expand_layer

        def recording(*args):
            ran.append(args[-1])  # bottom_up
            return expand(*args)

        monkeypatch.setattr(search, "_expand_layer", recording)
        # a fresh run to the first bottom-up layer, then resumes one layer at
        # a time, keeping the checkpoint at each bottom-up layer
        path = tmp_path / "g.ckpt"
        layer_profile(g, checkpoint_path=path, max_layer=expected[0])
        saved = {}
        for k in expected:
            saved[k] = path.read_bytes()
            resume(path, max_layer=k + 1)
        full = resume(path)
        published = known_counts(kind)[n]
        assert full.complete
        assert full.counts[: len(published)] == published[: len(full.counts)]
        # the rule on the layer counts, the published row for the layers it
        # has, picks exactly the layers that ran bottom-up
        assert [k for k, up in enumerate(ran) if up] == expected
        assert bottom_up_layers(g, full.counts, search._CHUNK) == expected
        assert bottom_up_layers(g, published, search._CHUNK) == [
            k for k in expected if k < len(published)
        ]
        for k, data in saved.items():
            copy = tmp_path / f"layer{k}.ckpt"
            copy.write_bytes(data)
            ran.clear()
            assert resume(copy) == full
            assert [k + j for j, up in enumerate(ran) if up] == expected[expected.index(k) :]


class TestMemoryAccounting:
    def test_refuses_oversized_run(self):
        with pytest.raises(MemoryLimitError) as info:
            layer_profile(graph(PLAIN, 11), memory_limit=10_000)
        assert info.value.required > 10_000
        assert info.value.limit == 10_000
        assert "bytes" in str(info.value)

    def test_distance_and_sort_answer_without_bitsets(self):
        g = graph(PLAIN, 11)
        target = Perm((2, 1) + tuple(range(3, 12)))
        assert distance(g, target, memory_limit=10_000) == 1
        assert sort_sequence(g, target, memory_limit=10_000) == (2,)
        # one P_11 bitset is 4,989,600 bytes
        for query in (distance, sort_sequence):
            assert traced_peak(query, g, target, memory_limit=10_000) < 64 << 10

    def test_estimate_grows_with_workers_and_layer_map(self):
        g = graph(BURNT, 6)
        assert required_memory(g, workers=4) > required_memory(g, workers=1)
        assert required_memory(g, with_layer_map=True) > required_memory(g)

    @pytest.mark.parametrize("kind,n", [(PLAIN, 13), (BURNT, 10)])
    def test_largest_graphs_fit_default_limit(self, kind, n):
        assert required_memory(graph(kind, n)) < DEFAULT_MEMORY_LIMIT

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind,n", PEAK_GRAPHS)
    def test_estimate_covers_traced_peak(self, kind, n, workers):
        g = graph(kind, n)
        tracemalloc.start()
        try:
            layer_profile(g, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= required_memory(g, workers=workers)

    @pytest.mark.parametrize("kind,n", BITSET_GRAPHS)
    def test_chunk_charge_covers_a_pass_of_the_expansion_loop(self, kind, n):
        # 2**18 ranks go through one FlipRanks chunk by chunk; nothing is seen,
        # so np.compress keeps every neighbor, its widest result
        g = graph(kind, n)
        ranks = np.sort(np.random.default_rng(n).integers(0, g.size, size=1 << 18))
        visited, cand = _kernels.bitset_alloc(g.size), _kernels.bitset_alloc(g.size)

        def seen(r):
            return _kernels.bitset_test(visited, r)

        def one_pass():
            for fresh in search._fresh_neighbors(g, ranks, seen):
                _kernels.bitset_add(cand, fresh)
                del fresh

        assert traced_peak(one_pass) <= search._chunk_bytes(g, search._CHUNK)
        assert _kernels.bitset_popcount(cand) > 0

    @pytest.mark.parametrize("density", [1.0, 0.3])
    @pytest.mark.parametrize("kind,n", BITSET_GRAPHS)
    def test_chunk_charge_covers_a_bottom_up_pass(self, kind, n, density):
        # 2**18 unvisited ranks go through the bottom-up loop; a full frontier
        # matches every row at the first flip, the widest set of children,
        # and a partial one compacts the chunks between flips
        g = graph(kind, n)
        rng = np.random.default_rng(n)
        ranks = np.unique(rng.integers(0, g.size, size=1 << 18))
        frontier, cand = _kernels.bitset_alloc(g.size), _kernels.bitset_alloc(g.size)
        _kernels.bitset_set(frontier, np.flatnonzero(rng.random(g.size) < density))

        def one_pass():
            for children in search._frontier_children(g, ranks, frontier):
                _kernels.bitset_add(cand, children)
                del children

        assert traced_peak(one_pass) <= search._chunk_bytes(g, search._CHUNK)
        assert _kernels.bitset_popcount(cand) > 0

    @pytest.fixture(scope="class")
    def last_layer_vertex(self, tmp_path_factory):
        """A vertex of the graph's last layer, read from a checkpoint's frontier."""
        found = {}

        def vertex(g):
            if g not in found:
                path = tmp_path_factory.mktemp("last") / "g.ckpt"
                layer_profile(g, max_layer=layer_profile(g).depth, checkpoint_path=path)
                frontier = read_checkpoint(path).frontier
                found[g] = g.unrank(int(bitset_extract_ranks(frontier)[0]))
            return found[g]

        return vertex

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind,n", PEAK_GRAPHS)
    def test_estimate_covers_traced_peak_of_queries(
        self, kind, n, workers, last_layer_vertex
    ):
        # the queries hold no bitsets; a last-layer target gives IDA* its
        # deepest search, and its peak stays within the bitset estimate
        g = graph(kind, n)
        target = last_layer_vertex(g)
        tracemalloc.start()
        try:
            distance(g, target, workers=workers)
            sort_sequence(g, target, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= required_memory(g, workers=workers, with_layer_map=True)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind,n", BITSET_GRAPHS)
    def test_estimate_counts_every_live_bitset(
        self, kind, n, workers, monkeypatch, tmp_path
    ):
        # at the real sizes the chunk and block buffers are tens of MB and
        # would hide a bitset the estimate missed, or one it charges for
        # nothing; here one bitset is over a fifth of the peak, so the bound
        # from above catches a phantom one
        monkeypatch.setattr(search, "_CHUNK", 1 << 10)
        monkeypatch.setattr(search, "_BLOCK_WORDS", 1 << 4)

        def traced_cold(run, *args, **kwargs):
            # the checksum tables are built inside the traced run, whatever
            # ran before it in this process
            _crc_tables.cache_clear()
            return traced_peak(run, *args, **kwargs)

        g = graph(kind, n)
        path = tmp_path / "g.ckpt"
        estimate = required_memory(g, workers=workers)
        peak = traced_cold(
            layer_profile, g, workers=workers, checkpoint_path=path, max_layer=3
        )
        assert peak <= estimate <= 1.25 * peak
        target = g.unrank(int(bitset_extract_ranks(read_checkpoint(path).frontier)[0]))
        layer_profile(g, checkpoint_path=path, max_layer=1)
        peak = traced_cold(resume, path, workers=workers, max_layer=3)
        assert peak <= estimate <= 1.25 * peak
        peak = traced_cold(sort_sequence, g, target, workers=workers)
        assert peak <= required_memory(g, workers=workers, with_layer_map=True)

    def test_refused_resume_reads_no_bitset(self, tmp_path):
        g = graph(PLAIN, 10)
        path = tmp_path / "p10.ckpt"
        layer_profile(g, checkpoint_path=path, max_layer=1)

        def refused():
            with pytest.raises(MemoryLimitError):
                resume(path, memory_limit=10_000)

        # one P_10 bitset is 453,600 bytes
        assert traced_peak(refused) < (g.size + 7) // 8

    def test_env_variable_sets_default(self, monkeypatch):
        monkeypatch.setenv(MEMORY_LIMIT_ENV, "5000")
        with pytest.raises(MemoryLimitError) as info:
            layer_profile(graph(PLAIN, 8))
        assert info.value.limit == 5000
        # an explicit limit wins over the environment
        assert layer_profile(graph(PLAIN, 4), memory_limit=50_000_000).complete

    def test_env_variable_must_be_integer(self, monkeypatch):
        monkeypatch.setenv(MEMORY_LIMIT_ENV, "lots")
        with pytest.raises(ValueError, match="lots"):
            resolve_memory_limit(None)

    def test_default_limit(self, monkeypatch):
        monkeypatch.delenv(MEMORY_LIMIT_ENV, raising=False)
        assert resolve_memory_limit(None) == DEFAULT_MEMORY_LIMIT == 4 * 2**30
        assert resolve_memory_limit(123) == 123


def ball_layer_bytes(g, counts, max_layer):
    """What the ball engine charges to expand each of layers 0..max_layer-1,
    given the graph's true layer counts."""
    return [
        search._ball_bytes(
            g,
            (counts[k - 1] if k else 0) + counts[k],
            counts[k],
            g.degree if k == 0 else g.degree - 1,
        )
        for k in range(max_layer)
    ]


class TestBallEngine:
    """First-K-layer profiles from sorted rank arrays of the last two layers."""

    @pytest.mark.parametrize("kind, top", [(PLAIN, 8), (BURNT, 6)])
    def test_every_layer_bound_matches_the_bitset_profile(self, profiles, kind, top):
        for n in range(1, top + 1):
            full = profiles(kind, n)
            for k in range(full.depth + 2):
                ball = search._ball_counts(graph(kind, n), k, None)
                assert ball == list(full.counts[: k + 1]), (n, k)

    @pytest.mark.parametrize(
        "kind, n, layers",
        [(PLAIN, 9, None), (BURNT, 7, None), (PLAIN, 10, range(7)), (BURNT, 8, range(7))],
    )
    def test_larger_graphs_match_the_bitset_profile(self, profiles, kind, n, layers):
        full = profiles(kind, n)
        for k in layers or [full.depth + 1]:
            assert search._ball_counts(graph(kind, n), k, None) == list(full.counts[: k + 1])

    @pytest.mark.parametrize(
        "kind, top, max_layer",
        [(PLAIN, 14, 5), (PLAIN, 20, 4), (BURNT, 12, 5), (BURNT, 16, 4)],
    )
    def test_reproduces_published_cells(self, kind, top, max_layer):
        for n in range(1, top + 1):
            p = layer_profile(graph(kind, n), max_layer=max_layer)
            counts = p.counts + (0,) * (max_layer + 1 - len(p.counts))
            assert len(p.counts) == max_layer + 1 or p.complete
            assert counts == known_counts(kind)[n][: max_layer + 1], n

    @pytest.mark.parametrize(
        "kind, n, max_layer, checkpoint, engine",
        [
            (PLAIN, 10, 4, False, "ball"),
            (PLAIN, 10, 7, False, "bitset"),
            (BURNT, 8, 8, False, "bitset"),
            (PLAIN, 10, 4, True, "bitset"),
            (PLAIN, 10, None, False, "bitset"),
        ],
    )
    def test_engine_choice(self, monkeypatch, tmp_path, kind, n, max_layer, checkpoint, engine):
        class Ran(Exception):
            pass

        def ran(name):
            def run(*args, **kwargs):
                raise Ran(name)

            return run

        monkeypatch.setattr(search, "_ball_counts", ran("ball"))
        monkeypatch.setattr(search, "_start", ran("bitset"))
        path = tmp_path / "g.ckpt" if checkpoint else None
        # the choice ignores workers: at 2 the bitset estimate of P_10 grows
        # past the ball's for K=7, yet the bitset engine is still the faster
        for workers in (1, 2):
            with pytest.raises(Ran) as info:
                layer_profile(
                    graph(kind, n), max_layer=max_layer, checkpoint_path=path, workers=workers
                )
            assert str(info.value) == engine, workers

    @pytest.mark.parametrize(
        "kind, n, max_layer", [(PLAIN, 13, 6), (BURNT, 12, 6), (PLAIN, 20, 4), (BURNT, 16, 4)]
    )
    def test_estimate_covers_traced_peak(self, kind, n, max_layer):
        # a limit of exactly the largest per-layer charge lets the run finish
        g = graph(kind, n)
        required = max(ball_layer_bytes(g, known_counts(kind)[n], max_layer))
        peak = traced_peak(layer_profile, g, max_layer=max_layer, memory_limit=required)
        assert peak <= required <= search._ball_estimate(g, max_layer)

    def test_refuses_before_expanding_the_layer_over_the_limit(self, monkeypatch):
        g = graph(PLAIN, 12)
        counts = known_counts(PLAIN)[12]
        charges = ball_layer_bytes(g, counts, 5)
        assert charges == sorted(charges)
        unranked = []
        unrank = _kernels.batch_unrank

        def counting_unrank(n, ranks):
            unranked.append(ranks.size)
            return unrank(n, ranks)

        monkeypatch.setattr(_kernels, "batch_unrank", counting_unrank)
        with pytest.raises(MemoryLimitError, match="expanding layer 3 of P_12") as info:
            layer_profile(g, max_layer=5, memory_limit=charges[3] - 1)
        assert info.value.required == charges[3]
        assert sum(unranked) == sum(counts[:3])

    @pytest.mark.parametrize("kind, n, widest", [(PLAIN, 21, 20), (BURNT, 17, 16)])
    def test_refuses_ranks_beyond_int64(self, monkeypatch, kind, n, widest):
        monkeypatch.setattr(_kernels, "batch_unrank", None)  # no kernel may run
        for max_layer in (2, None):
            with pytest.raises(ValueError, match=f"{kind} graphs support n <= {widest}"):
                layer_profile(graph(kind, n), max_layer=max_layer)


class TestCheckpointing:
    def test_completed_run_leaves_terminal_checkpoint(self, tmp_path):
        path = tmp_path / "p5.ckpt"
        profile = layer_profile(graph(PLAIN, 5), checkpoint_path=path)
        cp = read_checkpoint(path)
        assert cp.terminal
        assert cp.counts == profile.counts
        assert int(np.bitwise_count(cp.visited).sum()) == graph(PLAIN, 5).size

    def test_max_layer_stops_early(self, tmp_path):
        path = tmp_path / "p6.ckpt"
        partial = layer_profile(graph(PLAIN, 6), max_layer=3, checkpoint_path=path)
        assert len(partial.counts) == 4
        assert not partial.complete
        cp = read_checkpoint(path)
        assert cp.completed_layer == 3
        assert not cp.terminal

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        direct = layer_profile(graph(PLAIN, 6))
        path = tmp_path / "p6.ckpt"
        layer_profile(graph(PLAIN, 6), max_layer=3, checkpoint_path=path)
        resumed = resume(path)
        assert resumed == direct
        assert read_checkpoint(path).terminal

    def test_resume_burnt(self, tmp_path):
        direct = layer_profile(graph(BURNT, 4))
        path = tmp_path / "b4.ckpt"
        layer_profile(graph(BURNT, 4), max_layer=2, checkpoint_path=path)
        assert resume(path) == direct

    def test_resume_from_terminal_checkpoint_is_immediate(self, tmp_path):
        path = tmp_path / "p5.ckpt"
        profile = layer_profile(graph(PLAIN, 5), checkpoint_path=path)
        # a 1-byte memory limit proves no search state gets allocated
        assert resume(path, memory_limit=1) == profile

    def test_resume_rejects_mismatched_graph(self, tmp_path):
        path = tmp_path / "p5.ckpt"
        layer_profile(graph(PLAIN, 5), max_layer=2, checkpoint_path=path)
        with pytest.raises(CheckpointError, match="expected"):
            resume(path, expect=graph(BURNT, 5))
        with pytest.raises(CheckpointError, match="expected"):
            resume(path, expect=graph(PLAIN, 6))
        assert resume(path, expect=graph(PLAIN, 5)).complete

    def test_interrupt_at_final_layer_then_resume(self, tmp_path):
        # Cutting exactly at the last layer leaves a non-terminal checkpoint
        # whose counts are already complete; resuming just confirms that.
        path = tmp_path / "p4.ckpt"
        partial = layer_profile(graph(PLAIN, 4), max_layer=4, checkpoint_path=path)
        assert partial.counts == (1, 3, 6, 11, 3)
        assert partial.complete  # all 24 vertices seen
        assert not read_checkpoint(path).terminal
        resumed = resume(path)
        assert resumed.counts == partial.counts
        assert read_checkpoint(path).terminal

    def test_negative_max_layer_is_refused(self, tmp_path):
        path = tmp_path / "p5.ckpt"
        layer_profile(graph(PLAIN, 5), max_layer=2, checkpoint_path=path)
        before = path.read_bytes()
        for kwargs in ({}, {"checkpoint_path": tmp_path / "new.ckpt"}):
            with pytest.raises(ValueError, match="max_layer"):
                layer_profile(graph(PLAIN, 5), max_layer=-1, **kwargs)
        with pytest.raises(ValueError, match="max_layer"):
            resume(path, max_layer=-1)
        # refused before any file is written or read
        assert not (tmp_path / "new.ckpt").exists()
        with pytest.raises(ValueError, match="max_layer"):
            resume(tmp_path / "missing.ckpt", max_layer=-1)
        assert path.read_bytes() == before

    def test_workers_below_one_are_refused(self, tmp_path):
        # a search charged for no worker's buffers would still run on one
        g = graph(PLAIN, 9)
        path = tmp_path / "p5.ckpt"
        layer_profile(graph(PLAIN, 5), max_layer=2, checkpoint_path=path)
        before = path.read_bytes()
        for workers in (0, -1):
            with pytest.raises(ValueError, match="workers"):
                required_memory(g, workers=workers)
            for kwargs in ({}, {"max_layer": 2}, {"checkpoint_path": tmp_path / "new.ckpt"}):
                with pytest.raises(ValueError, match="workers"):
                    layer_profile(g, workers=workers, memory_limit=1 << 30, **kwargs)
            with pytest.raises(ValueError, match="workers"):
                resume(path, workers=workers)
            # refused before any file is written or read
            with pytest.raises(ValueError, match="workers"):
                resume(tmp_path / "missing.ckpt", workers=workers)
        assert not (tmp_path / "new.ckpt").exists()
        assert path.read_bytes() == before
        assert resume(path) == layer_profile(graph(PLAIN, 5))

    def test_resume_with_workers(self, tmp_path):
        direct = layer_profile(graph(PLAIN, 6))
        path = tmp_path / "p6.ckpt"
        layer_profile(graph(PLAIN, 6), max_layer=2, checkpoint_path=path, workers=3)
        assert resume(path, workers=4) == direct


class TestCheckpointWrites:
    """The completed layer of every checkpoint written, in order; P_5 has
    eccentricity 5, and the second 5 is the terminal (empty frontier) write."""

    @pytest.fixture
    def written(self, monkeypatch):
        layers = []

        def record(path, cp):
            layers.append(cp.completed_layer)
            write_checkpoint(path, cp)

        monkeypatch.setattr("pancakes.search.write_checkpoint", record)
        return layers

    def test_fresh_run(self, tmp_path, written):
        layer_profile(graph(PLAIN, 5), checkpoint_path=tmp_path / "p5.ckpt")
        assert written == [0, 1, 2, 3, 4, 5, 5]

    def test_max_layer_zero_writes_only_the_start(self, tmp_path, written):
        layer_profile(graph(PLAIN, 5), max_layer=0, checkpoint_path=tmp_path / "p5.ckpt")
        assert written == [0]

    def test_segments(self, tmp_path, written):
        path = tmp_path / "p5.ckpt"
        layer_profile(graph(PLAIN, 5), max_layer=3, checkpoint_path=path)
        assert written == [0, 1, 2, 3]
        written.clear()
        resume(path, max_layer=2)
        assert written == []
        resume(path)
        assert written == [4, 5, 5]
        written.clear()
        resume(path)
        assert written == []


class TestQueriesWithWorkers:
    """distance and sort_sequence with the expansion split across workers.

    P_5 has two bitset words and BP_3 one; with more workers than words the
    expansion runs as one span. The sampled P_6 and BP_4 vertices (12 and 6
    words) are expanded in 2 and 3 spans.
    """

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize(
        "kind, n, stride", [(PLAIN, 5, 1), (BURNT, 3, 1), (PLAIN, 6, 17), (BURNT, 4, 17)]
    )
    def test_match_naive_bfs_and_one_worker(self, kind, n, stride, workers):
        g = graph(kind, n)
        dist_map = naive_distance_map(n, kind is BURNT)
        for entries, expected in sorted(dist_map.items())[::stride]:
            v = SignedPerm(entries) if kind is BURNT else Perm(entries)
            assert distance(g, v, workers=workers) == expected, entries
            assert sort_sequence(g, v, workers=workers) == sort_sequence(g, v), entries


class TestDistance:
    def test_identity_is_zero(self):
        assert distance(graph(PLAIN, 4), Perm.identity(4)) == 0
        assert distance(graph(BURNT, 2), SignedPerm.identity(2)) == 0

    def test_single_flip_targets(self):
        assert distance(graph(PLAIN, 4), Perm((4, 3, 2, 1))) == 1
        assert distance(graph(BURNT, 2), SignedPerm((-1, 2))) == 1

    def test_exhaustive_against_naive_bfs(self):
        for kind, n in [(PLAIN, 4), (PLAIN, 5), (BURNT, 2), (BURNT, 3)]:
            g = graph(kind, n)
            for entries, expected in naive_distance_map(n, kind is BURNT).items():
                v = SignedPerm(entries) if kind is BURNT else Perm(entries)
                assert distance(g, v) == expected, (kind, entries)

    def test_antipode_of_burnt_two(self):
        assert distance(graph(BURNT, 2), SignedPerm((-1, -2))) == 4

    def test_vertex_kind_is_checked(self):
        with pytest.raises(PermError):
            distance(graph(PLAIN, 4), SignedPerm((1, 2, 3, 4)))
        with pytest.raises(PermError):
            distance(graph(PLAIN, 4), Perm((2, 1, 3, 4, 5)))


class TestSortSequence:
    def test_identity_needs_no_flips(self):
        assert sort_sequence(graph(PLAIN, 4), Perm.identity(4)) == ()
        assert sort_sequence(graph(BURNT, 3), SignedPerm.identity(3)) == ()

    def test_one_flip_sorts(self):
        assert sort_sequence(graph(PLAIN, 4), Perm((3, 2, 1, 4))) == (3,)

    def test_burnt_antipode_takes_four_flips(self):
        seq = sort_sequence(graph(BURNT, 2), SignedPerm((-1, -2)))
        assert seq == (1, 2, 1, 2)
        assert len(seq) == 4

    def test_burnt_reversed_pair(self):
        assert sort_sequence(graph(BURNT, 2), SignedPerm((2, 1))) == (1, 2, 1)

    def test_sequence_sorts_and_is_lex_smallest_optimum(self):
        # BP_4 has diameter 8, and some of its stacks lie four flips above
        # their gap count, so IDA* needs five passes
        for kind, n in [(PLAIN, 4), (PLAIN, 5), (BURNT, 2), (BURNT, 3), (BURNT, 4)]:
            g = graph(kind, n)
            dist_map = naive_distance_map(n, kind is BURNT)
            for entries, d in dist_map.items():
                v = SignedPerm(entries) if kind is BURNT else Perm(entries)
                seq = sort_sequence(g, v)
                assert len(seq) == d
                assert apply_sequence(g, v, seq) == g.identity
                assert seq == min(all_optimal_sequences(g, v, dist_map))

    def test_larger_instance_properties(self):
        g = graph(PLAIN, 6)
        v = Perm((4, 6, 1, 3, 5, 2))
        seq = sort_sequence(g, v)
        assert len(seq) == distance(g, v)
        assert apply_sequence(g, v, seq) == g.identity


class TestGapSearch:
    """The IDA* queries against the naive BFS, the bitset-BFS walk they
    replaced, and, where neither reaches, the properties of an answer."""

    @pytest.mark.parametrize(
        "kind, n, stride",
        [(PLAIN, n, 1) for n in range(1, 9)]
        + [(BURNT, n, 1) for n in range(1, 6)]
        + [(BURNT, 6, 7)],
    )
    def test_match_naive_bfs(self, kind, n, stride):
        g = graph(kind, n)
        dist_map = naive_distance_map(n, kind is BURNT)
        for entries, expected in sorted(dist_map.items())[::stride]:
            v = vertex(kind, entries)
            assert distance(g, v) == expected, entries
            assert sort_sequence(g, v) == greedy_descent(kind, entries, dist_map), entries

    @pytest.mark.parametrize("kind, n", [(PLAIN, 9), (BURNT, 7)])
    def test_match_bfs_walk_on_samples(self, kind, n):
        g = graph(kind, n)
        for r in random.Random(n).sample(range(g.size), 6):
            v = g.unrank(r)
            assert sort_sequence(g, v) == bfs_walk_reference(g, v), v

    def test_burnt_reversed_identity_needs_the_diameter(self):
        g = graph(BURNT, 7)
        v = SignedPerm(tuple(range(-1, -8, -1)))
        seq = sort_sequence(g, v)
        assert len(seq) == 14
        assert seq == bfs_walk_reference(g, v)

    # uniform random stacks: structured ones such as -I_10 take minutes
    @pytest.mark.parametrize("kind, n", [(PLAIN, 20), (BURNT, 10)])
    @settings(deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_large_stacks(self, kind, n, seed):
        rng = random.Random(seed)
        entries = rng.sample(range(1, n + 1), n)
        if kind is BURNT:
            entries = [rng.choice((-1, 1)) * e for e in entries]
        g = graph(kind, n)
        v = vertex(kind, tuple(entries))
        seq = sort_sequence(g, v)
        assert apply_sequence(g, v, seq) == g.identity
        assert len(seq) == distance(g, v)
        stack = [*entries, n + 1]
        gaps = sum(
            b - a != 1 and (kind is BURNT or a - b != 1) for a, b in zip(stack, stack[1:])
        )
        assert len(seq) >= gaps
