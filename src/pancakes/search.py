"""Breadth-first layer profiles of pancake graphs, and single-stack queries.

Two engines count the layers, with identical results. Both run the same
chunk loops: one :class:`~pancakes._kernels.FlipRanks` loads each chunk of
ranks, which it unranks into unsigned uint8 rows (the unsigned part of a
signed rank is the rank shifted right by n; a signed state reads the signs
from the ranks), and ranks every flip of the chunk. The loops keep only
the flips. :func:`_chunk_bytes` charges the per-rank buffers of every such
loop in both engines' memory estimates.

The bitset engine searches the whole graph. The visited set and the current
frontier are flat bit arrays indexed by permutation rank (BP_8 has ~10.3M
vertices but its bitset is 1.3 MB). It builds each layer in one of two
directions (direction-optimizing BFS: Beamer, Asanovic & Patterson, SC
2012), with the same candidate bits either way:

- top-down, :func:`_fresh_neighbors` takes the frontier's set bits block by
  block, ranks every neighbor of each and keeps those not visited;
- bottom-up, :func:`_frontier_children` takes the *clear* bits of the
  visited set block by block, as the set bits of an inverted copy of the
  block whose bits past the last rank are cleared, and ranks each vertex's
  flips in ascending order, keeping it at every flip that lands in the
  frontier while it stays in its chunk. A matched vertex stays until a
  flip matches it together with at least a quarter of the rows left: that
  flip drops those rows and moves the others to the front of the batch and
  of the ranking state's own buffers, so that the later flips rank only
  them. A chunk ends when one flip matches every row left, or after its
  last flip. So a vertex can be found at several flips; its candidate bit
  is set all the same.

Each layer first counts its work: the ranks it will extract, summed per
group of words with ``np.bitwise_count`` (the frontier's set bits
top-down, visited's clear bits bottom-up). A group of words holds at most
one chunk of ranks. The counts cut the layer into blocks of about one chunk
of ranks each, at most one chunk, that leave out the groups with no work.
So a sparse layer is one full chunk rather than many tiny ones, and no
block unpacks more than a chunk's worth of ranks. Both directions extract
a block's ranks with :func:`~pancakes._kernels.bitset_extract_ranks`.

A layer goes bottom-up when the frontier fills at least one chunk and holds
more vertices than are left unvisited, both known from the layer counts
before the layer is built, so fresh and resumed searches choose alike. Late
in the search most unvisited vertices are one flip from the frontier, and
bottom-up ranks far fewer neighbors: 17.3M instead of 32.7M at P_10. A
frontier below one chunk costs one kernel call per flip either way, so the
chunk gate keeps small layers, and small graphs, top-down. A step in
either direction holds one extracted block of ranks (see
:func:`_extract_bytes`), the chunk's batch and ranking state, and
per-flip arrays, bottom-up's no wider than top-down's; a bottom-up step
also holds its block's inverted copy, 8 bytes a word, while the block is
extracted, and its blocks span at most one chunk of words. The popcount of
the merged candidate bits is the next layer count. One generator runs the
layers for fresh, checkpointed and resumed profiles alike.

The ball engine counts only the first K layers, in memory that grows with
those layers instead of with the graph (frontier search: Korf, Zhang,
Thayer & Hohwald, JACM 2005). It holds the last two layers as sorted int64
rank arrays. The graphs are undirected, so the next layer is every neighbor
of the current one in neither array, which is the test it hands
:func:`_fresh_neighbors`; sorting removes duplicates. :func:`layer_profile`
runs it for a ``max_layer`` search without a checkpoint when its estimate,
from |L_{k+1}| <= (degree - 1) |L_k|, is below the bitset engine's
:func:`required_memory` at one worker, so that the choice does not depend
on ``workers``. So ``table --k`` and the formula checks reach the first
layers of graphs whose bitsets would not fit, up to the int64 rank limits
that :mod:`pancakes._kernels` states.

Distances and sort sequences of one stack do not search the whole graph:
an iterative-deepening A* with the gap heuristic walks from the stack to the
identity in memory linear in n, so it answers at sizes whose bitsets would
not fit (Helmert, "Landmark heuristics for the pancake problem", 2010).

In the bitset engine, a layer whose work gives each of ``workers`` at
least one chunk is cut into that many contiguous spans of groups with
about equal work. The process forks a child for every span but the first,
which it expands itself; each child sets its candidate bits in its own part
of an anonymous shared mapping and leaves through ``os._exit``, and the
parent ORs those parts into its own candidate bitset. A child that fails or
dies, or an exception in the parent, ends the layer: the parent kills and
reaps every child before the error propagates. A child whose parent dies
leaves at its next block of ranks. Smaller layers, and every
layer on a host without ``os.fork`` or in a process that runs other
threads, run in the one process. Profiles are bit-identical for every
worker count. The ball engine runs in one process.

Memory is accounted for up front: a layer search that would exceed the
limit refuses with the required size instead of thrashing. The bitset
engine checks once, before it allocates; the ball engine checks before it
expands each layer, with that layer's true size. The default
limit is 4 GiB, overridable via the ``PANCAKE_MEM_LIMIT`` environment
variable or the ``memory_limit`` argument.
"""

from __future__ import annotations

import mmap
import os
import signal
import threading
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .checkpoint import (
    CheckpointError,
    SearchCheckpoint,
    _crc_scratch,
    _peek_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from .graphs import GraphKind, PancakeGraph
from .perms import Perm, SignedPerm

__all__ = [
    "DEFAULT_MEMORY_LIMIT",
    "MEMORY_LIMIT_ENV",
    "LayerProfile",
    "MemoryLimitError",
    "required_memory",
    "resolve_memory_limit",
    "layer_profile",
    "resume",
    "distance",
    "sort_sequence",
]

DEFAULT_MEMORY_LIMIT = 4 << 30
MEMORY_LIMIT_ENV = "PANCAKE_MEM_LIMIT"

# ranks processed per kernel call; at 1 << 18 a chunk's buffers outgrow a
# 4 MB L2 cache and a P_10 profile ran about 9% slower
_CHUNK = 1 << 16
# a bottom-up flip that matches at least 1/_COMPACT of a chunk's rows left
# drops them from the batch
_COMPACT = 4
# a layer forks its worker spans only where the host can
_FORKS = hasattr(os, "fork")


class MemoryLimitError(MemoryError):
    """The search would need more memory than allowed; nothing was allocated."""

    def __init__(self, required: int, limit: int, what: str):
        super().__init__(
            f"{what} needs about {required:,} bytes but the memory limit is "
            f"{limit:,} bytes"
        )
        self.required = required
        self.limit = limit


@dataclass(frozen=True, slots=True)
class LayerProfile:
    """BFS shell sizes from the identity: counts[k] vertices need exactly k flips."""

    kind: GraphKind
    n: int
    counts: tuple[int, ...]
    complete: bool

    @property
    def graph(self) -> PancakeGraph:
        return PancakeGraph(self.kind, self.n)

    @property
    def total_visited(self) -> int:
        return sum(self.counts)

    @property
    def depth(self) -> int:
        """Largest computed layer index (the eccentricity when complete)."""
        return len(self.counts) - 1


def resolve_memory_limit(memory_limit: int | None) -> int:
    if memory_limit is not None:
        return int(memory_limit)
    env = os.environ.get(MEMORY_LIMIT_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(
                f"{MEMORY_LIMIT_ENV} must be an integer byte count, got {env!r}"
            ) from None
    return DEFAULT_MEMORY_LIMIT


def _chunk_bytes(graph: PancakeGraph, ranks: int) -> int:
    """Bytes of the batch buffers of :func:`_fresh_neighbors` or
    :func:`_frontier_children` on ``ranks`` ranks."""
    # per rank of a chunk, 2n + 48 covers the widest moment of either
    # direction. The FlipRanks state lives through every chunk: n digit bytes
    # and at most 20 more (the int64 result, the wide tail, a uint16 and a
    # wide Horner sum, where an int64 sum is the result, and the sign word).
    # Beside it one n-byte batch and at most 26 bytes: unranking holds the
    # int64 shifted signed ranks, two wide and two uint16 remainders and
    # digits. Top-down, dropping seen neighbors takes at most 18 (the bitset
    # test's int64 byte offsets and two byte arrays, np.compress's int64
    # index and fresh ranks, or the ball engine's int64 positions and
    # looked-up ranks) and setting fresh bits at most 18 (the int64 fresh
    # ranks, and bitset_add's int64 byte offsets, bits and held bytes).
    # Bottom-up, the frontier test's byte mask stays beside each of those
    # steps, at most 19, and a compaction at most 9: the mask and an int64
    # index of the rows kept (the state gathers the rows and their ranks
    # through its result buffer, allocating nothing). The last 2 bytes
    # cover NumPy's casting buffers of np.getbufsize() elements in a full
    # chunk
    return min(_CHUNK, ranks) * (2 * graph.n + 48)


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def _extract_bytes(graph: PancakeGraph) -> int:
    """Bytes of one block's extraction in :func:`_expand_span`.

    A block holds at most :func:`_block_cap` ranks. bitset_extract_ranks
    unpacks a byte per bit of the block's words when at least half of them
    are nonzero, else of its nonzero words only, with an int64 index and a
    copy of each: either way at most 64 bytes for each of 2 words per rank.
    Beside them it holds the int64 ranks, and later np.repeat's int64
    offsets. Top-down the words are a view of the frontier's; bottom-up
    they are an inverted copy of visited's, 8 bytes a word, of at most
    :func:`_bottom_up_groups` groups.
    """
    nwords = (graph.size + 63) // 64
    ranks = min(_block_cap(), graph.size)

    def extract(words: int) -> int:
        return 16 * ranks + 64 * min(words, 2 * ranks)

    copied = min(nwords, _bottom_up_groups() * _group_words())
    return max(extract(nwords), 8 * copied + extract(copied))


def required_memory(
    graph: PancakeGraph, *, workers: int = 1, with_layer_map: bool = False
) -> int:
    """Upper estimate of the bytes a bitset search on ``graph`` will allocate.

    The estimate is the larger of two phases, expanding a layer and saving
    or reading a checkpoint between layers, plus the checksum tables that a
    checkpoint leaves cached for both. A layer built bottom-up holds the
    same bitsets as one built top-down, and its per-worker buffers fit the
    same per-rank charges; the extraction charge holds the inverted copy of
    a bottom-up block. So one estimate covers both directions. Each worker
    but the first is a forked child, and its charge is the private pages it
    allocates: its span's buffers and extraction, as in the parent.

    ``with_layer_map`` adds three bitsets that keep every layer by its index
    mod 3, enough to find a vertex's layer. No search here keeps them (the
    queries :func:`distance` and :func:`sort_sequence` hold no bitsets at
    all); the term is for callers that budget a layer map of their own.
    ``workers`` below 1 raises ValueError.
    """
    _check_workers(workers)
    size = graph.size
    nwords = (size + 63) // 64
    # visited + the frontier being expanded + one candidate bitset per worker,
    # the children's in a shared mapping (no caller keeps the start frontier
    # alive past layer 1), and with the layer map its three residue bitsets
    bitsets = (2 + workers + 3 * with_layer_map) * 8 * nwords
    buffers = workers * (_chunk_bytes(graph, size) + _extract_bytes(graph))
    # the work count's int64 prefix sums stay through the expansion. Before
    # it, the count holds np.bitwise_count's uint8 per word, the buffer in
    # which a sum casts them, np.getbufsize() at most, and the sums per group;
    # after it, bitset_popcount holds the first two
    cum = 8 * (-(-nwords // _group_words()) + 1)
    count = nwords + 8 * min(nwords, np.getbufsize()) + 2 * cum
    expansion = bitsets + max(buffers + cum, count)
    # a checkpoint save or read holds visited and the frontier and checksums
    # one of them at a time; the candidates are merged or not yet allocated
    crc_tables, crc_call = _crc_scratch(8 * nwords)
    checkpoint = 2 * 8 * nwords + crc_call
    # the checksum tables stay cached once the first save or read builds
    # them, so the expansions after it hold them too
    return crc_tables + max(expansion, checkpoint)


def _check_memory(required: int, limit: int | None, what: str) -> None:
    limit = resolve_memory_limit(limit)
    if required > limit:
        raise MemoryLimitError(required, limit, what)


def _start(
    graph: PancakeGraph, limit: int | None, workers: int, what: str
) -> tuple[np.ndarray, np.ndarray]:
    """Refuse an oversized search, else visited set and frontier of the identity."""
    _check_memory(required_memory(graph, workers=workers), limit, what)
    visited = K.bitset_alloc(graph.size)
    K.bitset_set(visited, np.zeros(1, dtype=np.int64))  # the identity always ranks 0
    return visited, visited.copy()


def _save(
    checkpoint_path: str | os.PathLike | None,
    graph: PancakeGraph,
    counts: list[int],
    visited: np.ndarray,
    frontier: np.ndarray,
) -> None:
    if checkpoint_path is not None:
        cp = SearchCheckpoint(
            graph.kind, graph.n, len(counts) - 1, tuple(counts), visited, frontier
        )
        write_checkpoint(checkpoint_path, cp)


def _flip_ranks(graph: PancakeGraph, rows: int) -> K.FlipRanks:
    """The ranking state of a chunk loop over ``rows`` ranks, a chunk at most."""
    return K.FlipRanks(graph.n, min(_CHUNK, rows), signed=graph.kind is GraphKind.BURNT)


def _fresh_neighbors(
    graph: PancakeGraph,
    ranks: np.ndarray,
    seen: Callable[[np.ndarray], np.ndarray],
    state: K.FlipRanks,
) -> Iterator[np.ndarray]:
    """For each chunk of ``ranks`` and each flip, the neighbor ranks not ``seen``.

    ``state`` (see :func:`_flip_ranks`) unranks each chunk and ranks every
    flip of its rows, in ascending order; its buffers serve every chunk.
    Nothing of one flip is alive while the next one is ranked
    (:func:`_chunk_bytes` counts on it), so a caller drops each array before
    it asks for the next.
    """
    for start in range(0, ranks.size, _CHUNK):
        perms = state.load(ranks[start : start + _CHUNK])
        for i in graph.flip_indices:
            neighbor_ranks = K.batch_rank(perms, i, state)
            old = seen(neighbor_ranks)
            fresh = np.compress(np.logical_not(old, out=old), neighbor_ranks)
            del neighbor_ranks, old
            yield fresh
            del fresh
        del perms  # before the next chunk is unranked


def _frontier_children(
    graph: PancakeGraph,
    ranks: np.ndarray,
    frontier: np.ndarray,
    state: K.FlipRanks,
) -> Iterator[np.ndarray]:
    """For each chunk of the unvisited ``ranks`` and each flip, the ranks
    left in the chunk whose flip lands in ``frontier``.

    The bottom-up step of :func:`_expand_span`. Flips ascend, and a matched
    row stays in its chunk, so later flips can yield its rank again, until
    a flip that matches at least 1/_COMPACT of the rows left matches it
    too. That flip has the state compact the rows it missed, with their
    ranks in their chunk of ``ranks``, which is overwritten, so the later
    flips rank only them and the state's ``ranks`` are theirs. A chunk ends
    when one flip matches every row left, or after flip n. Each array holds
    distinct ranks, but a rank can recur in a later array. ``state`` and
    the arrays are as in :func:`_fresh_neighbors`.
    """
    for start in range(0, ranks.size, _CHUNK):
        perms = state.load(ranks[start : start + _CHUNK])
        for i in graph.flip_indices:
            hit = K.bitset_test(frontier, K.batch_rank(perms, i, state))
            matched = np.count_nonzero(hit)
            if matched:
                children = np.compress(hit, state.ranks)
                yield children
                del children
            if matched == hit.size:
                break
            if i < graph.n and matched * _COMPACT >= hit.size:  # flip n is the last
                keep = np.flatnonzero(np.logical_not(hit, out=hit))
                del hit
                perms = state.compact(keep)
                del keep
            else:
                del hit
        del perms  # before the next chunk is unranked


def _group_words() -> int:
    """Words per group of the work count: a group holds at most a chunk of ranks."""
    return max(1, _CHUNK // 64)


def _block_cap() -> int:
    """Most ranks in one extracted block: a chunk, or one group's bits if more."""
    return max(_CHUNK, 64 * _group_words())


def _bottom_up_groups() -> int:
    """Most groups in one bottom-up block, whose inverted copy of visited's
    words then takes no more bytes than a chunk of int64 ranks."""
    return max(1, _CHUNK // _group_words())


def _work(
    graph: PancakeGraph, visited: np.ndarray, frontier: np.ndarray, bottom_up: bool
) -> np.ndarray:
    """Prefix sums of the ranks a layer extracts from its groups of words.

    Entry g counts the ranks in groups 0..g-1 of :func:`_group_words` words
    each: set frontier bits top-down, clear visited bits below the graph's
    size bottom-up. The last entry is the layer's whole work.
    """
    group = _group_words()
    words = visited if bottom_up else frontier
    starts = np.arange(0, words.size, group)
    work = np.add.reduceat(np.bitwise_count(words), starts, dtype=np.int64)
    if bottom_up:
        # every bit of a group but the popcount, less the bits past the size
        np.subtract(64 * group, work, out=work)
        work[-1] -= 64 * (starts[-1] + group) - graph.size
    cum = np.zeros(work.size + 1, dtype=np.int64)
    np.cumsum(work, out=cum[1:])
    return cum


def _spans(cum: np.ndarray, workers: int) -> list[tuple[int, int]]:
    """Group ranges of about equal work, one per worker when each gets at
    least a chunk and this process can fork, else one range of every group.

    A forked child has only the thread that forked it, and any lock another
    thread held stays held in the child, so a process that runs other
    threads expands every layer itself.
    """
    total, groups = int(cum[-1]), cum.size - 1
    if workers < 2 or total < workers * _CHUNK or not _FORKS or threading.active_count() > 1:
        return [(0, groups)]
    # span w starts at the first group with at least w/workers of the work before it
    cuts = np.searchsorted(cum, [total * w // workers for w in range(1, workers)]).tolist()
    bounds = [0, *cuts, groups]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]


def _blocks(cum: np.ndarray, lo: int, hi: int, most_groups: int) -> Iterator[tuple[int, int]]:
    """Group ranges within [lo, hi) of at most :func:`_block_cap` ranks and
    ``most_groups`` groups, each starting and ending with a group that has
    work; the groups without work between blocks are left out."""
    cap = _block_cap()
    while True:
        # past the groups without work: the last entry equal to cum[lo]
        lo = int(np.searchsorted(cum, cum[lo], side="right")) - 1
        if lo >= hi:
            return
        # one group holds at most the cap, so a block takes at least one
        top = min(int(np.searchsorted(cum, cum[lo] + cap, side="right")) - 1, hi, lo + most_groups)
        # short of the groups without work at its end
        yield lo, int(np.searchsorted(cum, cum[top]))
        lo = top


def _expand_span(
    graph: PancakeGraph,
    visited: np.ndarray,
    frontier: np.ndarray,
    cum: np.ndarray,
    lo: int,
    hi: int,
    bottom_up: bool,
    cand: np.ndarray,
    parent: int | None = None,
) -> None:
    """Set in ``cand`` the next layer's vertices found from groups [lo, hi).

    Top-down, those are the unvisited neighbors of the frontier bits in the
    groups' words; bottom-up, the unvisited vertices of the words with a
    neighbor in the frontier. ``cum`` is the layer's :func:`_work`. The
    groups go block by block (:func:`_blocks`) through one ranking state,
    sized for the span's work up to a chunk. A forked child passes the pid
    of the ``parent`` that forked it, and leaves through ``os._exit`` at the
    first block that finds that process gone.
    """
    group, nwords = _group_words(), visited.size
    state = _flip_ranks(graph, int(cum[hi] - cum[lo]))
    # a top-down block is a view of the frontier, of any number of groups
    for first, last in _blocks(cum, lo, hi, _bottom_up_groups() if bottom_up else hi):
        if parent is not None and os.getppid() != parent:
            os._exit(1)  # an orphan: no process reads its candidates
        block, top = first * group, min(last * group, nwords)
        if bottom_up:
            # the unvisited ranks are the set bits of an inverted copy whose
            # bits past the graph's last rank are cleared
            span = np.invert(visited[block:top])
            used = graph.size - 64 * (top - 1)  # bits of the last word that are ranks
            if used < 64:
                span[-1] &= (1 << used) - 1
        else:
            span = frontier[block:top]
        ranks = K.bitset_extract_ranks(span, word_offset=block)
        del span
        if bottom_up:
            found = _frontier_children(graph, ranks, frontier, state)
        else:
            found = _fresh_neighbors(graph, ranks, lambda r: K.bitset_test(visited, r), state)
        for new in found:
            # each array holds distinct ranks; a rank that recurs in a later
            # bottom-up array finds its bit set, and bitset_add drops it
            if new.size:
                K.bitset_add(cand, new)
            del new
        del ranks, found  # before the next block is extracted


def _in_child(run: Callable[[], object]) -> None:
    """Run ``run`` in a forked child, which leaves through ``os._exit``: with
    0 once ``run`` returns, else with 1 after printing the traceback. So a
    child never returns into the code of the parent that forked it, and
    never flushes the parent's buffered output or runs its exit handlers."""
    code = 1
    try:
        run()
        code = 0
    except BaseException:
        import traceback

        traceback.print_exc()
    finally:
        os._exit(code)


def _expand_forked(
    graph: PancakeGraph,
    visited: np.ndarray,
    frontier: np.ndarray,
    cum: np.ndarray,
    spans: list[tuple[int, int]],
    bottom_up: bool,
    cand: np.ndarray,
) -> None:
    """Expand ``spans[0]`` here and each later span in a forked child.

    A child sets its candidate bits in its own part of an anonymous shared
    mapping, which the parent ORs into ``cand`` once every child has ended
    well. A child that fails or dies, or any exception here, such as a
    KeyboardInterrupt in the parent's own span, ends the layer: every child
    still running is killed and every child is reaped before it propagates.
    A child whose parent dies leaves within a block (:func:`_expand_span`).
    """
    nbytes, parent = cand.nbytes, os.getpid()
    with mmap.mmap(-1, nbytes * (len(spans) - 1)) as shared:
        running: list[int] = []
        try:
            for part, (lo, hi) in enumerate(spans[1:]):
                pid = os.fork()
                if not pid:
                    _in_child(
                        lambda: _expand_span(
                            graph, visited, frontier, cum, lo, hi, bottom_up,
                            np.frombuffer(shared, np.uint64, cand.size, part * nbytes),
                            parent=parent,
                        )
                    )
                running.append(pid)
            _expand_span(graph, visited, frontier, cum, *spans[0], bottom_up, cand)
            while running:
                code = os.waitstatus_to_exitcode(os.waitpid(running[0], 0)[1])
                pid = running.pop(0)
                if code > 0:
                    raise RuntimeError(f"search worker {pid} exited with code {code}")
                if code < 0:
                    raise RuntimeError(f"search worker {pid} was killed by signal {-code}")
        finally:
            for pid in running:
                os.kill(pid, signal.SIGKILL)
            for pid in running:
                os.waitpid(pid, 0)
        for part in range(len(spans) - 1):
            bits = np.frombuffer(shared, np.uint64, cand.size, part * nbytes)
            np.bitwise_or(cand, bits, out=cand)
            del bits  # before the mapping closes


def _expand_layer(
    graph: PancakeGraph,
    visited: np.ndarray,
    frontier: np.ndarray,
    workers: int,
    bottom_up: bool,
) -> np.ndarray:
    """Bitset of the next layer (unvisited neighbors of the frontier)."""
    cum = _work(graph, visited, frontier, bottom_up)
    spans = _spans(cum, workers)
    cand = np.zeros_like(visited)
    if len(spans) > 1:
        _expand_forked(graph, visited, frontier, cum, spans, bottom_up, cand)
    else:
        _expand_span(graph, visited, frontier, cum, *spans[0], bottom_up, cand)
    return cand


def _layers(
    graph: PancakeGraph,
    visited: np.ndarray,
    frontier: np.ndarray,
    counts: list[int] | tuple[int, ...],
    workers: int,
) -> Iterator[tuple[np.ndarray, int]]:
    """Yield each next layer's bitset and popcount, ending after the empty layer.

    ``counts`` are the layers found so far, the last one the frontier. A
    layer is expanded bottom-up when the frontier fills a chunk and more
    vertices are in it than are unvisited, else top-down. A layer is OR-ed
    into ``visited`` before it is yielded.
    """
    found = counts[-1]
    unvisited = graph.size - sum(counts)
    while found:
        bottom_up = found >= _CHUNK and unvisited < found
        frontier = _expand_layer(graph, visited, frontier, workers, bottom_up)
        found = K.bitset_popcount(frontier)
        unvisited -= found
        if found:
            np.bitwise_or(visited, frontier, out=visited)
        yield frontier, found


def _run_layers(
    graph: PancakeGraph,
    visited: np.ndarray,
    layers: Iterator[tuple[np.ndarray, int]],
    counts: list[int],
    *,
    checkpoint_path: str | os.PathLike | None,
    max_layer: int | None,
) -> LayerProfile:
    found = 1
    while found and (max_layer is None or len(counts) - 1 < max_layer):
        new, found = next(layers)
        if found:
            counts.append(found)
        # after the empty layer this is the terminal checkpoint
        _save(checkpoint_path, graph, counts, visited, new)
        # the generator alone holds the frontier, so that it is freed as soon
        # as the next layer replaces it, before that layer's popcount
        del new
    return _profile(graph, counts)


def _profile(graph: PancakeGraph, counts: list[int] | tuple[int, ...]) -> LayerProfile:
    counts = tuple(counts)
    return LayerProfile(graph.kind, graph.n, counts, complete=sum(counts) == graph.size)


def _check_max_layer(max_layer: int | None) -> None:
    if max_layer is not None and max_layer < 0:
        raise ValueError(f"max_layer must be a nonnegative layer index, got {max_layer}")


def _check_rank_width(graph: PancakeGraph) -> None:
    """Refuse a graph whose ranks do not fit the kernels' int64."""
    widest = K.MAX_SRANK_N if graph.kind is GraphKind.BURNT else K.MAX_RANK_N
    if graph.n > widest:
        raise ValueError(
            f"the ranks of {graph} do not fit in int64; layer profiles of "
            f"{graph.kind} graphs support n <= {widest}"
        )


def _ball_fanout(graph: PancakeGraph, k: int) -> int:
    # every vertex but the identity has a neighbor in the layer before it
    return graph.degree if k == 0 else graph.degree - 1


def _ball_bytes(graph: PancakeGraph, held: int, expanding: int, fanout: int) -> int:
    """Bytes the ball engine allocates while it expands one layer.

    ``held`` ranks are in the two layers it keeps, the layer being expanded
    has ``expanding`` of them, and each of its vertices has at most
    ``fanout`` neighbors outside those two layers.
    """
    # 8 bytes per held rank; per candidate neighbor an int64 slot, then one
    # byte of the duplicate mask and at most 8 bytes of the new layer
    return 8 * held + 17 * fanout * expanding + _chunk_bytes(graph, expanding)


def _ball_estimate(graph: PancakeGraph, max_layer: int) -> int:
    """Upper estimate of the ball engine's bytes for layers 0..max_layer.

    Layer 1 has ``degree`` vertices, and each vertex of a later layer has a
    neighbor in the layer before it, so |L_{k+1}| <= (degree - 1) |L_k|;
    every bound is capped at the graph's size.
    """
    peak, previous, layer = 0, 0, 1
    for k in range(max_layer):
        fanout = _ball_fanout(graph, k)
        peak = max(peak, _ball_bytes(graph, previous + layer, layer, fanout))
        if layer == graph.size:
            break  # every later layer has the same bound
        previous, layer = layer, min(fanout * layer, graph.size)
    return peak


def _in_layer(layer: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Boolean array: is each rank in the sorted, duplicate-free ``layer``?"""
    if not layer.size:
        return np.zeros(ranks.shape, dtype=np.bool_)
    where = np.searchsorted(layer, ranks)
    np.minimum(where, layer.size - 1, out=where)
    return np.take(layer, where) == ranks


def _compress(keep: np.ndarray, ranks: np.ndarray, step: int) -> np.ndarray:
    """``ranks[keep]``, by ``np.compress`` on ``step`` entries at a time.

    ``np.compress`` outruns boolean indexing, but it builds an int64 index
    of the entries it keeps; the steps bound that index by ``step`` entries.
    """
    kept = np.empty(np.count_nonzero(keep), dtype=ranks.dtype)
    end = 0
    for start in range(0, ranks.size, step):
        part = keep[start : start + step]
        count = np.count_nonzero(part)
        np.compress(part, ranks[start : start + step], out=kept[end : end + count])
        end += count
    return kept


def _ball_counts(graph: PancakeGraph, max_layer: int, limit: int | None) -> list[int]:
    """Layer counts 0..max_layer from sorted rank arrays of the last two layers.

    The graphs are undirected, so every neighbor of layer k lies in layer
    k - 1, k or k + 1, and L_{k+1} = N(L_k) minus L_k and L_{k-1}.
    """
    previous = np.zeros(0, dtype=np.int64)
    layer = np.zeros(1, dtype=np.int64)  # the identity always ranks 0
    counts = [1]
    while layer.size and len(counts) <= max_layer:
        fanout = _ball_fanout(graph, len(counts) - 1)
        required = _ball_bytes(graph, previous.size + layer.size, layer.size, fanout)
        _check_memory(required, limit, f"expanding layer {len(counts) - 1} of {graph}")
        found = np.empty(fanout * layer.size, dtype=np.int64)
        end = 0
        for fresh in _fresh_neighbors(
            graph,
            layer,
            lambda r: _in_layer(layer, r) | _in_layer(previous, r),
            _flip_ranks(graph, layer.size),
        ):
            found[end : end + fresh.size] = fresh
            end += fresh.size
            del fresh
        # np.unique would do, but NumPy 2.4 runs it through a hash set, which
        # took 2.0 s against this sort's 43 ms for 2M int64 ranks
        found = found[:end]
        found.sort()
        keep = np.empty(end, dtype=np.bool_)
        keep[:1] = True
        np.not_equal(found[1:], found[:-1], out=keep[1:])
        # an index of at most one chunk's int64 ranks: the per-chunk buffers
        # of _ball_bytes, which are free by now, cover it
        previous, layer = layer, _compress(keep, found, min(_CHUNK, layer.size))
        del found, keep
        if layer.size:
            counts.append(int(layer.size))
    return counts


def layer_profile(
    graph: PancakeGraph,
    *,
    memory_limit: int | None = None,
    workers: int = 1,
    checkpoint_path: str | os.PathLike | None = None,
    max_layer: int | None = None,
) -> LayerProfile:
    """Count vertices at every distance from the identity.

    Writes a checkpoint after each completed layer when ``checkpoint_path`` is
    given (always starting fresh; use :func:`resume` to continue one).
    ``max_layer`` stops after that many layers, leaving a resumable checkpoint.

    Two engines count the layers, with identical results. The bitset engine
    holds whole-graph bitsets and splits each layer with at least a chunk
    of work per worker over ``workers`` processes, forking one child per
    worker but the first. The ball engine holds the last two layers as
    sorted rank arrays in one process, so its memory grows with the first
    layers, not with the graph.
    It runs when ``max_layer`` is given, there is no ``checkpoint_path``,
    and its estimate for the first ``max_layer`` layers is below
    :func:`required_memory` at one worker, whatever ``workers`` is; it then
    refuses before any layer whose expansion would exceed the memory limit.
    Ranks are int64, so graphs beyond the kernels' limits (``MAX_RANK_N``
    plain, ``MAX_SRANK_N`` burnt, in :mod:`pancakes._kernels`), ``workers``
    below 1 and a negative ``max_layer`` raise ValueError.
    """
    _check_workers(workers)
    _check_max_layer(max_layer)
    _check_rank_width(graph)
    if (
        max_layer is not None
        and checkpoint_path is None
        and _ball_estimate(graph, max_layer) < required_memory(graph)
    ):
        return _profile(graph, _ball_counts(graph, max_layer, memory_limit))
    visited, frontier = _start(
        graph, memory_limit, workers, f"layer profile of {graph}"
    )
    counts = [1]
    _save(checkpoint_path, graph, counts, visited, frontier)
    layers = _layers(graph, visited, frontier, counts, workers)
    # only the generator may keep the start frontier, so that it is freed
    # once layer 1 replaces it; required_memory counts one frontier
    del frontier
    return _run_layers(
        graph, visited, layers, counts, checkpoint_path=checkpoint_path, max_layer=max_layer
    )


def resume(
    checkpoint_path: str | os.PathLike,
    *,
    memory_limit: int | None = None,
    workers: int = 1,
    max_layer: int | None = None,
    expect: PancakeGraph | None = None,
) -> LayerProfile:
    """Continue a checkpointed search to completion.

    The final profile is identical to an uninterrupted run. ``max_layer`` cuts
    the profile to layers 0..max_layer even when the checkpoint holds more.
    ``expect`` guards against resuming a checkpoint for a different graph.
    ``workers`` below 1 and a negative ``max_layer`` raise ValueError
    before the file is read.
    """
    _check_workers(workers)
    _check_max_layer(max_layer)
    # decide from the header and a block-wise scan of the frontier whether a
    # search will run, and refuse an oversized one before any bit array is
    # read; read_checkpoint then verifies the checksum before any use
    header, frontier_empty = _peek_checkpoint(checkpoint_path)
    graph = PancakeGraph(header.kind, header.n)
    if expect is not None and (graph.kind, graph.n) != (expect.kind, expect.n):
        raise CheckpointError(f"checkpoint is for {graph}, expected {expect}")
    done = frontier_empty or (
        max_layer is not None and header.completed_layer >= max_layer
    )
    if not done:
        required = required_memory(graph, workers=workers)
        _check_memory(required, memory_limit, f"resumed layer profile of {graph}")
    cp = read_checkpoint(checkpoint_path)
    if done:
        return _profile(graph, cp.counts if max_layer is None else cp.counts[: max_layer + 1])
    visited, counts = cp.visited, list(cp.counts)
    layers = _layers(graph, visited, cp.frontier, counts, workers)
    del cp  # as in layer_profile: the generator alone holds the frontier
    return _run_layers(
        graph, visited, layers, counts, checkpoint_path=checkpoint_path, max_layer=max_layer
    )


def _walk(graph: PancakeGraph, target: Perm | SignedPerm) -> tuple[int, ...]:
    """The flip sequence of :func:`sort_sequence`; :func:`distance` is its length.

    Iterative-deepening A* with the gap heuristic. The stack gets a bottom
    sentinel n + 1, and position j holds a gap when entries j and j + 1 are
    not adjacent: ``|w[j+1] - w[j]| != 1`` for plain stacks, and for burnt
    ones ``w[j+1] - w[j] != 1``, which tells (k, k+1) and (-(k+1), -k) from
    wrongly oriented pairs. Flip ``r_i`` changes only the pair at positions
    i - 1 and i, so it changes the gap count by at most one, which makes the
    count a lower bound on the distance (for BP_n too: Cohen & Blum 1995) and
    each child's count an O(1) update. The count is 0 only at the identity.
    """
    graph.check_vertex(target)
    n = graph.n
    stack = [*target.entries, n + 1]
    # ``flipped`` holds the entries as a flip moves them (negated in BP_n) and
    # is kept in step with ``stack``, so that a flip is two slice copies
    if graph.kind is GraphKind.BURNT:
        flipped, near = [-v for v in stack], (1,)
    else:
        flipped, near = stack[:], (1, -1)
    flips = graph.flip_indices
    path: list[int] = []

    def descend(g: int, gaps: int, previous: int) -> bool:
        if not gaps:
            return True
        top = flipped[0]  # the entry r_i brings down to position i - 1
        g += 1
        for i in flips:
            if i == previous:
                continue  # flips are involutions; this undoes the last step
            below = stack[i]
            child = gaps - (below - stack[i - 1] not in near) + (below - top not in near)
            if g + child > bound:
                continue
            stack[:i], flipped[:i] = flipped[i - 1 :: -1], stack[i - 1 :: -1]
            path.append(i)
            if descend(g, child, i):
                return True
            path.pop()
            stack[:i], flipped[:i] = flipped[i - 1 :: -1], stack[i - 1 :: -1]
        return False

    # a shorter path would have been found under a smaller bound, so the
    # first path found has the target's distance, and ascending flips make it
    # the lexicographically smallest of that length
    gaps = bound = sum(stack[j + 1] - stack[j] not in near for j in range(n))
    while not descend(0, gaps, 0):
        bound += 1
    return tuple(path)


def distance(
    graph: PancakeGraph,
    target: Perm | SignedPerm,
    *,
    memory_limit: int | None = None,
    workers: int = 1,
) -> int:
    """Minimum number of flips taking ``target`` to the identity.

    The query holds no bitsets: ``memory_limit`` and ``workers`` are accepted
    for symmetry with :func:`layer_profile` and have no effect.
    """
    return len(_walk(graph, target))


def sort_sequence(
    graph: PancakeGraph,
    target: Perm | SignedPerm,
    *,
    memory_limit: int | None = None,
    workers: int = 1,
) -> tuple[int, ...]:
    """Lexicographically smallest optimal flip sequence sorting ``target``.

    A depth-first search tries flips in ascending order under a bound that
    starts at the target's gap count and grows by one after each failed
    pass, so the first sequence found is optimal and lexicographically
    smallest. Memory is linear in n; ``memory_limit`` and ``workers`` are
    accepted for symmetry with :func:`layer_profile` and have no effect.
    """
    return _walk(graph, target)
