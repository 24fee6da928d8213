"""Breadth-first layer profiles of pancake graphs, and single-stack queries.

Two engines count the layers, with identical results. Both run the same
chunk loops: each chunk of ranks is unranked into unsigned uint8 rows (the
unsigned part of a signed rank is the rank shifted right by n), and one
:class:`~pancakes._kernels.FlipRanks`, loaded with the rows and their ranks,
ranks every flip of the chunk; a signed state reads the signs from the
ranks. :func:`_chunk_bytes` charges the per-rank buffers of every such loop
in both engines' memory estimates.

The bitset engine searches the whole graph. The visited set and the current
frontier are flat bit arrays indexed by permutation rank (BP_8 has ~10.3M
vertices but its bitset is 1.3 MB). It builds each layer in one of two
directions (direction-optimizing BFS: Beamer, Asanovic & Patterson, SC
2012), with the same candidate bits either way:

- top-down, :func:`_fresh_neighbors` takes the frontier's set bits block by
  block, ranks every neighbor of each and keeps those not visited;
- bottom-up, :func:`_frontier_children` takes the *clear* bits of the
  visited set block by block (each block's bits are unpacked once and
  inverted in place, and bits past the last rank are never unpacked), ranks
  each vertex's flips in ascending order and stops at the first that lands
  in the frontier. A chunk ends once every row has matched, and a flip that
  matches a quarter of the rows left moves the others to the front of the
  batch and of the ranking state's own buffers, so that the later flips
  rank only them.

A layer goes bottom-up when the frontier fills at least one chunk and holds
more vertices than are left unvisited, both known from the layer counts
before the layer is built, so fresh and resumed searches choose alike. Late
in the search most unvisited vertices are one flip from the frontier, and
bottom-up ranks far fewer neighbors: 17.3M instead of 32.7M at P_10. A
frontier below one chunk costs one kernel call per flip either way, so the
chunk gate keeps small layers, and small graphs, top-down. A bottom-up step
holds what a top-down one does: one extracted block of ranks (one byte per
bit of the block while it is unpacked, and an int64 per rank), the chunk's
batch and ranking state, and per-flip arrays no wider than top-down's. The
popcount of the merged candidate bits is the next layer count. One
generator runs the layers for fresh, checkpointed and resumed profiles
alike.

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

In the bitset engine, workers partition the words of the frontier
(top-down) or of the visited set (bottom-up) into contiguous spans. Each
worker fills a private candidate bitset and the results are OR-merged
single-threaded between layers, so profiles are bit-identical for every
worker count. The ball engine runs on one thread.

Memory is accounted for up front: a layer search that would exceed the
limit refuses with the required size instead of thrashing. The bitset
engine checks once, before it allocates; the ball engine checks before it
expands each layer, with that layer's true size. The default
limit is 4 GiB, overridable via the ``PANCAKE_MEM_LIMIT`` environment
variable or the ``memory_limit`` argument.
"""

from __future__ import annotations

import os
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
_BLOCK_WORDS = 1 << 15  # frontier words scanned per extraction
# a bottom-up flip that matches at least 1/_COMPACT of a chunk's rows left
# drops them from the batch
_COMPACT = 4


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
    # steps, at most 19, and a compaction at most 17: the mask, an int64
    # index of the rows kept and np.take's copy of the kept ranks, which
    # overlap their source (the state gathers through its result buffer,
    # allocating nothing). The last 2 bytes cover NumPy's casting buffers of
    # np.getbufsize() elements in a full chunk
    return min(_CHUNK, ranks) * (2 * graph.n + 48)


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def required_memory(
    graph: PancakeGraph, *, workers: int = 1, with_layer_map: bool = False
) -> int:
    """Upper estimate of the bytes a bitset search on ``graph`` will allocate.

    The estimate is the larger of two phases, expanding a layer and saving
    or reading a checkpoint between layers, plus the checksum tables that a
    checkpoint leaves cached for both. A layer built bottom-up holds the
    same bitsets as one built top-down, and its per-worker buffers fit the
    same per-rank and per-bit charges, so one estimate covers both
    directions.

    ``with_layer_map`` adds three bitsets that keep every layer by its index
    mod 3, enough to find a vertex's layer. No search here keeps them (the
    queries :func:`distance` and :func:`sort_sequence` hold no bitsets at
    all); the term is for callers that budget a layer map of their own.
    ``workers`` below 1 raises ValueError.
    """
    _check_workers(workers)
    size = graph.size
    nwords = (size + 63) // 64
    # visited + the frontier being expanded + one candidate bitset per worker
    # (no caller keeps the start frontier alive past layer 1), and with the
    # layer map its three residue bitsets
    bitsets = (2 + workers + 3 * with_layer_map) * 8 * nwords
    buffers = workers * _chunk_bytes(graph, size)
    # per-worker extraction of one block: unpackbits' byte per bit plus
    # flatnonzero's int64 per set bit of the frontier (a block under half
    # nonzero words unpacks only those, at most 1,049 bytes per nonzero
    # word), or per clear bit of visited, unpacked and inverted in place
    extraction = workers * 9 * 64 * min(_BLOCK_WORDS, nwords)
    # bitset_popcount: np.bitwise_count's uint8 per frontier word, and the
    # buffer in which sum() casts them to uint64, np.getbufsize() at most
    popcount = nwords + 8 * min(nwords, np.getbufsize())
    expansion = bitsets + buffers + extraction + popcount
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


def _fresh_neighbors(
    graph: PancakeGraph, ranks: np.ndarray, seen: Callable[[np.ndarray], np.ndarray]
) -> Iterator[np.ndarray]:
    """For each chunk of ``ranks`` and each flip, the neighbor ranks not ``seen``.

    One :class:`~pancakes._kernels.FlipRanks` ranks every flip of a chunk's
    unsigned rows, in ascending order, and its buffers serve every chunk.
    Nothing of one flip is alive while the next one is ranked
    (:func:`_chunk_bytes` counts on it), so a caller drops each array before
    it asks for the next.
    """
    signed = graph.kind is GraphKind.BURNT
    state = K.FlipRanks(graph.n, min(_CHUNK, ranks.size), signed=signed)
    for start in range(0, ranks.size, _CHUNK):
        chunk = ranks[start : start + _CHUNK]
        perms = K.batch_unrank(graph.n, chunk >> graph.n if signed else chunk)
        state.load(perms, chunk)
        for i in graph.flip_indices:
            neighbor_ranks = K.batch_rank(perms, i, state)
            old = seen(neighbor_ranks)
            fresh = np.compress(np.logical_not(old, out=old), neighbor_ranks)
            del neighbor_ranks, old
            yield fresh
            del fresh
        del perms  # before the next chunk is unranked


def _frontier_children(
    graph: PancakeGraph, ranks: np.ndarray, frontier: np.ndarray
) -> Iterator[np.ndarray]:
    """For each chunk of the unvisited ``ranks`` and each flip, the ranks
    whose flip lands in ``frontier`` and whose smaller flips did not.

    The bottom-up step of :func:`_expand_span`. Flips ascend and a row
    leaves its chunk at its first match, so no rank is yielded twice, and
    a chunk ends once every row has matched. A flip that matches at least
    1/_COMPACT of the rows left moves the others to the front of the batch,
    of the state's buffers and of their chunk of ``ranks``, which is
    overwritten, so the later flips rank only them. As in
    :func:`_fresh_neighbors`, a caller drops each array before it asks for
    the next.
    """
    signed = graph.kind is GraphKind.BURNT
    state = K.FlipRanks(graph.n, min(_CHUNK, ranks.size), signed=signed)
    for start in range(0, ranks.size, _CHUNK):
        rows = ranks[start : start + _CHUNK]
        perms = K.batch_unrank(graph.n, rows >> graph.n if signed else rows)
        state.load(perms, rows)
        for i in graph.flip_indices:
            hit = K.bitset_test(frontier, K.batch_rank(perms, i, state))
            matched = np.count_nonzero(hit)
            if matched:
                children = np.compress(hit, rows)
                yield children
                del children
            if matched == rows.size:
                break
            if i < graph.n and matched * _COMPACT >= rows.size:  # flip n is the last
                keep = np.flatnonzero(np.logical_not(hit, out=hit))
                del hit
                perms = state.compact(perms, keep)
                np.take(rows, keep, out=rows[: keep.size])
                rows = rows[: keep.size]
                del keep
            else:
                del hit
        del perms, rows  # before the next chunk is unranked


def _unvisited_ranks(visited: np.ndarray, lo: int, hi: int, size: int) -> np.ndarray:
    """Ranks below ``size`` whose bits in words [lo, hi) of ``visited`` are clear.

    The words are unpacked once, one byte per bit up to bit ``size``, and
    those bytes are inverted in place: there is no inverted copy of the
    words, and no bit past the graph's last rank is read.
    """
    bits = np.unpackbits(
        visited[lo:hi].view(np.uint8), count=min(64 * (hi - lo), size - 64 * lo), bitorder="little"
    )
    clear = bits.view(np.bool_)  # the unpacked bytes are 0 or 1
    np.logical_not(clear, out=clear)
    ranks = np.flatnonzero(clear)
    del bits, clear
    ranks += 64 * lo
    return ranks


def _expand_span(
    graph: PancakeGraph,
    visited: np.ndarray,
    frontier: np.ndarray,
    lo: int,
    hi: int,
    bottom_up: bool,
) -> np.ndarray:
    """Candidate bitset of the next layer's vertices found from words [lo, hi).

    Top-down, those are the unvisited neighbors of the frontier bits in the
    words; bottom-up, the unvisited vertices of the words with a neighbor in
    the frontier.
    """
    cand = np.zeros_like(visited)
    for block in range(lo, hi, _BLOCK_WORDS):
        top = min(block + _BLOCK_WORDS, hi)
        if bottom_up:
            ranks = _unvisited_ranks(visited, block, top, graph.size)
            found = _frontier_children(graph, ranks, frontier)
        else:
            span = frontier[block:top]
            if not span.any():
                continue
            ranks = K.bitset_extract_ranks(span, word_offset=block)
            found = _fresh_neighbors(graph, ranks, lambda r: K.bitset_test(visited, r))
        for new in found:
            # one flip of distinct ranks, or distinct ranks of their own: no
            # rank repeats
            if new.size:
                K.bitset_add(cand, new)
            del new
        del ranks, found  # before the next block is extracted
    return cand


def _expand_layer(
    graph: PancakeGraph,
    visited: np.ndarray,
    frontier: np.ndarray,
    workers: int,
    bottom_up: bool,
) -> np.ndarray:
    """Bitset of the next layer (unvisited neighbors of the frontier)."""
    nwords = visited.shape[0]
    if workers <= 1 or nwords < workers:
        return _expand_span(graph, visited, frontier, 0, nwords, bottom_up)
    from concurrent.futures import ThreadPoolExecutor  # single-worker runs skip its import

    bounds = [nwords * w // workers for w in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        cand, *parts = pool.map(
            lambda lo, hi: _expand_span(graph, visited, frontier, lo, hi, bottom_up),
            bounds,
            bounds[1:],
        )
    for part in parts:
        np.bitwise_or(cand, part, out=cand)
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
            graph, layer, lambda r: _in_layer(layer, r) | _in_layer(previous, r)
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
    holds whole-graph bitsets and splits each layer over ``workers`` threads.
    The ball engine holds the last two layers as sorted rank arrays on one
    thread, so its memory grows with the first layers, not with the graph.
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
