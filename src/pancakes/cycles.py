"""Short-cycle enumeration and classification in pancake graphs.

Every simple cycle of length L through the identity is found by joining
simple paths of about L/2 flips from the identity that end at the same vertex
and share no other vertex (vertex transitivity makes the identity-rooted
census representative of the whole graph). The paths are grown a flip at a
time as rows of vertex ranks, which the batch kernels of
:mod:`pancakes._kernels` rank, and are joined by sorting one half by
endpoint. A cycle is reported by its canonical form: the lexicographically
maximal flip-label sequence over all rotations of either traversal
direction.

The known classification results give parameterized label templates for every
cycle of lengths 6-9 (plain) and 8-9 (burnt). Each family in ``FAMILIES`` is
its printed template, e.g. "k j i j k k-j+i i k-j+i", plus its parameter range
written as one inequality. ``match_form`` reads k as a form's largest label and
looks the form up among the canonicalized instances with that k; where several
instances share a form, the first in table order (family id, then i, then j)
names it. ``verify_classification`` machine-checks a classification
exhaustively: it enumerates all L-cycles in a concrete graph and reports any
whose form no family produces.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import _kernels as K
from .graphs import GraphKind, PancakeGraph
from .perms import _flip, _lehmer, _signed_flip, _signed_lehmer
from .search import _CHUNK, _check_memory, _chunk_bytes, _flip_ranks

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "Cycle",
    "CycleFamily",
    "FamilyMatch",
    "FamilyTally",
    "CensusReport",
    "UNMATCHED",
    "InfeasibleSizeError",
    "UnsupportedLengthError",
    "canonicalize",
    "enumerate_cycles",
    "families_for",
    "match_form",
    "verify_classification",
]

DEFAULT_NODE_BUDGET = 50_000_000
# bytes a census charges a rank: int64, or past it a pointer and its share of a Python int
_RANK_BYTES = {np.dtype(np.int64): 8, np.dtype(object): 64}


class UnsupportedLengthError(ValueError):
    """Cycle length outside the supported range for the operation."""


class InfeasibleSizeError(RuntimeError):
    """The paths a census stores and pairs pass its node budget; refused before they are built."""


def canonicalize(labels: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically maximal rotation of ``labels`` or of its reversal.

    The label sequence of a cycle is defined up to rotation (choice of start
    vertex) and reversal (traversal direction); the maximum over all 2L
    candidates is the cycle's canonical form. That maximum starts with the
    largest label, so only the rotations, in both directions, that start at
    an occurrence of it are compared.

    >>> canonicalize((2, 3, 2, 3, 2, 3))
    (3, 2, 3, 2, 3, 2)
    >>> canonicalize((4, 1, 4, 1, 4, 1, 4, 1))
    (4, 1, 4, 1, 4, 1, 4, 1)
    """
    t = tuple(labels)
    if not t:
        raise ValueError("empty label sequence")
    top = max(t)
    return max(
        seq[s:] + seq[:s]
        for seq in (t, t[::-1])
        for s, label in enumerate(seq)
        if label == top
    )


@dataclass(frozen=True, slots=True)
class Cycle:
    """One simple cycle through the identity.

    ``labels`` is the canonical form; ``ranks`` are the sorted ranks of the
    cycle's vertices (always including 0, the identity).
    """

    labels: tuple[int, ...]
    ranks: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, slots=True)
class FamilyMatch:
    """A canonical form identified as ``family_id`` at the given parameters."""

    family_id: int
    params: tuple[tuple[str, int], ...]  # (("i", 2), ("k", 4)) — sorted by name


class _Unmatched:
    """Singleton result for a canonical form no family produces."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNMATCHED"


UNMATCHED = _Unmatched()


@functools.cache
def _parse(signature: str) -> tuple[tuple[tuple[int, str | int], ...], ...]:
    """Each label of a template as its signed terms: parameter names or constants.

    >>> _parse("k-j+i 2")
    (((1, 'k'), (-1, 'j'), (1, 'i')), ((1, 2),))
    """
    return tuple(
        tuple(
            (-1 if sign == "-" else 1, int(atom) if atom.isdigit() else atom)
            for sign, atom in zip(["+", *parts[1::2]], parts[::2])
        )
        for parts in (re.split("([+-])", token) for token in signature.split())
    )


@functools.cache
def _names(signature: str) -> tuple[str, ...]:
    """The parameters a template names, sorted.

    >>> _names("k-j+i i 2")
    ('i', 'j', 'k')
    """
    return tuple(sorted({a for label in _parse(signature) for _, a in label if isinstance(a, str)}))


@dataclass(frozen=True, slots=True)
class CycleFamily:
    """A parameterized label template, e.g. "k k-1 k k-1 k-2 k 2".

    ``signature`` is the template as the classification prints it: one
    token per label, each a sum of the parameters i, j, k and integer
    constants. It is the only copy of the template; ``length`` and
    ``build`` are read from it. ``where`` is the family's parameter range as
    one inequality: it takes the signature's parameters by name and always
    ``k``, e.g. ``lambda i, j, k: 2 <= i < j <= k - 1``. ``instances(k)``
    yields, i outermost, every dict of the signature's parameters with
    values in 1..k that satisfies ``where``; the largest label always equals
    the parameter k, which is how matching recovers it from a form.
    """

    id: int
    kind: GraphKind
    signature: str
    where: Callable[..., bool]

    @property
    def length(self) -> int:
        return len(_parse(self.signature))

    def build(self, **params: int) -> tuple[int, ...]:
        """The template's labels at these parameter values."""
        return tuple(
            sum(s * (params[a] if isinstance(a, str) else a) for s, a in label)
            for label in _parse(self.signature)
        )

    def instances(self, k: int) -> Iterator[dict[str, int]]:
        """Every in-range parameter dict whose largest label is ``k``."""
        names = _names(self.signature)
        free = [name for name in names if name != "k"]
        fixed = {"k": k} if "k" in names else {}
        for values in itertools.product(range(1, k + 1), repeat=len(free)):
            params = dict(zip(free, values))
            if self.where(**params, k=k):
                yield params | fixed

    def all_instances(self, max_k: int) -> Iterator[dict[str, int]]:
        """Every in-range parameter dict with k up to ``max_k``."""
        for k in range(1, max_k + 1):
            yield from self.instances(k)


_PLAIN = GraphKind.PLAIN
_BURNT = GraphKind.BURNT

FAMILIES: tuple[CycleFamily, ...] = (
    # -- plain 6-cycles ------------------------------------------------------
    CycleFamily(1, _PLAIN, "3 2 3 2 3 2", lambda k: k == 3),
    # -- plain 7-cycles ------------------------------------------------------
    CycleFamily(2, _PLAIN, "k k-1 k k-1 k-2 k 2", lambda k: k >= 4),
    # -- plain 8-cycles ------------------------------------------------------
    CycleFamily(3, _PLAIN, "k j i j k k-j+i i k-j+i", lambda i, j, k: 2 <= i < j <= k - 1),
    CycleFamily(4, _PLAIN, "k k-1 2 k-1 k 2 3 2", lambda k: k >= 4),
    CycleFamily(5, _PLAIN, "k k-i k-1 i k k-i k-1 i", lambda i, k: 2 <= i <= k - 2),
    CycleFamily(6, _PLAIN, "k k-i+1 k i k k-i k-1 i-1", lambda i, k: 3 <= i <= k - 2),
    CycleFamily(7, _PLAIN, "k k-1 i-1 k k-i+1 k-i k i", lambda i, k: 3 <= i <= k - 2),
    CycleFamily(8, _PLAIN, "k k-1 k k-i k-i-1 k i i+1", lambda i, k: 2 <= i <= k - 3),
    CycleFamily(9, _PLAIN, "k k-j+1 k i k k-j+1 k i", lambda i, j, k: 2 <= i < j <= k - 1),
    CycleFamily(10, _PLAIN, "4 3 4 3 4 3 4 3", lambda k: k == 4),
    # -- plain 9-cycles ------------------------------------------------------
    CycleFamily(11, _PLAIN, "k k-1 i k-1 k i i-1 i+1 2", lambda i, k: 3 <= i <= k - 2),
    CycleFamily(12, _PLAIN, "2 k-i+2 k i-2 i-1 i i-1 k k-i+2", lambda i, k: 4 <= i <= k - 1),
    CycleFamily(13, _PLAIN, "k k-i k-1 k-j+i-1 k-j k j-i+1 j i", lambda i, j, k: 2 <= i < j <= k - 2),
    CycleFamily(14, _PLAIN, "k k-1 i i-1 k-1 k i i+1 2", lambda i, k: 3 <= i <= k - 2),
    CycleFamily(15, _PLAIN, "k k-1 k-2 k-1 k-2 k 3 k k-2", lambda k: k >= 4),
    CycleFamily(16, _PLAIN, "k k-1 k-2 i k 2 k i k-1", lambda i, k: 2 <= i <= k - 3),
    CycleFamily(17, _PLAIN, "k k-j+i k j i k k-j k-i j-i", lambda i, j, k: 2 <= i <= j - 2 <= k - 4),
    CycleFamily(18, _PLAIN, "k k-j+i k-j k j i k k-i j-i", lambda i, j, k: 2 <= i <= j - 2 <= k - 4),
    CycleFamily(19, _PLAIN, "k k-j+i k-j+1 k j i k k-i+1 j-i+1", lambda i, j, k: 2 <= i < j <= k - 1),
    CycleFamily(20, _PLAIN, "k k-1 k k-1 k k-1 k-3 k 3", lambda k: k >= 5),
    # -- burnt 8-cycles ------------------------------------------------------
    CycleFamily(23, _BURNT, "k j i j k k-j+i i k-j+i", lambda i, j, k: 1 <= i < j <= k - 1),
    CycleFamily(24, _BURNT, "k j k i k j k i", lambda i, j, k: min(i, j) >= 2 and i + j <= k),
    CycleFamily(25, _BURNT, "k i k 1 k i k 1", lambda i, k: 2 <= i <= k - 1),
    CycleFamily(26, _BURNT, "k 1 k 1 k 1 k 1", lambda k: k >= 2),
    # -- burnt 9-cycles ------------------------------------------------------
    CycleFamily(27, _BURNT, "k k-i k k-j k-i-j k j i+j i", lambda i, j, k: min(i, j) >= 1 and i + j <= k - 1),
    CycleFamily(28, _BURNT, "k i+j i k k-i j k k-j k-i-j", lambda i, j, k: min(i, j) >= 1 and i + j <= k - 1),
)


def families_for(kind: GraphKind, length: int) -> tuple[CycleFamily, ...]:
    """All template families for this graph kind and cycle length, by id.

    Classifications exist for the lengths ``FAMILIES`` covers: 6-9 (plain)
    and 8-9 (burnt); other lengths raise UnsupportedLengthError.
    """
    supported = sorted({f.length for f in FAMILIES if f.kind is kind})
    if length not in supported:
        raise UnsupportedLengthError(
            f"no classification for {length}-cycles in {kind} graphs "
            f"(supported: {supported})"
        )
    return tuple(f for f in FAMILIES if f.kind is kind and f.length == length)


@functools.cache
def _matches(
    kind: GraphKind, length: int, k: int
) -> dict[tuple[int, ...], FamilyMatch]:
    """Canonical form -> the first instance with largest label ``k`` giving it.

    Instances are taken in table order (family id, then i, then j), so where
    several share a form, the first of them names it. Each table, of O(k^2)
    forms, is kept for the life of the process and only read by callers.
    """
    table: dict[tuple[int, ...], FamilyMatch] = {}
    for family in families_for(kind, length):
        for params in family.instances(k):
            table.setdefault(
                canonicalize(family.build(**params)),
                FamilyMatch(family.id, tuple(sorted(params.items()))),
            )
    return table


def match_form(form: Sequence[int], kind: GraphKind) -> FamilyMatch | _Unmatched:
    """Identify the family template instantiating a canonical form.

    The largest label of any template instance equals its parameter k, so k
    is read off the form and the form is looked up among the canonicalized
    instances with that k. Returns UNMATCHED if no in-range instance of any
    family reproduces the form.
    """
    f = canonicalize(form)
    return _matches(kind, len(f), max(f)).get(f, UNMATCHED)


def _neighbor_ranks(graph: PancakeGraph, ends: np.ndarray) -> np.ndarray:
    """Ranks of every flip of the vertices ``ends``, shape (flips, m), flips ascending."""
    flips = graph.flip_indices
    if ends.dtype == object:
        # ranks past int64, which the kernels refuse: flip and rank entry tuples
        burnt = graph.kind is GraphKind.BURNT
        flip, rank = (_signed_flip, _signed_lehmer) if burnt else (_flip, _lehmer)
        rows = [graph.unrank(r).entries for r in ends]
        nested = [[rank(flip(v, i)) for v in rows] for i in flips]
        return np.array(nested, dtype=object).reshape(len(flips), ends.size)
    state = _flip_ranks(graph, ends.size)  # a chunk's rows, as _chunk_bytes charges
    out = np.empty((len(flips), ends.size), dtype=np.int64)
    for start in range(0, ends.size, _CHUNK):
        perms = state.load(ends[start : start + _CHUNK])
        for row, i in zip(out, flips):
            row[start : start + _CHUNK] = K.batch_rank(perms, i, state)
    return out


def _extend(
    graph: PancakeGraph, ranks: np.ndarray, labels: np.ndarray, charge: Callable[[int, int], None]
) -> tuple[np.ndarray, np.ndarray]:
    """Every simple one-flip extension of the simple paths from the identity
    whose vertex ranks are the rows of ``ranks`` and flips those of ``labels``.

    A flip is kept where its rank differs from every vertex of its path,
    which also drops the flip that undoes the last one. Extensions come path
    by path, flips ascending within each: the order of a DFS. ``charge``
    takes the bytes of ranking, then the paths and bytes of the new level.
    """
    m, depth = labels.shape
    w = _RANK_BYTES[ranks.dtype]
    # the paths extended, and every flip's rank and fresh mask beside a comparison
    held = ranks.size * w + labels.nbytes + graph.degree * m * (w + 2)
    charge(0, held + _chunk_bytes(graph, m))
    neighbors = _neighbor_ranks(graph, ranks[:, -1])
    fresh = np.ones(neighbors.shape, dtype=bool)
    for column in ranks.T:
        fresh &= neighbors != column
    paths = int(np.count_nonzero(fresh))
    # per path two int64 indices, its copied ranks beside its new row, then its labels
    charge(paths, held + paths * (2 * (w + 1) * (depth + 2) + 16))
    rows, k = np.nonzero(fresh.T)
    flips = np.array(graph.flip_indices, dtype=np.uint8)
    return (
        np.column_stack((ranks[rows], neighbors[k, rows])),
        np.column_stack((labels[rows], flips[k])),
    )


def _canonical_forms(labels: np.ndarray) -> np.ndarray:
    """:func:`canonicalize` of each row of the (m, L) uint8 array ``labels``.

    A rotation is read as an L-digit number in base top + 1, where top is
    the largest label, so the lexicographic maximum is the largest number.
    Each rotation's number is rolled from the one before it in three steps:
    drop the leading digit, shift, append it. The numbers are below
    (top + 1)^L: Python ints where that outgrows int64.
    """
    m, length = labels.shape
    base = int(labels.max(initial=0)) + 1
    dtype = np.int64 if base**length <= 1 << 63 else object
    digits = labels.astype(dtype)
    high = base ** (length - 1)
    best = np.zeros(m, dtype=dtype)
    for seq in (digits, digits[:, ::-1]):
        key = np.zeros(m, dtype=dtype)
        for column in seq.T:
            key *= base
            key += column
        np.maximum(best, key, out=best)
        for column in seq.T[:-1]:
            key -= column * high
            key *= base
            key += column
            np.maximum(best, key, out=best)
    forms = np.empty((m, length), dtype=np.uint8)
    for j in range(length - 1, -1, -1):
        forms[:, j] = best % base
        best //= base
    return forms


def _join(graph: PancakeGraph, length: int, charge: Callable[[int, int], None]) -> tuple[np.ndarray, np.ndarray]:
    """Label sequences and vertex ranks of the kept traversals, (m, L) each.

    The a-paths and b-paths are levels a = ceil(L/2) and b = L - a of
    :func:`_extend`. An a-path and a b-path that end at the same vertex and
    share no other vertex but the identity close a traversal: the a-path's
    labels, then the b-path's reversed. Of each cycle's two traversals, the
    one whose first vertex after the identity has the smaller rank is kept.
    The b-paths are sorted by endpoint and paired with a block of a-paths at
    a time, at most as many pairs per block as there are a-paths. ``charge``
    takes the pairs before any is built, and each block's bytes twice: for
    the indices of all its pairs, then for the rows of those left after the
    direction test, about half of them.
    """
    a, b = length - length // 2, length // 2
    a_ranks = np.zeros((1, 1), dtype=np.int64 if graph.size <= 1 << 63 else object)
    a_labels = np.zeros((1, 0), dtype=np.uint8)
    for depth in range(1, a + 1):
        a_ranks, a_labels = _extend(graph, a_ranks, a_labels, charge)
        if depth == b:
            b_ranks, b_labels = a_ranks, a_labels
    w = _RANK_BYTES[a_ranks.dtype]
    # level a and, where it extends it, level b, and 64 bytes a path of sort
    # order, ends, int64 counts, sums and block indices
    held = (a_ranks.size + (b < a) * b_ranks.size) * w + a_labels.nbytes + b_labels.nbytes
    held += 64 * (len(a_ranks) + len(b_ranks))
    # per pair of a block, before the direction test: its two int64 indices beside
    # the two int64 arrays that sum to one of them, or beside both halves' second
    # vertices (int64, or pointers to the shared ints) and the direction mask
    per_pair_made = 33
    # per pair left after it, its int64 indices as kept, both halves' rows, the kept
    # rows' copies, joined row and labels; kept rows count twice, as made and concatenated
    per_pair = 3 * w * (length + 1) + 2 * length + 40
    order = np.argsort(b_ranks[:, -1], kind="stable")
    ends = b_ranks[order, -1]
    lo = np.searchsorted(ends, a_ranks[:, -1], side="left")
    counts = np.searchsorted(ends, a_ranks[:, -1], side="right") - lo
    charge(int(counts.sum()), held)
    cum = np.cumsum(counts)
    traversals, vertices = [np.empty((0, length), np.uint8)], [np.empty((0, length), a_ranks.dtype)]
    start = kept = 0
    while start < len(a_ranks):
        done = int(cum[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(cum, done + len(a_ranks), side="right")))
        charge(0, held + 2 * kept + (int(cum[stop - 1]) - done) * per_pair_made)
        c = counts[start:stop]
        ai = np.repeat(np.arange(start, stop), c)
        # pair p of a-path ai takes the b-path at sorted place lo[ai] + p
        bi = order[np.repeat(lo[start:stop] - (cum[start:stop] - c - done), c) + np.arange(ai.size)]
        forward = a_ranks[ai, 1] < b_ranks[bi, 1]
        ai, bi = ai[forward], bi[forward]
        del forward
        charge(0, held + 2 * kept + ai.size * per_pair)
        pa, pb = a_ranks[ai], b_ranks[bi]
        keep = np.ones(ai.size, dtype=bool)
        for i in range(1, a):
            for j in range(1, b):
                keep &= pa[:, i] != pb[:, j]
        vertices.append(np.concatenate((pa[keep], pb[keep, 1:-1]), axis=1))
        traversals.append(np.concatenate((a_labels[ai[keep]], b_labels[bi[keep], ::-1]), axis=1))
        kept += vertices[-1].nbytes + traversals[-1].nbytes
        start = stop
    return np.concatenate(traversals), np.concatenate(vertices)


def _row_tuples(rows: np.ndarray) -> list[tuple[int, ...]]:
    """The rows of a 2-D array as tuples of Python ints.

    A record view turns each row into a tuple directly, without the list of
    lists that ``tolist`` builds first; rows of Python ints take that route.
    """
    if rows.dtype == object:
        return list(map(tuple, rows.tolist()))
    record = np.dtype([("", rows.dtype)] * rows.shape[1])
    return np.ascontiguousarray(rows).view(record).ravel().tolist()


def enumerate_cycles(
    graph: PancakeGraph,
    length: int,
    *,
    node_budget: int | None = None,
    memory_limit: int | None = None,
) -> list[Cycle]:
    """All simple cycles of exactly ``length`` through the identity, each once.

    Meet in the middle (:func:`_join`): a traversal of a cycle from the
    identity is a simple path of ceil(L/2) flips joined to one of the other
    L - ceil(L/2) flips whose interior it misses. Output is sorted by
    canonical form, then vertex ranks. The census refuses with
    :class:`InfeasibleSizeError` once the paths it stores plus the pairs it
    joins pass ``node_budget`` (default ``DEFAULT_NODE_BUDGET``), and with
    ``MemoryLimitError`` before a level, a block of pairs or the output
    would pass ``memory_limit`` (default ``PANCAKE_MEM_LIMIT`` or 4 GiB).
    """
    if not 3 <= length <= 12:
        raise UnsupportedLengthError(
            f"cycle length must be between 3 and 12, got {length}"
        )
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    what, nodes = f"the {length}-cycle census of {graph}", 0

    def charge(paths: int, required: int) -> None:
        """Count paths stored or paired, then check a step's largest bytes."""
        nonlocal nodes
        nodes += paths
        if nodes > budget:
            raise InfeasibleSizeError(f"{what} stores and pairs over {budget:,} paths, its node budget")
        _check_memory(required, memory_limit, what)

    traversals, vertices = _join(graph, length, charge)
    # a cycle's Cycle, tuples, list slots and ints (<= 40 bytes) outweigh its forms and sort
    charge(0, 65 * vertices.size + 152 * len(vertices))
    forms = _canonical_forms(traversals)
    vertices.sort(axis=1)
    order = np.lexsort((*vertices.T[::-1], *forms.T[::-1]))
    forms, vertices = forms[order], vertices[order]
    twins = np.flatnonzero(
        (forms[1:] == forms[:-1]).all(axis=1) & (vertices[1:] == vertices[:-1]).all(axis=1)
    )
    if twins.size:
        key = (tuple(forms[twins[0]].tolist()), tuple(vertices[twins[0]].tolist()))
        raise AssertionError(f"two traversals of distinct cycles collided on {key}")
    return [Cycle(f, v) for f, v in zip(_row_tuples(forms), _row_tuples(vertices))]


@dataclass(frozen=True, slots=True)
class FamilyTally:
    """Census results for one family: cycle count and parameter bindings seen."""

    count: int
    instances: tuple[tuple[tuple[str, int], ...], ...]


@dataclass(frozen=True, slots=True)
class CensusReport:
    """Exhaustive classification check of all L-cycles through the identity."""

    kind: GraphKind
    n: int
    length: int
    total: int
    per_family: dict[int, FamilyTally]
    unmatched: tuple[tuple[int, ...], ...]

    @property
    def ok(self) -> bool:
        """True when every enumerated cycle matched some family."""
        return not self.unmatched

    @property
    def matched_total(self) -> int:
        return sum(t.count for t in self.per_family.values())


def _walk_closes_simply(graph: PancakeGraph, form: tuple[int, ...]) -> bool:
    """Apply the labels from the identity: L distinct vertices, then return."""
    flip = _signed_flip if graph.kind is GraphKind.BURNT else _flip
    identity = v = tuple(range(1, graph.n + 1))
    seen = {v}
    for label in form[:-1]:
        v = flip(v, label)
        if v in seen:
            return False
        seen.add(v)
    return flip(v, form[-1]) == identity


def verify_classification(
    graph: PancakeGraph,
    length: int,
    *,
    node_budget: int | None = None,
    memory_limit: int | None = None,
) -> CensusReport:
    """Enumerate every L-cycle through the identity and match each to a family.

    Also re-checks, independently of enumeration bookkeeping, that each
    reported canonical form traces a simple closed walk from the identity.
    A report with ``unmatched`` empty confirms the classification at (g, L).
    """
    cycles = enumerate_cycles(graph, length, node_budget=node_budget, memory_limit=memory_limit)
    match_of: dict[tuple[int, ...], FamilyMatch | _Unmatched] = {}
    for cycle in cycles:
        if cycle.labels not in match_of:
            if not _walk_closes_simply(graph, cycle.labels):
                raise AssertionError(
                    f"canonical form {cycle.labels} does not trace a simple "
                    f"{length}-cycle from the identity in {graph}"
                )
            match_of[cycle.labels] = match_form(cycle.labels, graph.kind)

    counts: dict[int, int] = {}
    instances: dict[int, set] = {}
    unmatched: list[tuple[int, ...]] = []
    for cycle in cycles:
        m = match_of[cycle.labels]
        if m is UNMATCHED:
            unmatched.append(cycle.labels)
        else:
            counts[m.family_id] = counts.get(m.family_id, 0) + 1
            instances.setdefault(m.family_id, set()).add(m.params)

    per_family = {
        fid: FamilyTally(counts[fid], tuple(sorted(instances[fid])))
        for fid in sorted(counts)
    }
    return CensusReport(
        kind=graph.kind,
        n=graph.n,
        length=length,
        total=len(cycles),
        per_family=per_family,
        unmatched=tuple(sorted(unmatched)),
    )
