"""Short-cycle enumeration and classification in pancake graphs.

Every simple cycle of length L through the identity is found by joining
simple paths of about L/2 flips from the identity that end at the same vertex
and share no other vertex (vertex transitivity makes the identity-rooted
census representative of the whole graph). A cycle is reported by its
canonical form: the lexicographically maximal flip-label sequence over all
rotations of either traversal direction.

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

from .graphs import GraphKind, PancakeGraph
from .perms import _lehmer, _signed_lehmer

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


class UnsupportedLengthError(ValueError):
    """Cycle length outside the supported range for the operation."""


class InfeasibleSizeError(RuntimeError):
    """The estimated search size exceeds the node budget; nothing was run."""


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
        return len(self.signature.split())

    def build(self, **params: int) -> tuple[int, ...]:
        """The template's labels at these parameter values."""
        return tuple(
            sum(s * (params[a] if isinstance(a, str) else a) for s, a in label)
            for label in _parse(self.signature)
        )

    def instances(self, k: int) -> Iterator[dict[str, int]]:
        """Every in-range parameter dict whose largest label is ``k``."""
        names = sorted(set(re.findall("[a-z]", self.signature)))
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


def _flip_plain(entries: tuple[int, ...], i: int) -> tuple[int, ...]:
    return entries[i - 1 :: -1] + entries[i:]


def _flip_burnt(entries: tuple[int, ...], i: int) -> tuple[int, ...]:
    return tuple(-e for e in entries[i - 1 :: -1]) + entries[i:]


def _dfs_node_estimate(degree: int, length: int) -> int:
    # Nodes a depth-``length`` DFS would expand: after the first step the
    # previous flip is never repeated, so its tree branches by (degree - 1).
    # The half-path join stores about the square root of this in paths, but
    # its work is the path pairs it matches, which grow much faster (P_10 at
    # L = 12: 294,910 stored paths, 1,361,068 pairs). A pair is an a-flip and
    # a b-flip walk, at most degree^2 (degree - 1)^(L - 2) of them, which the
    # last two terms of this sum already reach, so the estimate bounds the
    # pairs and as a gate it is conservative.
    return sum(degree * max(degree - 1, 1) ** (d - 1) for d in range(1, length + 1))


def enumerate_cycles(
    graph: PancakeGraph,
    length: int,
    *,
    node_budget: int | None = None,
) -> list[Cycle]:
    """All simple cycles of exactly ``length`` through the identity, each once.

    Meet in the middle: with a = ceil(L/2) and b = L - a, a traversal
    v0 v1 ... v_{L-1} of a cycle from the identity v0 is a simple a-flip path
    v0 ... v_a joined to a simple b-flip path v0 v_{L-1} ... v_a whose
    interior is disjoint from the first path. One DFS collects the b-flip
    paths by endpoint; a second DFS to depth a streams the a-flip paths and
    joins each with the stored paths that end where it ends. Both DFSs take
    flip labels in ascending order, never undo the previous flip and never
    revisit a vertex. Each cycle has two identity-rooted traversals (one per
    direction); the one whose first interior vertex is the lexicographically
    smaller tuple is kept. Each distinct vertex of the found cycles is
    ranked once per call, from its entry tuple; no :class:`Perm` is built.
    Output is sorted by canonical form, then vertex ranks.
    """
    if not 3 <= length <= 12:
        raise UnsupportedLengthError(
            f"cycle length must be between 3 and 12, got {length}"
        )
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    estimate = _dfs_node_estimate(graph.degree, length)
    if estimate > budget:
        raise InfeasibleSizeError(
            f"depth-{length} cycle search in {graph} would expand about "
            f"{estimate:,} nodes, exceeding the budget of {budget:,}"
        )

    burnt = graph.kind is GraphKind.BURNT
    flip = _flip_burnt if burnt else _flip_plain
    flips = list(graph.flip_indices)
    identity = tuple(range(1, graph.n + 1))
    # vertex -> rank, filled as cycles are found; many cycles share a vertex
    rank_memo: dict[tuple[int, ...], int] = {}

    def rank_of(v: tuple[int, ...]) -> int:
        r = rank_memo.get(v)
        if r is None:
            r = rank_memo[v] = _signed_lehmer(v) if burnt else _lehmer(v)
        return r

    path: list[tuple[int, ...]] = [identity]
    on_path: set[tuple[int, ...]] = {identity}
    labels: list[int] = []

    def walk(v: tuple[int, ...], depth: int, visit: Callable[[], None]) -> None:
        """Call ``visit`` at each simple extension of ``path`` to ``depth`` flips."""
        previous = labels[-1] if labels else 0
        for i in flips:
            if i == previous:
                continue  # flips are involutions; this undoes the last step
            w = flip(v, i)
            if w in on_path:
                continue
            labels.append(i)
            path.append(w)
            on_path.add(w)
            if len(labels) == depth:
                visit()
            else:
                walk(w, depth, visit)
            labels.pop()
            path.pop()
            on_path.remove(w)

    # endpoint -> (first vertex after the identity, interior vertices, labels
    # in the order the joined traversal takes them) of each b-flip path
    halves: dict[tuple[int, ...], list] = {}

    def store() -> None:
        halves.setdefault(path[-1], []).append(
            (path[1], tuple(path[1:-1]), tuple(reversed(labels)))
        )

    found: dict[tuple[tuple[int, ...], tuple[int, ...]], Cycle] = {}

    def join() -> None:
        for last, interior, closing in halves.get(path[-1], ()):
            if path[1] > last:
                continue  # the reverse traversal of a cycle already (or later) kept
            if not on_path.isdisjoint(interior):
                continue
            form = canonicalize(tuple(labels) + closing)
            ranks = tuple(sorted(rank_of(v) for v in itertools.chain(path, interior)))
            key = (form, ranks)
            if key in found:
                raise AssertionError(
                    f"two traversals of distinct cycles collided on {key}"
                )
            found[key] = Cycle(form, ranks)

    walk(identity, length // 2, store)
    walk(identity, length - length // 2, join)
    return sorted(found.values(), key=lambda c: (c.labels, c.ranks))


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
    v = graph.identity
    seen = {v}
    for label in form[:-1]:
        v = graph.apply(v, label)
        if v in seen:
            return False
        seen.add(v)
    return graph.apply(v, form[-1]) == graph.identity


def verify_classification(
    graph: PancakeGraph,
    length: int,
    *,
    node_budget: int | None = None,
) -> CensusReport:
    """Enumerate every L-cycle through the identity and match each to a family.

    Also re-checks, independently of enumeration bookkeeping, that each
    reported canonical form traces a simple closed walk from the identity.
    A report with ``unmatched`` empty confirms the classification at (g, L).
    """
    cycles = enumerate_cycles(graph, length, node_budget=node_budget)
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
