"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written with a different algorithm than the
package under test: function-composition flips, sort-and-index ranks,
hash-set BFS over tuples, and label-product cycle enumeration. Slow but
obviously correct at the small sizes the tests use. The exceptions are the
package's own earlier algorithms, kept to check that their replacements
return exactly the same results: ``dfs_cycles_reference``, the depth-L cycle
enumeration, ``half_path_cycles_reference``, its successor, the tuple
half-path join, ``match_form_reference``, the family-by-family scan of the
cycle classification, ``bfs_walk_reference``, the bitset-BFS distance
query, and ``con63_rhs_reference`` and ``fit_newton_reference``, the binomial double
sum and the difference loop of the formula checks.
"""

from __future__ import annotations

import inspect
import itertools
import math
from collections import deque
from typing import Iterable, Mapping

import numpy as np

from pancakes import _kernels as K
from pancakes.cycles import (
    FAMILIES,
    UNMATCHED,
    Cycle,
    FamilyMatch,
    _Unmatched,
    canonicalize,
)
from pancakes.formulas import (
    FitError,
    IdentityReport,
    NewtonPoly,
    Verdict,
    published_cells,
)
from pancakes.graphs import GraphKind, PancakeGraph
from pancakes.perms import (
    Perm,
    SignedPerm,
    _flip,
    _lehmer,
    _signed_flip,
    _signed_lehmer,
    rank,
    srank,
)
from pancakes.search import _layers, _start


# ---------------------------------------------------------------------------
# flips via explicit function composition (right multiplication)

def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p . q)(x) = p(q(x)) for one-line tuples over [1, n]."""
    return tuple(p[q[x] - 1] for x in range(len(p)))


def reversal_perm(n: int, i: int) -> tuple[int, ...]:
    """One-line notation of r_i in S_n: i (i-1) ... 1 (i+1) ... n."""
    return tuple(range(i, 0, -1)) + tuple(range(i + 1, n + 1))


def flip_by_composition(p: tuple[int, ...], i: int) -> tuple[int, ...]:
    return compose(p, reversal_perm(len(p), i))


def signed_flip_reference(s: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Signed flip computed entrywise from the definition of r_i^B."""
    out = []
    for pos in range(1, len(s) + 1):
        if pos <= i:
            out.append(-s[i - pos])
        else:
            out.append(s[pos - 1])
    return tuple(out)


# ---------------------------------------------------------------------------
# ranks via explicit enumeration / sort-and-index

def all_perms(n: int) -> list[tuple[int, ...]]:
    return sorted(itertools.permutations(range(1, n + 1)))


def brute_rank(p: tuple[int, ...]) -> int:
    return all_perms(len(p)).index(p)


def all_signed_perms(n: int) -> list[tuple[int, ...]]:
    """All signed permutations ordered by (lex rank of |s|, sign-bit value)."""
    out = []
    for base in all_perms(n):
        for bits in range(1 << n):
            out.append(
                tuple(-v if bits >> idx & 1 else v for idx, v in enumerate(base))
            )
    return out


def brute_srank(s: tuple[int, ...]) -> int:
    return all_signed_perms(len(s)).index(s)


# ---------------------------------------------------------------------------
# naive hash-set BFS over tuples (the layer-profile oracle)

def _neighbors(v: tuple[int, ...], burnt: bool) -> list[tuple[int, ...]]:
    n = len(v)
    if burnt:
        return [signed_flip_reference(v, i) for i in range(1, n + 1)]
    return [flip_by_composition(v, i) for i in range(2, n + 1)]


def naive_layer_counts(n: int, burnt: bool) -> list[int]:
    """BFS shell sizes from the identity using a dict of distances."""
    start = tuple(range(1, n + 1))
    dist = {start: 0}
    queue = deque([start])
    counts = [1]
    while queue:
        v = queue.popleft()
        d = dist[v]
        for w in _neighbors(v, burnt):
            if w not in dist:
                dist[w] = d + 1
                if d + 1 == len(counts):
                    counts.append(0)
                counts[d + 1] += 1
                queue.append(w)
    return counts


def naive_distance(target: tuple[int, ...], burnt: bool) -> int:
    start = tuple(range(1, len(target) + 1))
    if target == start:
        return 0
    dist = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in _neighbors(v, burnt):
            if w not in dist:
                dist[w] = dist[v] + 1
                if w == target:
                    return dist[w]
                queue.append(w)
    raise AssertionError("target unreachable")


def naive_distance_map(n: int, burnt: bool) -> dict[tuple[int, ...], int]:
    start = tuple(range(1, n + 1))
    dist = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in _neighbors(v, burnt):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


# ---------------------------------------------------------------------------
# cycle enumeration by exhaustive label products

def canonical_form(labels: tuple[int, ...]) -> tuple[int, ...]:
    L = len(labels)
    best = None
    for seq in (labels, labels[::-1]):
        doubled = seq + seq
        for r in range(L):
            cand = doubled[r : r + L]
            if best is None or cand > best:
                best = cand
    return best


def brute_force_cycles(n: int, burnt: bool, L: int) -> set[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """All simple L-cycles through the identity, keyed by (canonical form, vertex set).

    Enumerates every length-L label sequence (degree^L of them), walks it from
    the identity, and keeps the ones that close into a simple cycle. Feasible
    for tiny graphs only; completely independent of any DFS pruning logic.
    """
    start = tuple(range(1, n + 1))
    indices = range(1, n + 1) if burnt else range(2, n + 1)
    found = set()
    for labels in itertools.product(indices, repeat=L):
        v = start
        path = [v]
        ok = True
        for i in labels:
            v = signed_flip_reference(v, i) if burnt else flip_by_composition(v, i)
            path.append(v)
        if v != start:
            continue
        interior = path[:-1]
        if len(set(interior)) != L:
            ok = False
        if ok:
            found.add((canonical_form(labels), tuple(sorted(interior))))
    return found


def match_form_reference(form: tuple[int, ...], kind: GraphKind) -> FamilyMatch | _Unmatched:
    """The first family instance whose labels canonicalize to ``form``, by a scan.

    The classification matcher ``match_form`` used before it looked forms up
    in a table: families by id, parameters i outermost, the first instance
    that reproduces the form wins. Here the parameters are the argument
    names of each family's ``where`` and the labels are the signature's
    tokens evaluated as Python expressions, so nothing is shared with the
    package's template parser or its lookup table.
    """
    f = canonical_form(tuple(form))
    k = max(f)
    for family in FAMILIES:
        tokens = family.signature.split(" ")
        if family.kind is not kind or len(tokens) != len(f):
            continue
        free = [name for name in inspect.signature(family.where).parameters if name != "k"]
        for values in itertools.product(range(1, k + 1), repeat=len(free)):
            params = dict(zip(free, values), k=k)
            if not family.where(**params):
                continue
            labels = tuple(eval(token, {"__builtins__": {}}, params) for token in tokens)
            if canonical_form(labels) == f:
                named = [(name, v) for name, v in params.items() if name in family.signature]
                return FamilyMatch(family.id, tuple(sorted(named)))
    return UNMATCHED


def dfs_cycles_reference(graph: PancakeGraph, length: int) -> list[Cycle]:
    """All simple ``length``-cycles through the identity by one depth-L DFS.

    The enumeration ``enumerate_cycles`` ran before it joined half-length
    paths, kept verbatim (without the length and node-budget gates) so that
    the join can be checked against it list for list: same traversal
    choice, same canonical forms and ranks, same order.
    """
    burnt = graph.kind is GraphKind.BURNT
    flip = _signed_flip if burnt else _flip
    flips = list(graph.flip_indices)
    identity = tuple(range(1, graph.n + 1))

    def rank_of(entries: tuple[int, ...]) -> int:
        return srank(SignedPerm(entries)) if burnt else rank(Perm(entries))

    found: dict[tuple[tuple[int, ...], tuple[int, ...]], Cycle] = {}
    path: list[tuple[int, ...]] = [identity]
    on_path: set[tuple[int, ...]] = {identity}
    labels: list[int] = []

    def record(closing_label: int) -> None:
        if path[1] > path[-1]:
            return  # the reverse traversal of a cycle already (or later) kept
        form = canonicalize(labels + [closing_label])
        ranks = tuple(sorted(rank_of(v) for v in path))
        key = (form, ranks)
        if key in found:
            raise AssertionError(
                f"two traversals of distinct cycles collided on {key}"
            )
        found[key] = Cycle(form, ranks)

    def dfs(v: tuple[int, ...]) -> None:
        depth = len(labels)
        previous = labels[-1] if labels else 0
        closing = depth == length - 1
        for i in flips:
            if i == previous:
                continue  # flips are involutions; this undoes the last step
            w = flip(v, i)
            if closing:
                if w == identity:
                    record(i)
                continue
            if w == identity or w in on_path:
                continue
            labels.append(i)
            path.append(w)
            on_path.add(w)
            dfs(w)
            labels.pop()
            path.pop()
            on_path.remove(w)

    if length >= 3 and graph.degree >= 2:
        dfs(identity)
    return sorted(found.values(), key=lambda c: (c.labels, c.ranks))


def half_path_cycles_reference(graph: PancakeGraph, length: int) -> list[Cycle]:
    """All simple ``length``-cycles through the identity by a tuple half-path join.

    The enumeration ``enumerate_cycles`` ran before it grew its paths as
    rank arrays, kept without the length and node-budget gates: one DFS
    stores the simple b-flip paths from the identity by endpoint, a second
    DFS to depth a = length - b streams the a-flip paths and joins each with
    the stored paths that end where it ends and share no other vertex. The
    traversal whose first vertex is the smaller entry tuple is kept; each
    distinct vertex is ranked once from its entry tuple. No kernel code runs.
    """
    burnt = graph.kind is GraphKind.BURNT
    flip = _signed_flip if burnt else _flip
    flips = list(graph.flip_indices)
    identity = tuple(range(1, graph.n + 1))
    rank_memo: dict[tuple[int, ...], int] = {}

    def rank_of(v: tuple[int, ...]) -> int:
        r = rank_memo.get(v)
        if r is None:
            r = rank_memo[v] = _signed_lehmer(v) if burnt else _lehmer(v)
        return r

    path: list[tuple[int, ...]] = [identity]
    on_path: set[tuple[int, ...]] = {identity}
    labels: list[int] = []

    def walk(v: tuple[int, ...], depth: int, visit) -> None:
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


# ---------------------------------------------------------------------------
# distance queries by the layered bitset BFS

def bfs_walk_reference(graph: PancakeGraph, target: Perm | SignedPerm) -> tuple[int, ...]:
    """Lexicographically smallest optimal flip sequence by the layered BFS.

    The walk ``distance`` and ``sort_sequence`` ran before they searched by
    IDA*, kept verbatim except that it runs with one worker under the
    default memory limit, whose check no longer counts the three residue
    bitsets. It runs the BFS up to the target's layer, OR-ing
    layer k into residue bitset k mod 3, then descends from ``target``
    greedily taking the smallest flip index whose result lies in the residue
    of the layer below. A layer-d vertex has neighbours only in layers d - 1,
    d and d + 1, whose residues differ, so that test picks exactly the
    layer-(d - 1) neighbours.
    """
    target_rank = graph.rank(target)
    if target_rank == 0:
        return ()
    workers = 1
    visited, frontier = _start(graph, None, workers, "reference walk")
    # layer 0 is the start frontier itself: the generator reads it only to
    # expand layer 1, and residue 0 is first OR-ed into at layer 3
    residues = [frontier, K.bitset_alloc(graph.size), K.bitset_alloc(graph.size)]
    probe = np.array([target_rank], dtype=np.int64)
    for depth, (new, _) in enumerate(_layers(graph, visited, frontier, [1], workers), 1):
        np.bitwise_or(residues[depth % 3], new, out=residues[depth % 3])
        if K.bitset_test(new, probe)[0]:
            break
    else:
        raise AssertionError("target not reached; graph should be connected")
    sequence = []
    current = target
    for depth in range(depth, 0, -1):
        for i in graph.flip_indices:
            step = graph.apply(current, i)
            probe[0] = graph.rank(step)
            if K.bitset_test(residues[(depth - 1) % 3], probe)[0]:
                sequence.append(i)
                current = step
                break
        else:
            raise AssertionError("no descending neighbor; layer residues inconsistent")
    return tuple(sequence)


# ---------------------------------------------------------------------------
# Gregory–Newton forms by the hand-written sums the formula checks ran before
# they shared one forward-difference routine

def con63_rhs_reference(
    k: int, n: int, table: Mapping[tuple[int, int], int] | None = None
) -> IdentityReport:
    """``check_gregory_newton_con63`` with its right-hand side summed as

        sum_{j=1}^k ( sum_{i=0}^{k-j} (-1)^i C(i+j, i) C(n, i+j) ) R_k^B(j),

    kept verbatim, so its reports can be compared with the Newton form's.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got k={k}")
    if table is None:
        table = published_cells(GraphKind.BURNT)

    def report(verdict, lhs=None, rhs=None, reason=""):
        return IdentityReport("con63", k, n, verdict, lhs, rhs, reason)

    lhs = table.get((k, n))
    if lhs is None:
        return report(Verdict.INSUFFICIENT, reason=f"R_{k}^B({n}) is not tabulated")
    rhs = 0
    for j in range(1, k + 1):
        base = table.get((k, j))
        if base is None:
            return report(
                Verdict.INSUFFICIENT,
                lhs,
                reason=f"base value R_{k}^B({j}) is not tabulated",
            )
        coefficient = sum(
            (-1) ** i * math.comb(i + j, i) * math.comb(n, i + j)
            for i in range(k - j + 1)
        )
        rhs += coefficient * base
    return report(Verdict.HOLDS if lhs == rhs else Verdict.FAILS, lhs, rhs)


def fit_newton_reference(values: Iterable[tuple[int, int]]) -> NewtonPoly:
    """``fit_newton`` by its own difference loop, kept verbatim: the degree
    is the first order whose differences are constant across all supplied
    points (witnessed by at least two entries)."""
    points = sorted(values)
    if len(points) < 2:
        raise ValueError("need at least two data points to fit")
    ns = [n for n, _ in points]
    for a, b in zip(ns, ns[1:]):
        if b != a + 1:
            raise ValueError(f"data points must be at consecutive n; gap at {a}..{b}")
    row = [v for _, v in points]
    coefficients = [row[0]]
    while len(row) >= 2:
        if len(set(row)) == 1:
            return NewtonPoly(n0=ns[0], coefficients=tuple(coefficients))
        row = [b - a for a, b in zip(row, row[1:])]
        coefficients.append(row[0])
    raise FitError(
        f"forward differences never stabilize within {len(points)} points; "
        "more data or no polynomial"
    )


# ---------------------------------------------------------------------------
# CRC-32C, one byte at a time

def _crc32c_byte_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0x82F63B78 & -(crc & 1))
        table.append(crc)
    return table


_CRC32C_BYTE_TABLE = _crc32c_byte_table()


def crc32c_reference(data: bytes, crc: int = 0) -> int:
    """CRC-32C (reflected Castagnoli polynomial) by the plain byte-table loop."""
    crc ^= 0xFFFFFFFF
    for byte in data:
        crc = _CRC32C_BYTE_TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF
