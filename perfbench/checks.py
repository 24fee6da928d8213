"""Output checks for the benchmark, independent of the program's own code paths.

Every check compares against published values or against properties any
correct answer has; none compares against a stored copy of program output.
Each function returns a list of problems (empty when the output is right).

Published sources used here:

* layer counts: ``pancakes.tables`` (prior exhaustive computations);
* per-vertex cycle counts in P_n: one 6-cycle, 7(n-3) 7-cycles and
  (n^3 + 12n^2 - 103n + 176)/2 8-cycles (Konstantinova & Medvedev, "Small
  cycles in the pancake graph", Ars Math. Contemp. 2014);
* diameters: P_n from Heydari & Sudborough (1997) and OEIS A058986, BP_n
  from Cohen & Blum (1995) and OEIS A078941.
"""

from __future__ import annotations

import math

from pancakes import tables

PLAIN_DIAMETER = {1: 0, 2: 1, 3: 3, 4: 4, 5: 5, 6: 7, 7: 8, 8: 9, 9: 10, 10: 11}
BURNT_DIAMETER = {1: 1, 2: 4, 3: 6, 4: 8, 5: 10, 6: 12, 7: 14, 8: 15, 9: 17, 10: 18}


def graph_size(graph: str, n: int) -> int:
    return math.factorial(n) << n if graph == "burnt" else math.factorial(n)


def published_row(graph: str, n: int) -> tuple[int, ...]:
    return (tables.BURNT_COUNTS if graph == "burnt" else tables.PLAIN_COUNTS)[n]


def diameter(graph: str, n: int) -> int:
    return (BURNT_DIAMETER if graph == "burnt" else PLAIN_DIAMETER)[n]


def flip(stack: tuple[int, ...], i: int, signed: bool) -> tuple[int, ...]:
    """Reverse the top ``i`` pancakes; a burnt flip also turns them over."""
    top = stack[i - 1 :: -1]
    if signed:
        top = tuple(-v for v in top)
    return top + stack[i:]


def gap_lower_bound(stack: tuple[int, ...], signed: bool) -> int:
    """Breakpoints against a plate n+1: one flip removes at most one of them."""
    ext = tuple(stack) + (len(stack) + 1,)
    if signed:
        return sum(1 for a, b in zip(ext, ext[1:]) if b - a != 1)
    return sum(1 for a, b in zip(ext, ext[1:]) if abs(b - a) != 1)


def _parse_row(line: str) -> list[int] | None:
    try:
        return [int(v) for v in line.strip().split(",")]
    except ValueError:
        return None


def check_table_row(line: str, graph: str, n: int, k: int | None = None) -> list[str]:
    """A ``pancakes table`` row for one n.

    Without ``k`` the row is a complete profile: it extends the published row
    (or equals it, trailing zeros aside), sums to the vertex count and ends
    at the diameter. With ``k`` it is exactly the published prefix R_0..R_k.
    """
    row = _parse_row(line)
    if row is None or len(row) < 2 or row[0] != n:
        return [f"{graph} n={n}: malformed row {line!r}"]
    counts = row[1:]
    published = published_row(graph, n)
    if k is not None:
        if counts != list(published[: k + 1]):
            return [f"{graph} n={n} k={k}: row {counts} is not the published prefix"]
        return []
    problems = []
    nonzero = len(counts)
    while nonzero and counts[nonzero - 1] == 0:
        nonzero -= 1
    shared = min(len(counts), len(published))
    if counts[:shared] != list(published[:shared]) or any(published[shared:]):
        problems.append(f"{graph} n={n}: row {counts} differs from published {published}")
    if sum(counts) != graph_size(graph, n):
        problems.append(f"{graph} n={n}: row sums to {sum(counts)}, not {graph_size(graph, n)}")
    if nonzero - 1 != diameter(graph, n) or 0 in counts[:nonzero]:
        problems.append(f"{graph} n={n}: row ends at layer {nonzero - 1}, diameter is {diameter(graph, n)}")
    return problems


def check_census(result: dict) -> list[str]:
    """A cycle census: every cycle matched, totals consistent and published."""
    where = f"{result['graph']} n={result['n']} length {result['length']}"
    problems = []
    if not result["ok"] or result["unmatched"]:
        problems.append(f"{where}: {result['unmatched']} unmatched cycles")
    if sum(result["families"].values()) != result["total"]:
        problems.append(f"{where}: family counts do not add up to {result['total']}")
    n, length = result["n"], result["length"]
    if result["graph"] == "plain" and n >= 4:
        expected = {6: 1, 7: 7 * (n - 3), 8: (n**3 + 12 * n**2 - 103 * n + 176) // 2}
        if length in expected and result["total"] != expected[length]:
            problems.append(f"{where}: {result['total']} cycles, published {expected[length]}")
    return problems


def check_formula(result: dict) -> list[str]:
    """A formula cross-check: proved, verified, and equal to the published cells."""
    where = result["name"]
    problems = []
    if result["summary"] != "verified" or not result["rows"]:
        problems.append(f"{where}: summary {result['summary']!r}")
    graph = "burnt" if result["name"].endswith("burnt") else "plain"
    for n, formula_value, profile_value in result["rows"]:
        published = published_row(graph, n)[result["k"]]
        if formula_value != published or profile_value != published:
            problems.append(
                f"{where} n={n}: formula {formula_value}, profile {profile_value}, "
                f"published {published}"
            )
    return problems


def check_query(
    graph: str, stack: list[int], dist: int, flips: list[int], built_with: int | None = None
) -> list[str]:
    """``distance`` and ``sort_sequence`` answers for one stack, optionally
    built with ``built_with`` flips from sorted (an upper bound)."""
    signed = graph == "burnt"
    n = len(stack)
    where = f"{graph} {stack}"
    lowest = 1 if signed else 2
    if any(not lowest <= i <= n for i in flips):
        return [f"{where}: invalid flip in {flips}"]
    current = tuple(stack)
    for i in flips:
        current = flip(current, i, signed)
    problems = []
    if current != tuple(range(1, n + 1)):
        problems.append(f"{where}: flips {flips} leave {list(current)}")
    if len(flips) != dist:
        problems.append(f"{where}: {len(flips)} flips but distance {dist}")
    upper = diameter(graph, n) if built_with is None else min(built_with, diameter(graph, n))
    if not gap_lower_bound(stack, signed) <= dist <= upper:
        problems.append(
            f"{where}: distance {dist} outside [{gap_lower_bound(stack, signed)}, {upper}]"
        )
    return problems
