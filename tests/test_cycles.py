"""Cycle enumeration, canonical forms, and classification matching."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (
    all_perms,
    all_signed_perms,
    brute_force_cycles,
    canonical_form,
    dfs_cycles_reference,
    half_path_cycles_reference,
    match_form_reference,
)
from pancakes import cycles as cycles_module
from pancakes.cycles import (
    FAMILIES,
    UNMATCHED,
    CensusReport,
    Cycle,
    CycleFamily,
    FamilyMatch,
    InfeasibleSizeError,
    UnsupportedLengthError,
    _canonical_forms,
    _walk_closes_simply,
    canonicalize,
    enumerate_cycles,
    families_for,
    match_form,
    verify_classification,
)
from pancakes.formulas import eval_formula
from pancakes.graphs import GraphKind, PancakeGraph
from pancakes.search import MEMORY_LIMIT_ENV, MemoryLimitError

PLAIN = GraphKind.PLAIN
BURNT = GraphKind.BURNT


def graph(kind, n):
    return PancakeGraph(kind, n)


label_sequences = st.lists(
    st.integers(min_value=1, max_value=9), min_size=1, max_size=12
).map(tuple)


@st.composite
def tied_top_sequences(draw):
    """Label sequences whose largest label occurs 2 to 4 times, in any order:
    the rotations that start at it tie on their first label."""
    top = draw(st.integers(min_value=2, max_value=9))
    rest = draw(st.lists(st.integers(min_value=1, max_value=top - 1), max_size=8))
    copies = draw(st.integers(min_value=2, max_value=4))
    return tuple(draw(st.permutations(rest + [top] * copies)))


class TestCanonicalize:
    def test_rotates_to_maximal(self):
        assert canonicalize((2, 3, 2, 3, 2, 3)) == (3, 2, 3, 2, 3, 2)

    def test_already_maximal(self):
        assert canonicalize((3, 2, 3, 2, 3, 2)) == (3, 2, 3, 2, 3, 2)

    def test_rotation_invariant_sequence(self):
        assert canonicalize((4, 1, 4, 1, 4, 1, 4, 1)) == (4, 1, 4, 1, 4, 1, 4, 1)

    def test_reversal_needed(self):
        # no rotation of the input equals the canonical form; its reversal's does
        assert canonicalize((5, 2, 3, 4)) == (5, 4, 3, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            canonicalize(())

    def test_matches_independent_oracle(self):
        for labels in [(2, 3, 2, 3, 2, 3), (4, 2, 4, 3, 1), (1, 2, 3), (7,)]:
            assert canonicalize(labels) == canonical_form(labels)

    @given(st.one_of(label_sequences, tied_top_sequences()))
    def test_matches_oracle_on_any_sequence(self, labels):
        assert canonicalize(labels) == canonical_form(labels)

    @given(st.lists(st.one_of(label_sequences, tied_top_sequences()), min_size=1, max_size=8))
    def test_array_forms_match_oracle_row_by_row(self, sequences):
        # the census canonicalizes all traversals of one length in one call
        for length in {len(seq) for seq in sequences}:
            rows = [seq for seq in sequences if len(seq) == length]
            forms = _canonical_forms(np.array(rows, dtype=np.uint8))
            assert forms.dtype == np.uint8 and forms.shape == (len(rows), length)
            for seq, form in zip(rows, forms.tolist()):
                assert tuple(form) == canonical_form(seq), seq

    @given(st.lists(st.integers(min_value=100, max_value=127), min_size=10, max_size=12).map(tuple))
    def test_array_forms_past_int64_keys(self, labels):
        # 101^10 > 2^63: each rotation's number is a Python int
        forms = _canonical_forms(np.array([labels, labels[::-1]], dtype=np.uint8))
        assert forms.tolist() == [list(canonical_form(labels))] * 2

    @given(label_sequences)
    def test_idempotent(self, labels):
        once = canonicalize(labels)
        assert canonicalize(once) == once

    @given(label_sequences, st.integers(min_value=0, max_value=11))
    def test_rotation_invariant(self, labels, s):
        s %= len(labels)
        rotated = labels[s:] + labels[:s]
        assert canonicalize(rotated) == canonicalize(labels)

    @given(label_sequences)
    def test_reversal_invariant(self, labels):
        assert canonicalize(labels[::-1]) == canonicalize(labels)

    @given(label_sequences)
    def test_result_is_a_rotation_of_input_or_reversal(self, labels):
        c = canonicalize(labels)
        doubled = labels + labels
        rev = labels[::-1]
        assert any(
            doubled[r : r + len(labels)] == c for r in range(len(labels))
        ) or any((rev + rev)[r : r + len(labels)] == c for r in range(len(labels)))


class TestEnumerate:
    def test_p3_contains_exactly_its_own_six_cycle(self):
        cycles = enumerate_cycles(graph(PLAIN, 3), 6)
        assert len(cycles) == 1
        assert cycles[0].labels == (3, 2, 3, 2, 3, 2)
        assert cycles[0].ranks == (0, 1, 2, 3, 4, 5)  # all of P_3

    def test_bp2_is_a_single_eight_cycle(self):
        cycles = enumerate_cycles(graph(BURNT, 2), 8)
        assert len(cycles) == 1
        assert cycles[0].labels == (2, 1, 2, 1, 2, 1, 2, 1)
        assert cycles[0].ranks == tuple(range(8))

    def test_p3_has_no_seven_cycles(self):
        assert enumerate_cycles(graph(PLAIN, 3), 7) == []

    @pytest.mark.parametrize(
        "kind,n,length",
        [
            (PLAIN, 3, 6),
            (PLAIN, 3, 7),
            (PLAIN, 4, 6),
            (PLAIN, 4, 7),
            (PLAIN, 4, 8),
            (PLAIN, 4, 9),
            (PLAIN, 5, 6),
            (PLAIN, 5, 7),
            (PLAIN, 5, 8),
            (BURNT, 2, 8),
            (BURNT, 2, 9),
            (BURNT, 3, 8),
            (BURNT, 3, 9),
            (BURNT, 4, 8),
        ],
    )
    def test_matches_exhaustive_label_walk_oracle(self, kind, n, length):
        g = graph(kind, n)
        cycles = enumerate_cycles(g, length)
        keyed = {
            (c.labels, tuple(sorted(g.unrank(r).entries for r in c.ranks)))
            for c in cycles
        }
        assert len(keyed) == len(cycles)
        assert keyed == brute_force_cycles(n, kind is BURNT, length)

    def test_girth_no_short_cycles(self):
        for n in (3, 4, 5):
            for length in (3, 4, 5):
                assert enumerate_cycles(graph(PLAIN, n), length) == []
        for n in (2, 3, 4):
            for length in (3, 4, 5, 6, 7):
                assert enumerate_cycles(graph(BURNT, n), length) == []

    @pytest.mark.parametrize(
        "kind,n", [(PLAIN, n) for n in range(1, 8)] + [(BURNT, n) for n in range(1, 6)]
    )
    def test_half_path_join_equals_depth_l_dfs(self, kind, n):
        # same cycles, same traversal kept, same order
        g = graph(kind, n)
        for length in range(3, 10):
            joined = [(c.labels, c.ranks) for c in enumerate_cycles(g, length)]
            reference = [(c.labels, c.ranks) for c in dfs_cycles_reference(g, length)]
            assert joined == reference, length

    @pytest.mark.parametrize(
        "kind,n", [(PLAIN, n) for n in range(2, 9)] + [(BURNT, n) for n in range(1, 7)]
    )
    def test_equals_tuple_half_path_join(self, kind, n):
        # the same cycles, in the same order, as the join of entry tuples
        g = graph(kind, n)
        for length in range(3, 10):
            arrays = enumerate_cycles(g, length)
            assert repr(arrays) == repr(half_path_cycles_reference(g, length)), length

    @pytest.mark.parametrize("kind,n,total", [(PLAIN, 9, 1362), (BURNT, 8, 672)])
    def test_equals_tuple_half_path_join_at_length_nine(self, kind, n, total):
        # the default budget runs them; they store and pair about 25,000 paths
        g = graph(kind, n)
        cycles = enumerate_cycles(g, 9)
        assert len(cycles) == total
        assert repr(cycles) == repr(half_path_cycles_reference(g, 9))
        with pytest.raises(InfeasibleSizeError, match="node budget"):
            enumerate_cycles(g, 9, node_budget=10_000)

    @pytest.mark.parametrize(
        "kind,n,length,total", [(PLAIN, 30, 6, 1), (PLAIN, 30, 5, 0), (BURNT, 17, 5, 0)]
    )
    def test_ranks_past_int64(self, kind, n, length, total):
        # P_30 and BP_17 have ranks the kernels cannot hold; the paths keep
        # Python ints, and the census is still the tuple join's
        g = graph(kind, n)
        assert g.size > 2**63
        cycles = enumerate_cycles(g, length, node_budget=10**12)
        assert len(cycles) == total
        assert repr(cycles) == repr(half_path_cycles_reference(g, length))
        assert all(max(c.ranks) >= 2**63 for c in cycles)

    @pytest.mark.parametrize("kind,n,length,total", [(PLAIN, 8, 8, 316), (BURNT, 6, 9, 240)])
    def test_ranks_are_the_walked_forms_beyond_dfs_reach(self, kind, n, length, total):
        # Each rotation or reversal of a form, walked from the identity with
        # graph.apply, traces a cycle through the identity with that form, and
        # every such cycle is traced so. The vertices are ranked by their index
        # in the sorted enumeration, which shares no code with the census's
        # batch kernels or the tuple ranker behind rank and srank.
        g = graph(kind, n)
        order = all_signed_perms(n) if kind is BURNT else all_perms(n)
        index = {v: r for r, v in enumerate(order)}
        cycles = enumerate_cycles(g, length)
        assert len(cycles) == total
        by_form = {}
        for c in cycles:
            by_form.setdefault(c.labels, []).append(c.ranks)
        for form, census_ranks in by_form.items():
            walked = set()
            for seq in (form, form[::-1]):
                for s in range(length):
                    v = g.identity
                    visited = []
                    for label in seq[s:] + seq[:s]:
                        visited.append(index[v.entries])
                        v = g.apply(v, label)
                    assert v == g.identity
                    assert len(set(visited)) == length
                    walked.add(tuple(sorted(visited)))
            assert sorted(census_ranks) == sorted(walked), form

    def test_output_sorted_and_deterministic(self):
        first = enumerate_cycles(graph(PLAIN, 4), 8)
        second = enumerate_cycles(graph(PLAIN, 4), 8)
        assert first == second
        assert first == sorted(first, key=lambda c: (c.labels, c.ranks))

    def test_every_cycle_passes_through_identity(self):
        for c in enumerate_cycles(graph(PLAIN, 4), 9):
            assert c.ranks[0] == 0
            assert len(c.ranks) == 9 == c.length

    def test_length_bounds(self):
        with pytest.raises(UnsupportedLengthError):
            enumerate_cycles(graph(PLAIN, 4), 2)
        with pytest.raises(UnsupportedLengthError):
            enumerate_cycles(graph(PLAIN, 4), 13)

    def test_node_budget_refusal(self):
        with pytest.raises(InfeasibleSizeError, match="budget"):
            enumerate_cycles(graph(PLAIN, 10), 12, node_budget=10_000)

    @pytest.mark.parametrize(
        "kind,n,length", [(PLAIN, 10, 12), (PLAIN, 14, 9), (BURNT, 16, 10), (PLAIN, 7, 12)]
    )
    def test_memory_charge_covers_traced_peak(self, monkeypatch, kind, n, length):
        # the largest bytes the census passes to the memory check cover what
        # it allocates; at P_7, L = 12 its 33,646 output cycles outweigh the rest
        monkeypatch.delenv(MEMORY_LIMIT_ENV, raising=False)
        g = graph(kind, n)
        charges = []
        check = cycles_module._check_memory

        def record(required, limit, what):
            charges.append(required)
            check(required, limit, what)

        monkeypatch.setattr(cycles_module, "_check_memory", record)
        tracemalloc.start()
        try:
            enumerate_cycles(g, length)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(charges)

    def test_memory_limit_refuses_p20_length_12_early(self, monkeypatch):
        # about 36M a-paths of 7 ranks: the level is refused from its fresh
        # mask's count, before it is built
        monkeypatch.delenv(MEMORY_LIMIT_ENV, raising=False)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryLimitError, match="12-cycle census of P_20"):
                enumerate_cycles(graph(PLAIN, 20), 12, node_budget=10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 30

    def test_degenerate_graphs_have_no_cycles(self):
        assert enumerate_cycles(graph(PLAIN, 2), 6) == []
        assert enumerate_cycles(graph(BURNT, 1), 4) == []


class TestFamilies:
    def test_ids_and_lengths(self):
        by_length = {}
        for fam in FAMILIES:
            by_length.setdefault((fam.kind, fam.length), []).append(fam.id)
        assert by_length[(PLAIN, 6)] == [1]
        assert by_length[(PLAIN, 7)] == [2]
        assert by_length[(PLAIN, 8)] == list(range(3, 11))
        assert by_length[(PLAIN, 9)] == list(range(11, 21))
        assert by_length[(BURNT, 8)] == list(range(23, 27))
        assert by_length[(BURNT, 9)] == [27, 28]

    def test_families_for_selects_and_orders(self):
        fams = families_for(PLAIN, 8)
        assert [f.id for f in fams] == list(range(3, 11))
        with pytest.raises(UnsupportedLengthError):
            families_for(PLAIN, 10)
        with pytest.raises(UnsupportedLengthError):
            families_for(BURNT, 6)

    def test_all_instances_walks_every_k_from_one(self):
        # family 26's k = 2 instance is the single 8-cycle of BP_2
        for fam in FAMILIES:
            expected = [p for k in range(1, 9) for p in fam.instances(k)]
            assert list(fam.all_instances(8)) == expected, fam.id
        f26 = next(fam for fam in FAMILIES if fam.id == 26)
        assert list(f26.all_instances(3)) == [{"k": 2}, {"k": 3}]

    def test_every_instance_traces_a_simple_cycle(self):
        for fam in FAMILIES:
            for params in fam.all_instances(7):
                labels = fam.build(**params)
                assert len(labels) == fam.length, (fam.id, params)
                g = graph(fam.kind, max(labels))
                v = g.identity
                seen = {v}
                for lab in labels[:-1]:
                    v = g.apply(v, lab)
                    assert v not in seen, (fam.id, params)
                    seen.add(v)
                assert g.apply(v, labels[-1]) == g.identity, (fam.id, params)

    def test_length_and_parameters_come_from_the_signature(self):
        for fam in FAMILIES:
            assert fam.length == len(fam.signature.split(" ")), fam.id
            names = sorted(set(re.findall("[a-z]", fam.signature)))
            for params in fam.all_instances(7):
                assert sorted(params) == names, (fam.id, params)

    def test_instances_are_injective_within_each_family(self):
        # raw template sequences: canonical forms may legitimately coincide
        # for symmetric parameter swaps that rotate into the same cycle
        for fam in FAMILIES:
            seen = {}
            for params in fam.all_instances(6):
                labels = fam.build(**params)
                key = tuple(sorted(params.items()))
                assert labels not in seen, (fam.id, key, seen[labels])
                seen[labels] = key

    def test_signature_agrees_with_build(self):
        for fam in FAMILIES:
            for params in fam.all_instances(8):
                written = tuple(
                    eval(token, {"__builtins__": {}}, params)
                    for token in fam.signature.split(" ")
                )
                assert written == fam.build(**params), (fam.id, params)

    def test_largest_label_is_k(self):
        for fam in FAMILIES:
            for params in fam.all_instances(7):
                labels = fam.build(**params)
                k = params.get("k")
                if k is not None:
                    assert max(labels) == k, (fam.id, params)


class TestMatchForm:
    def test_plain_six_cycle(self):
        assert match_form((3, 2, 3, 2, 3, 2), PLAIN) == FamilyMatch(1, ())

    def test_plain_seven_cycle(self):
        m = match_form((4, 3, 4, 3, 2, 4, 2), PLAIN)
        assert m == FamilyMatch(2, (("k", 4),))

    def test_burnt_alternating(self):
        m = match_form((3, 1, 3, 1, 3, 1, 3, 1), BURNT)
        assert m == FamilyMatch(26, (("k", 3),))

    def test_input_is_canonicalized_first(self):
        assert match_form((2, 3, 2, 3, 2, 3), PLAIN) == FamilyMatch(1, ())

    def test_unmatched_form(self):
        assert match_form((5, 2, 5, 2, 5, 2), PLAIN) is UNMATCHED

    def test_unmatched_is_a_singleton(self):
        m = match_form((5, 2, 5, 2, 5, 2), PLAIN)
        assert m is UNMATCHED and repr(m) == "UNMATCHED"

    def test_unsupported_lengths(self):
        with pytest.raises(UnsupportedLengthError):
            match_form((2, 3, 2, 3, 2), PLAIN)
        with pytest.raises(UnsupportedLengthError):
            match_form((2, 1, 2, 1, 2, 1), BURNT)

    def test_matched_instance_reproduces_form(self):
        # every form enumerated in moderate graphs round-trips through its match
        for kind, n, length in [(PLAIN, 5, 8), (PLAIN, 5, 9), (BURNT, 4, 8), (BURNT, 4, 9)]:
            g = graph(kind, n)
            for c in enumerate_cycles(g, length):
                m = match_form(c.labels, kind)
                assert m is not UNMATCHED, c.labels
                fam = next(f for f in FAMILIES if f.id == m.family_id)
                assert canonicalize(fam.build(**dict(m.params))) == c.labels

    def test_nine_cycle_written_in_non_maximal_rotation(self):
        # a burnt 9-cycle template instance whose raw sequence is not its own
        # canonical form still matches its family
        fam27 = next(f for f in FAMILIES if f.id == 27)
        raw = fam27.build(i=2, j=1, k=4)
        form = canonicalize(raw)
        assert form != raw
        m = match_form(form, BURNT)
        assert m is not UNMATCHED
        assert m.family_id in (27, 28)


    @pytest.mark.parametrize(
        "kind,ns,lengths",
        [(PLAIN, range(4, 9), range(6, 10)), (BURNT, range(2, 7), (8, 9))],
    )
    def test_agrees_with_family_scan_on_census_forms(self, kind, ns, lengths):
        # every distinct form of these censuses, and each with one label
        # changed, is named by the same family and parameters as a scan of
        # the families in table order, or unmatched by both
        forms = {
            c.labels
            for n in ns
            for length in lengths
            for c in enumerate_cycles(graph(kind, n), length)
        }
        for form in sorted(forms):
            p = sum(form) % len(form)
            changed = form[:p] + (form[p] % max(form) + 1,) + form[p + 1 :]
            for f in (form, changed):
                assert match_form(f, kind) == match_form_reference(f, kind), f

    def test_agrees_with_family_scan_on_every_instance(self):
        for fam in FAMILIES:
            for params in fam.all_instances(10):
                form = canonicalize(fam.build(**params))
                expected = match_form_reference(form, fam.kind)
                assert expected is not UNMATCHED, (fam.id, params)
                assert match_form(form, fam.kind) == expected, (fam.id, params)

class TestVerifyClassification:
    @pytest.mark.parametrize(
        "kind,n,length",
        [(PLAIN, 4, 6), (PLAIN, 4, 7), (PLAIN, 4, 8), (PLAIN, 4, 9),
         (PLAIN, 5, 6), (PLAIN, 5, 7), (PLAIN, 5, 8), (PLAIN, 5, 9),
         (BURNT, 2, 8), (BURNT, 3, 8), (BURNT, 4, 8),
         (BURNT, 3, 9), (BURNT, 4, 9),
         (PLAIN, 8, 9), (PLAIN, 9, 6), (PLAIN, 9, 7), (PLAIN, 9, 8),
         (BURNT, 6, 9), (BURNT, 7, 8), (BURNT, 7, 9)],
    )
    def test_zero_unmatched(self, kind, n, length):
        report = verify_classification(graph(kind, n), length)
        assert report.ok
        assert report.unmatched == ()
        assert report.total == report.matched_total

    def test_seven_cycle_census_instances(self):
        report = verify_classification(graph(PLAIN, 5), 7)
        assert set(report.per_family) == {2}
        assert report.per_family[2].instances == ((("k", 4),), (("k", 5),))

    def test_burnt_eight_cycle_census(self):
        report = verify_classification(graph(BURNT, 3), 8)
        assert report.total == 6
        assert {fid: t.count for fid, t in report.per_family.items()} == {
            23: 2, 25: 2, 26: 2,
        }

    def test_burnt_nine_cycle_census(self):
        report = verify_classification(graph(BURNT, 4), 9)
        assert report.total == 48
        assert {fid: t.count for fid, t in report.per_family.items()} == {
            27: 36, 28: 12,
        }

    @pytest.mark.parametrize(
        "kind,n,length,tallies",
        [
            (PLAIN, 6, 8,
             {3: 20, 4: 12, 5: 12, 6: 12, 7: 24, 8: 12, 9: 10, 10: 1}),
            (PLAIN, 6, 9,
             {11: 27, 12: 27, 13: 36, 14: 27, 15: 27, 16: 27, 17: 9, 18: 3,
              19: 30, 20: 18}),
            (BURNT, 5, 8, {23: 20, 24: 4, 25: 12, 26: 4}),
            (BURNT, 5, 9, {27: 90, 28: 30}),
        ],
    )
    def test_per_family_tallies(self, kind, n, length, tallies):
        # match_form takes the first family and instance that reproduces a
        # form, so these counts pin the order instances are tried in
        report = verify_classification(graph(kind, n), length)
        assert report.ok
        assert {fid: t.count for fid, t in report.per_family.items()} == tallies
        assert report.total == sum(tallies.values())

    @pytest.mark.parametrize("n", range(1, 10))
    def test_burnt_eight_cycles_account_for_r4_burnt(self, n):
        # the paper's R_4^B theorem: of the n (n-1)^3 non-backtracking 4-flip
        # walks from the identity, those beyond the R_4^B(n) vertices they
        # reach are the n (n-1)^2 / 2 8-cycles through it, in families 23-26
        report = verify_classification(graph(BURNT, n), 8)
        assert report.ok
        assert report.total == n * (n - 1) ** 3 - eval_formula("r4-burnt", n)
        assert report.total == n * (n - 1) ** 2 // 2
        expected = {
            23: 2 * math.comb(n, 3),
            24: math.comb(n - 1, 3),
            25: (n - 1) * (n - 2),
            26: n - 1,
        }
        tallies = {fid: t.count for fid, t in report.per_family.items()}
        assert tallies == {fid: c for fid, c in expected.items() if c}

    def test_plain_per_vertex_totals(self):
        # one 6-cycle, 7(n-3) = 42 7-cycles and (n^3+12n^2-103n+176)/2 = 475
        # 8-cycles through each vertex of P_9 (Konstantinova & Medvedev,
        # Ars Math. Contemp. 2014)
        n = 9
        totals = {
            length: verify_classification(graph(PLAIN, n), length).total
            for length in (6, 7, 8)
        }
        assert totals == {6: 1, 7: 7 * (n - 3), 8: (n**3 + 12 * n**2 - 103 * n + 176) // 2}

    def test_plain_eight_cycle_forms_match_instantiations(self):
        found = {c.labels for c in enumerate_cycles(graph(PLAIN, 4), 8)}
        expected = set()
        for fam in families_for(PLAIN, 8):
            for params in fam.all_instances(4):
                expected.add(canonicalize(fam.build(**params)))
        assert found == expected
        # the fixed all-max-alternating family is present
        assert (4, 3, 4, 3, 4, 3, 4, 3) in found

    def test_closing_check_needs_a_simple_closed_walk(self):
        assert _walk_closes_simply(graph(PLAIN, 4), (3, 2, 3, 2, 3, 2))
        assert _walk_closes_simply(graph(BURNT, 2), (2, 1, 2, 1, 2, 1, 2, 1))
        # open: the sixth flip leads back to the fifth vertex, not the identity
        assert not _walk_closes_simply(graph(PLAIN, 4), (3, 2, 3, 2, 3, 3))
        # closed, but the third flip undoes the second
        assert not _walk_closes_simply(graph(PLAIN, 4), (4, 2, 2, 4))
        assert not _walk_closes_simply(graph(BURNT, 3), (1, 1, 2, 2))

    def test_report_fields(self):
        report = verify_classification(graph(BURNT, 2), 8)
        assert report.kind is BURNT and report.n == 2 and report.length == 8
        assert report.total == 1
        assert report.per_family == {26: report.per_family[26]}
        assert report.per_family[26].count == 1
        assert report.per_family[26].instances == ((("k", 2),),)

    def test_empty_census_is_ok(self):
        report = verify_classification(graph(BURNT, 2), 9)
        assert report.total == 0 and report.ok and report.per_family == {}
