"""Small-cancellation checker tests.

Expected values were either computed by hand from the definitions (closures,
factor arithmetic) or frozen from independent brute-force scans in
tests/bruteforce.py; verdict fixtures reproduce the documented example
families.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from bruteforce import (
    closed_walk_brute,
    fg_fits_brute,
    fp_concat_brute,
    fp_fits_brute,
    fp_inv_brute,
    free_reduce_brute,
    sc_max_piece_brute,
    symmetrize_closure_brute,
)
from cubekit.errors import FormatError, GraphInputError, ValidationError
from cubekit.smallcancel import (
    FREE_GROUP,
    FREE_PRODUCT,
    LETTER_BOUNDARY_NOTE,
    Factor,
    FreeGroupPresentation,
    FreeProductPresentation,
    check_small_cancellation,
    expand_family,
    pieces,
    presentation_from_text,
    symmetrize,
    _cancel_rows,
    _closed_walk,
    _inv_free,
    _inv_product,
    _junction_rows,
    _rotate_product,
    _uses_param,
)
from fixtures import cyclic_garbage
from cubekit.formats import parse_presentation_file, parse_relator_expression


def fixture_g(k, values="1,2"):
    return f"generators a b\nparam n = {values}\nrelator (a^n b^n)^{k}\n"


def fixture_k(k, values="1,2"):
    return (
        "factor F1 free-abelian 2 a b\n"
        "factor F2 free-abelian 2 c d\n"
        f"param n = {values}\n"
        f"relator (a^n b^n c^n d^n)^{k}\n"
    )


def fixture_h(orders, k, values="1,2"):
    p, q, r, s = orders
    return (
        f"factor P cyclic {p} a\n"
        f"factor Q cyclic {q} b\n"
        f"factor R cyclic {r} c\n"
        f"factor S cyclic {s} d\n"
        f"param n = {values}\n"
        f"relator [(a b)^n, (c d)^n]^{k}\n"
    )


HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


class TestFactorArith:
    def test_cyclic_product(self):
        f = Factor("P", "cyclic", 7, ("a",))
        assert f.mul(3, 5) == 1
        assert f.inv(3) == 4
        assert f.is_identity(f.mul(3, 4))
        assert not f.is_identity(3)

    def test_cyclic_infinite(self):
        f = Factor("Z", "cyclic", 0, ("x",))
        assert f.mul(3, 5) == 8
        assert f.inv(3) == -3
        assert f.letter("x", -2) == -2

    def test_free_abelian(self):
        f = Factor("A", "free-abelian", 2, ("a", "b"))
        assert f.mul((1, 2), (2, -2)) == (3, 0)
        assert f.inv((1, -3)) == (-1, 3)
        assert f.is_identity((0, 0))
        assert f.letter("b", -4) == (0, -4)

    def test_free_factor(self):
        f = Factor("F", "free", 2, ("a", "b"))
        ab = f.mul(f.letter("a", 1), f.letter("b", 1))
        b_inv_a = f.mul(f.letter("b", -1), f.letter("a", 1))
        assert f.mul(ab, b_inv_a) == (1, 1)
        assert f.format_element((1, 1)) == "a^2"
        assert f.inv((1, -2)) == (2, -1)

    def test_malformed_elements(self):
        cyc = Factor("P", "cyclic", 7, ("a",))
        with pytest.raises(GraphInputError):
            cyc.mul(3, 9)
        ab = Factor("A", "free-abelian", 2, ("a", "b"))
        with pytest.raises(GraphInputError):
            ab.mul((1, 2, 3), (0, 0))
        fr = Factor("F", "free", 2, ("a", "b"))
        with pytest.raises(GraphInputError):
            fr.inv((1, -1))

    def test_factor_validation(self):
        with pytest.raises(GraphInputError):
            Factor("X", "modular", 5, ("a",))
        with pytest.raises(GraphInputError):
            Factor("X", "cyclic", 5, ("a", "b"))
        with pytest.raises(GraphInputError):
            Factor("X", "free", 2, ("a",))


class TestExpandFamily:
    def test_parametric_lengths(self):
        p = presentation_from_text(fixture_g(5))
        assert p.kind == FREE_GROUP
        assert [len(r) for r in p.relators] == [10, 20]

    def test_commutator_length(self):
        text = "generators a b c d\nparam n = 1\nrelator [(a b)^n, (c d)^n]^5\n"
        p = presentation_from_text(text)
        assert [len(r) for r in p.relators] == [40]

    def test_empty_index_set(self):
        pf = parse_presentation_file(fixture_g(5))
        with pytest.raises(GraphInputError):
            expand_family(pf, [])

    def test_explicit_values_override(self):
        pf = parse_presentation_file(fixture_g(5))
        p = expand_family(pf, [3])
        assert [len(r) for r in p.relators] == [30]

    def test_trivial_relator_rejected(self):
        text = "generators a b\nparam n = 1,2\nrelator a^n b a^-n b^-1 b a^n b^-1 a^-n\n"
        # substitution gives a conjugate of the identity once reduced
        with pytest.raises(ValidationError):
            presentation_from_text("generators a\nparam n = 1\nrelator a^n a^-n\n")
        del text

    def test_not_cyclically_reduced_named(self):
        with pytest.raises(ValidationError) as e:
            presentation_from_text("generators a b\nrelator a b a^-1\n")
        assert "a b a^-1" in str(e.value)

    def test_param_free_relator_single_copy(self):
        text = "generators a b\nparam n = 1,2,3\nrelator a b a b\n"
        p = presentation_from_text(text)
        assert len(p.relators) == 1

    def test_unknown_generator(self):
        with pytest.raises(ValidationError):
            presentation_from_text("generators a\nrelator a c\n")

    def test_free_product_alternating(self):
        p = presentation_from_text(fixture_k(5))
        assert p.kind == FREE_PRODUCT
        assert [len(r) for r in p.relators] == [10, 10]
        assert p.display(p.relators[0]).startswith("(a b)(c d)")
        # letters alternate between the two factors
        for r in p.relators:
            assert all(r[i][0] != r[i + 1][0] for i in range(len(r) - 1))

    def test_weak_cyclic_reduction_rejected(self):
        text = (
            "factor P cyclic 5 a\nfactor Q cyclic 5 c\n"
            "relator a c a^-1\n"
        )
        with pytest.raises(ValidationError) as e:
            presentation_from_text(text)
        assert "weakly cyclically reduced" in str(e.value)

    def test_consolidation_inside_factor(self):
        # a and b live in one abelian factor, so a^n b^n is a single letter
        p = presentation_from_text(fixture_k(5))
        assert p.relators[0][0] == (0, (1, 1))
        assert p.relators[1][0] == (0, (2, 2))


class TestSymmetrize:
    def test_two_letter_relator_closure(self):
        p = presentation_from_text("generators a b\nrelator a b\n")
        fam = symmetrize(p)
        assert set(fam.members) == {(1, 2), (2, 1), (-2, -1), (-1, -2)}
        assert fam.base_count == 1

    def test_free_product_period_two_orbit(self):
        text = "factor X cyclic 0 x\nfactor Y cyclic 0 y\nrelator (x y)^5\n"
        fam = symmetrize(presentation_from_text(text))
        xy = tuple(((0, 1), (1, 1)) * 5)
        yx = tuple(((1, 1), (0, 1)) * 5)
        assert set(fam.members) == {
            xy,
            yx,
            tuple((fi, -1) for fi, _ in yx),
            tuple((fi, -1) for fi, _ in xy),
        }
        assert fam.note == LETTER_BOUNDARY_NOTE

    def test_frozen_sizes(self):
        assert len(symmetrize(presentation_from_text(fixture_g(5))).members) == 12
        assert len(symmetrize(presentation_from_text(fixture_k(5))).members) == 8
        assert len(symmetrize(presentation_from_text(fixture_h((5, 5, 5, 5), 5))).members) == 48

    def test_closure_free_group(self):
        fam = symmetrize(presentation_from_text(fixture_g(3)))
        members = set(fam.members)
        for w in members:
            assert _inv_free(w) in members
            assert w[1:] + w[:1] in members

    def test_closure_free_product(self):
        p = presentation_from_text(fixture_h((5, 5, 5, 5), 3, values="1"))
        fam = symmetrize(p)
        members = set(fam.members)
        for w in members:
            assert _inv_product(p.factors, w) in members
            assert _rotate_product(p.factors, w) in members

    def test_members_weakly_cyclically_reduced(self):
        p = presentation_from_text(fixture_h((4, 4, 4, 4), 3, values="1,2"))
        for w in symmetrize(p).members:
            assert len(w) >= 1
            if len(w) > 1 and w[0][0] == w[-1][0]:
                f = p.factors[w[0][0]]
                assert not f.is_identity(f.mul(w[-1][1], w[0][1]))

    def test_deterministic(self):
        a = symmetrize(presentation_from_text(fixture_h((5, 5, 5, 5), 4)))
        b = symmetrize(presentation_from_text(fixture_h((5, 5, 5, 5), 4)))
        assert a.members == b.members


class TestPieces:
    def test_banded_family_max_piece(self):
        fam = symmetrize(presentation_from_text(fixture_g(5)))
        rep = pieces(fam)
        assert rep.max_length == 2
        words = {r.word for r in rep.records}
        assert "a b" in words

    def test_single_relator_no_piece(self):
        fam = symmetrize(presentation_from_text("generators a b\nrelator a b\n"))
        rep = pieces(fam)
        assert rep.records == ()
        assert rep.max_length == 0

    def test_distinct_letters_cap_piece_length(self):
        # the two indices produce different interior letters, so pieces
        # never extend past a single (consolidating) letter
        rep = pieces(symmetrize(presentation_from_text(fixture_k(5))))
        assert rep.max_length == 1

    def test_junction_consolidation_piece(self):
        text = (
            "factor X cyclic 0 x\nfactor Y cyclic 0 y\n"
            "relator x y x^2\nrelator x y x^5\n"
        )
        p = presentation_from_text(text)
        rep = pieces(symmetrize(p))
        assert rep.max_length == 3
        best = rep.records[0]
        assert best.length == 3
        assert best.shortest_fit == 3
        assert best.ratio == Fraction(1)

    def test_ratios_use_shortest_fit(self):
        rep = pieces(symmetrize(presentation_from_text(fixture_g(5))))
        for rec in rep.records:
            assert rec.ratio == Fraction(rec.length, rec.shortest_fit)
            assert rec.shortest_fit >= rec.length

    @pytest.mark.parametrize(
        "text",
        [
            fixture_g(5),
            fixture_g(4),
            "generators a b\nrelator a b a b^-1\nrelator b a^-1 b a\n",
        ],
    )
    def test_free_group_max_matches_bruteforce(self, text):
        fam = symmetrize(presentation_from_text(text))
        rep = pieces(fam)
        assert rep.max_length == sc_max_piece_brute(fam.members, fg_fits_brute)

    @pytest.mark.parametrize(
        "text",
        [
            fixture_k(5),
            fixture_h((5, 5, 5, 5), 5, values="1"),
            "factor X cyclic 0 x\nfactor Y cyclic 0 y\nrelator x y x^2\nrelator x y x^5\n",
        ],
    )
    def test_free_product_max_matches_bruteforce(self, text):
        p = presentation_from_text(text)
        fam = symmetrize(p)
        rep = pieces(fam)

        def fits(piece, r):
            return fp_fits_brute(p.factors, piece, r)

        assert rep.max_length == sc_max_piece_brute(fam.members, fits)

    def test_witnesses_reverify(self):
        p = presentation_from_text(fixture_g(5))
        fam = symmetrize(p)
        by_display = {fam.display(w): w for w in fam.members}
        for rec in pieces(fam).records:
            r1 = by_display[rec.relator]
            r2 = by_display[rec.other]
            piece = r1[: rec.length]
            assert fg_fits_brute(piece, r1)
            assert fg_fits_brute(piece, r2)
            assert r1 != r2

    def test_free_product_witnesses_reverify(self):
        p = presentation_from_text(fixture_h((5, 5, 5, 5), 5))
        fam = symmetrize(p)
        by_display = {fam.display(w): w for w in fam.members}
        for rec in pieces(fam).records:
            r1 = by_display[rec.relator]
            r2 = by_display[rec.other]
            piece = r1[: rec.length]
            assert fp_fits_brute(p.factors, piece, r1)
            assert fp_fits_brute(p.factors, piece, r2)
            assert r1 != r2


class TestCPrime:
    def test_banded_pass_at_five(self):
        v = check_small_cancellation(presentation_from_text(fixture_g(5)), QUARTER)
        assert v.cprime.passed
        assert v.cprime.witness is None

    def test_banded_fail_at_four(self):
        v = check_small_cancellation(presentation_from_text(fixture_g(4)), QUARTER)
        assert not v.cprime.passed
        w = v.cprime.witness
        assert w.length == 2
        assert w.shortest_fit == 8
        assert w.ratio == QUARTER

    def test_abelian_letters_pass(self):
        v = check_small_cancellation(presentation_from_text(fixture_k(5)), QUARTER)
        assert v.cprime.passed

    def test_lambda_monotone(self):
        grid = [Fraction(1, 6), Fraction(1, 5), QUARTER, Fraction(1, 3), HALF]
        for text in (fixture_g(4), fixture_g(5)):
            p = presentation_from_text(text)
            verdicts = [check_small_cancellation(p, lam).cprime.passed for lam in grid]
            for small, big in zip(verdicts, verdicts[1:]):
                # pass at a smaller lambda implies pass at any larger one
                assert not small or big

    def test_truncation_monotone(self):
        verdicts = []
        lengths = []
        for values in ("1", "1,2", "1,2,3"):
            p = presentation_from_text(fixture_g(4, values))
            lengths.append(pieces(symmetrize(p)).max_length)
            verdicts.append(check_small_cancellation(p, QUARTER).cprime.passed)
        # single index has no cross-relator prefix, so it may pass; once a
        # truncation fails, every superfamily fails
        assert verdicts[1] is False
        for prev, nxt in zip(verdicts, verdicts[1:]):
            if not prev:
                assert not nxt
        assert lengths == sorted(lengths)

    def test_enlarging_family_keeps_pieces(self):
        small = presentation_from_text(fixture_g(5, "1"))
        large = presentation_from_text(fixture_g(5, "1,2"))
        fam_small = symmetrize(small)
        fam_large = symmetrize(large)
        large_members = set(fam_large.members)
        by_display = {fam_small.display(w): w for w in fam_small.members}
        for rec in pieces(fam_small).records:
            piece = by_display[rec.relator][: rec.length]
            hits = sum(1 for s in large_members if fg_fits_brute(piece, s))
            assert hits >= 2

    def test_lambda_validation(self):
        p = presentation_from_text(fixture_g(5))
        for bad in (Fraction(0), Fraction(1), Fraction(5, 4), Fraction(-1, 2)):
            with pytest.raises(GraphInputError):
                check_small_cancellation(p, bad)


TRIANGLE = (
    "generators a b c d e f\n"
    "relator a b c^-1\nrelator c d e^-1\nrelator e f a^-1\n"
)
FOUR_CHAIN = (
    "generators a b c d\n"
    "relator a b^-1\nrelator b c^-1\nrelator c d^-1\nrelator d a^-1\n"
)


class TestTFreeGroup:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("values", ["1", "1,2", "2,3", "1,2,3"])
    def test_banded_always_t4(self, k, values):
        v = check_small_cancellation(presentation_from_text(fixture_g(k, values)), HALF)
        assert v.t.passed

    def test_triangle_fails_t4(self):
        v = check_small_cancellation(presentation_from_text(TRIANGLE), HALF)
        assert not v.t.passed
        assert len(v.t.witness) == 3

    def test_triangle_witness_junctions_cancel(self):
        p = presentation_from_text(TRIANGLE)
        fam = symmetrize(p)
        by_display = {fam.display(w): w for w in fam.members}
        v = check_small_cancellation(p, HALF)
        walk = [by_display[w] for w in v.t.witness]
        for r, s in zip(walk, walk[1:] + walk[:1]):
            assert r[-1] == -s[0]
            assert s != _inv_free(r)

    def test_chain_passes_t4_fails_t5(self):
        p = presentation_from_text(FOUR_CHAIN)
        assert check_small_cancellation(p, HALF, t=4).t.passed
        v5 = check_small_cancellation(p, HALF, t=5)
        assert not v5.t.passed
        assert len(v5.t.witness) == 4

    @pytest.mark.parametrize("text", [fixture_g(5, "1"), TRIANGLE, FOUR_CHAIN])
    def test_triple_scan_matches_bruteforce(self, text):
        p = presentation_from_text(text)
        fam = symmetrize(p)
        mem = fam.members
        inv = {w: _inv_free(w) for w in mem}
        brute = False
        for r in mem:
            for s in mem:
                if s == inv[r] or r[-1] != -s[0]:
                    continue
                for t in mem:
                    if t == inv[s] or r == inv[t]:
                        continue
                    if s[-1] == -t[0] and t[-1] == -r[0]:
                        brute = True
        assert check_small_cancellation(p, HALF, t=4).t.passed == (not brute)

    def test_unsupported_t(self):
        p = presentation_from_text(fixture_g(5))
        with pytest.raises(GraphInputError):
            check_small_cancellation(p, HALF, t=3)


class TestTFreeProduct:
    def test_abelian_family_passes(self):
        v = check_small_cancellation(presentation_from_text(fixture_k(5)), QUARTER)
        assert v.t.passed

    @pytest.mark.parametrize("orders", [(4, 4, 4, 4), (5, 5, 5, 5), (4, 5, 6, 7)])
    def test_large_orders_pass(self, orders):
        v = check_small_cancellation(presentation_from_text(fixture_h(orders, 5)), QUARTER)
        assert v.t.passed
        assert v.cprime.passed

    @pytest.mark.parametrize("slot", range(4))
    def test_order_three_fails_via_letters(self, slot):
        orders = [5, 5, 5, 5]
        orders[slot] = 3
        p = presentation_from_text(fixture_h(tuple(orders), 5))
        v = check_small_cancellation(p, QUARTER)
        assert not v.t.passed
        assert len(v.t.witness) == 3
        f = p.factors[slot]
        # the witness letters multiply to the identity in their factor
        assert f.is_identity(f.mul(f.mul(1, 1), 1))

    def test_relators_scanned_as_given(self):
        # rotations of the commutator family do admit all-cancelling
        # triples, but the condition quantifies over the family as written
        p = presentation_from_text(fixture_h((5, 5, 5, 5), 5))
        fam = symmetrize(p)
        factors = p.factors

        def cancels(r, s):
            fi, el = r[-1]
            fj, fl = s[0]
            return fi == fj and factors[fi].is_identity(factors[fi].mul(el, fl))

        mem = fam.members
        inv = {w: _inv_product(factors, w) for w in mem}
        rotated_triple = any(
            cancels(r, s) and cancels(s, t) and cancels(t, r)
            for r in mem
            for s in mem
            if s != inv[r] and cancels(r, s)
            for t in mem
            if t != inv[s] and r != inv[t]
        )
        assert rotated_triple
        assert check_small_cancellation(p, QUARTER).t.passed

    def test_short_relator_refused(self):
        text = "factor A free-abelian 2 a b\nrelator (a b)^5\n"
        p = presentation_from_text(text)
        assert len(p.relators[0]) == 1
        with pytest.raises(ValidationError):
            check_small_cancellation(p, QUARTER)

    def test_unsupported_t(self):
        p = presentation_from_text(fixture_k(5))
        with pytest.raises(GraphInputError):
            check_small_cancellation(p, QUARTER, t=5)

    def test_notes_flag_letter_boundary(self):
        v = check_small_cancellation(presentation_from_text(fixture_k(5)), QUARTER)
        assert LETTER_BOUNDARY_NOTE in v.notes
        vg = check_small_cancellation(presentation_from_text(fixture_g(5)), QUARTER)
        assert vg.notes == ()


# relators whose junctions cancel around a 3-cycle (the first three) and a
# 2-cycle (the fourth and fifth)
CANCELLING_CYCLES = (
    "factor P cyclic 5 a\nfactor Q cyclic 5 b\nfactor R cyclic 5 c\n"
    "relator a^4 b\nrelator b^4 c\nrelator c^4 a\n"
    "relator b^4 a^2\nrelator a^3 b\nrelator a b^2\n"
)


def bool_matrix(rows: list[int]) -> np.ndarray:
    n = len(rows)
    return np.array(
        [[rows[i] >> j & 1 for j in range(n)] for i in range(n)], dtype=bool
    ).reshape(n, n)


class TestClosedWalk:
    """The bitmask reach rows find the same walk as boolean matrix powers."""

    def test_random_digraphs_match_matrix_powers(self):
        rng = random.Random(7)
        found = 0
        for n in (0, 1, 2, 3, 5, 8, 13, 21, 30):
            for density in (0.02, 0.05, 0.1, 0.2, 0.4, 0.8, 1.0):
                for _ in range(3):
                    rows = [
                        sum(1 << j for j in range(n) if rng.random() < density)
                        for _ in range(n)
                    ]
                    adj = bool_matrix(rows)
                    for h in range(1, 6):
                        walk = _closed_walk(rows, h)
                        assert walk == closed_walk_brute(adj, h), (n, density, h)
                        found += walk is not None
        assert found > 300

    def test_walk_is_closed_and_follows_edges(self):
        rows = [0b010, 0b100, 0b001]
        assert _closed_walk(rows, 3) == [0, 1, 2]
        assert _closed_walk(rows, 2) is None
        assert _closed_walk([], 3) is None

    @pytest.mark.parametrize(
        "text",
        [
            fixture_g(4, "1,2,3"),
            fixture_g(5, "1,2,3"),
            fixture_g(3, "1,2,3,4"),
            fixture_g(5, "1"),
            TRIANGLE,
            FOUR_CHAIN,
        ],
    )
    def test_free_group_families_match_matrix_powers(self, text):
        fam = symmetrize(presentation_from_text(text))
        mem = fam.members
        rows = _junction_rows(fam)
        assert bool_matrix(rows).tolist() == [
            [r[-1] == -s[0] and s != _inv_free(r) for s in mem] for r in mem
        ]
        for h in range(1, 6):
            assert _closed_walk(rows, h) == closed_walk_brute(bool_matrix(rows), h)

    @pytest.mark.parametrize(
        "text",
        [
            fixture_h(orders, 5, values)
            for orders in [(4, 4, 4, 4), (5, 6, 7, 8), (3, 5, 5, 5), (2, 2, 2, 2)]
            for values in ["1", "1,2", "1,2,3"]
        ]
        + [CANCELLING_CYCLES],
    )
    def test_free_product_families_match_matrix_powers(self, text):
        p = presentation_from_text(text)
        factors = p.factors

        def cancels(r, s):
            fi, el = r[-1]
            fj, fl = s[0]
            return fi == fj and factors[fi].is_identity(factors[fi].mul(el, fl))

        rows = _cancel_rows(p)
        assert bool_matrix(rows).tolist() == [
            [cancels(r, s) for s in p.relators] for r in p.relators
        ]
        for h in range(1, 6):
            assert _closed_walk(rows, h) == closed_walk_brute(bool_matrix(rows), h)


class TestVerdictShape:
    def test_member_counts_reported(self):
        v = check_small_cancellation(presentation_from_text(fixture_g(5)), QUARTER)
        assert v.member_count == 12
        assert v.kind == FREE_GROUP

    def test_cprime_witness_fields(self):
        v = check_small_cancellation(presentation_from_text(fixture_g(4)), QUARTER)
        w = v.cprime.witness
        assert isinstance(w.ratio, Fraction)
        assert w.relator != w.other

    def test_oracle_consistency_free_groups(self):
        # the verdict's per-relator maximum agrees with a definition-direct
        # scan over all candidate pieces
        p = presentation_from_text(fixture_g(4))
        fam = symmetrize(p)
        mem = fam.members
        prefixes = {r[:m] for r in mem for m in range(1, len(r) + 1)}
        pieces_set = {
            q for q in prefixes if sum(1 for s in mem if fg_fits_brute(q, s)) >= 2
        }
        fails = any(
            max((len(q) for q in pieces_set if fg_fits_brute(q, r)), default=0)
            >= QUARTER * len(r)
            for r in mem
        )
        v = check_small_cancellation(p, QUARTER)
        assert v.cprime.passed == (not fails)

    def test_oracle_consistency_free_products(self):
        p = presentation_from_text(fixture_h((5, 5, 5, 5), 4, values="1"))
        fam = symmetrize(p)
        mem = fam.members
        prefixes = {r[:m] for r in mem for m in range(1, len(r) + 1)}
        pieces_set = {
            q
            for q in prefixes
            if sum(1 for s in mem if fp_fits_brute(p.factors, q, s)) >= 2
        }
        fails = any(
            max(
                (len(q) for q in pieces_set if fp_fits_brute(p.factors, q, r)),
                default=0,
            )
            >= QUARTER * len(r)
            for r in mem
        )
        v = check_small_cancellation(p, QUARTER)
        assert v.cprime.passed == (not fails)


def _random_free_group(rng):
    rank = rng.randint(1, 3)
    rels, count = [], rng.randint(1, 3)
    while len(rels) < count:
        word = free_reduce_brute(
            [rng.choice((1, -1)) * rng.randint(1, rank) for _ in range(rng.randint(1, 9))]
        )
        if word and word[0] != -word[-1]:
            rels.append(word)
    return FreeGroupPresentation(tuple("abc"[:rank]), tuple(dict.fromkeys(rels)))


def _random_factor(rng, name):
    kind = rng.choice(("cyclic", "free-abelian", "free"))
    if kind == "cyclic":
        return Factor(name, kind, rng.choice((0, 3, 4, 5)), (name.lower(),))
    rank = rng.randint(1, 2)
    return Factor(name, kind, rank, tuple(f"{name.lower()}{i}" for i in range(rank)))


def _random_element(rng, f):
    while True:
        el = f.letter(rng.choice(f.generators), rng.choice((-2, -1, 1, 2)))
        for _ in range(rng.randint(0, 2)):
            el = f.mul(el, f.letter(rng.choice(f.generators), rng.choice((-2, -1, 1, 2))))
        if not f.is_identity(el):
            return el


def _random_free_product(rng, same_ends):
    """Relators alternate between factors; with ``same_ends`` the first has
    end letters in one factor that do not cancel, otherwise no relator has."""
    factors = tuple(_random_factor(rng, name) for name in "XYZ"[: rng.randint(2, 3)])
    rels, count = [], rng.randint(1, 3)
    while len(rels) < count:
        n = rng.randint(3, 7) if same_ends and not rels else rng.randint(1, 7)
        seq = [rng.randrange(len(factors))]
        while len(seq) < n:
            seq.append(rng.choice([i for i in range(len(factors)) if i != seq[-1]]))
        if same_ends and not rels:
            if seq[-2] == seq[0]:
                continue
            seq[-1] = seq[0]
        elif n > 1 and seq[0] == seq[-1]:
            continue
        word = tuple((fi, _random_element(rng, factors[fi])) for fi in seq)
        f = factors[seq[0]]
        if n > 1 and seq[0] == seq[-1] and f.is_identity(f.mul(word[-1][1], word[0][1])):
            continue
        rels.append(word)
    return FreeProductPresentation(factors, tuple(dict.fromkeys(rels)))


ORACLE_FIXTURES = [
    fixture_g(k, values)
    for k in (2, 3, 4, 5, 6)
    for values in ("1", "1,2", "2,3", "1,2,3")
] + [
    fixture_g(3, "1,2,3,4"),
    fixture_k(5),
    *(
        fixture_h(orders, k, values)
        for orders in [(4, 4, 4, 4), (5, 5, 5, 5), (4, 5, 6, 7), (5, 6, 7, 8),
                       (3, 5, 5, 5), (2, 2, 2, 2)]
        for k in (3, 4, 5)
        for values in ("1", "1,2", "1,2,3")
    ),
    "generators a b\nrelator a b\n",
    "generators a b\nrelator a b a b^-1\nrelator b a^-1 b a\n",
    "factor X cyclic 0 x\nfactor Y cyclic 0 y\nrelator (x y)^5\n",
    "factor X cyclic 0 x\nfactor Y cyclic 0 y\nrelator x y x^2\nrelator x y x^5\n",
    "factor A free-abelian 2 a b\nrelator (a b)^5\n",
    "factor F free 2 a b\nfactor G cyclic 3 c\nrelator a b c a^-1 c b\n",
    TRIANGLE,
    FOUR_CHAIN,
    CANCELLING_CYCLES,
]


class TestSymmetrizeOracle:
    """The cyclic orbits equal the breadth-first closure of the oracle."""

    @pytest.mark.parametrize("text", ORACLE_FIXTURES)
    def test_fixtures_match_closure(self, text):
        p = presentation_from_text(text)
        assert symmetrize(p) == symmetrize_closure_brute(p)

    def test_random_presentations_match_closure(self):
        rng = random.Random(24)
        kinds = {FREE_GROUP: 0, FREE_PRODUCT: 0, "same ends": 0}
        for i in range(2400):
            if i % 2 == 0:
                p = _random_free_group(rng)
            else:
                p = _random_free_product(rng, same_ends=i % 4 == 1)
                r = p.relators[0]
                kinds["same ends"] += len(r) > 1 and r[0][0] == r[-1][0]
            kinds[p.kind] += 1
            assert symmetrize(p) == symmetrize_closure_brute(p), p
        assert kinds == {FREE_GROUP: 1200, FREE_PRODUCT: 1200, "same ends": 600}


@pytest.mark.parametrize(
    "text,uses",
    [("(a b)^3 [a, (b a^n)^2]", True), ("(a b)^3 [a, (b a)^2]", False), ("a^n", True)],
)
def test_parameter_use_is_found_without_cycles(text, uses):
    expr = parse_relator_expression(text, "n")
    assert _uses_param(expr) is uses
    assert cyclic_garbage(lambda: _uses_param(expr)) == 0
