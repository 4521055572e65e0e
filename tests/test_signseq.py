from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from lemmas import sseq_of_samples, tail_subsequence
from termshapes import signseq as ss
from termshapes.signseq import EMPTY_PURE, Sign, SignSeq

S = SignSeq.parse

signs = st.sampled_from([Sign.PLUS, Sign.MINUS, Sign.ZERO])
seqs = st.lists(signs, min_size=1, max_size=12).map(lambda s: SignSeq(tuple(s)))


def brute_subsequence(a: tuple, b: tuple) -> bool:
    """Oracle: enumerate index subsets of b and compare."""
    return any(
        tuple(b[i] for i in idx) == a
        for idx in itertools.combinations(range(len(b)), len(a))
    )


class TestReduce:
    def test_collapses_runs(self):
        assert ss.reduce(S("++--+")) == S("+-+")

    def test_drops_zeros(self):
        assert ss.reduce(S("0-00-")) == S("-")

    def test_pure_fixed_point(self):
        assert ss.reduce(S("+")) == S("+")

    def test_all_zero_gives_empty_marker(self):
        assert ss.reduce(S("000")) is not None
        assert ss.reduce(S("000")).is_empty
        assert ss.reduce(S("000")) == EMPTY_PURE

    @given(seqs)
    def test_idempotent(self, s):
        assert ss.reduce(ss.reduce(s)) == ss.reduce(s)

    @given(seqs)
    def test_preserves_strong_changes(self, s):
        def transitions(seq):
            nz = [x for x in seq.signs if x is not Sign.ZERO]
            ups = sum(1 for a, b in zip(nz, nz[1:]) if (a, b) == (Sign.MINUS, Sign.PLUS))
            downs = sum(1 for a, b in zip(nz, nz[1:]) if (a, b) == (Sign.PLUS, Sign.MINUS))
            return ups, downs

        assert transitions(s) == transitions(ss.reduce(s))

    @given(seqs)
    def test_reduction_is_pure(self, s):
        r = ss.reduce(s)
        assert all(x is not Sign.ZERO for x in r.signs)
        assert all(a is not b for a, b in zip(r.signs, r.signs[1:]))


class TestEquivalent:
    def test_block_example(self):
        assert ss.equivalent(S("++--+"), S("+-+++"))

    def test_distinct_singletons(self):
        assert not ss.equivalent(S("+"), S("-"))

    def test_zero_padding(self):
        assert ss.equivalent(S("0+"), S("+0"))

    @given(seqs)
    def test_reflexive(self, a):
        assert ss.equivalent(a, a)

    @given(seqs, seqs)
    def test_symmetric(self, a, b):
        assert ss.equivalent(a, b) == ss.equivalent(b, a)

    @given(seqs, seqs, seqs)
    def test_transitive(self, a, b, c):
        if ss.equivalent(a, b) and ss.equivalent(b, c):
            assert ss.equivalent(a, c)


class TestSubsequence:
    def test_block_example(self):
        assert ss.subsequence(S("--+++"), S("-+--"))

    def test_singleton(self):
        assert ss.subsequence(S("-"), S("++-+"))

    def test_order_matters(self):
        # oracle: no index subset of (-,+) equals (+,-)
        assert not brute_subsequence(
            ss.reduce(S("+-")).signs, ss.reduce(S("-+")).signs
        )
        assert not ss.subsequence(S("+-"), S("-+"))

    @given(seqs)
    def test_reflexive(self, a):
        assert ss.subsequence(a, a)

    @given(seqs, seqs, seqs)
    def test_transitive(self, a, b, c):
        if ss.subsequence(a, b) and ss.subsequence(b, c):
            assert ss.subsequence(a, c)

    @given(seqs, seqs)
    def test_agrees_with_bruteforce(self, a, b):
        expected = brute_subsequence(ss.reduce(a).signs, ss.reduce(b).signs)
        assert ss.subsequence(a, b) == expected

    def test_exhaustive_short_sequences(self):
        alphabet = (Sign.PLUS, Sign.MINUS, Sign.ZERO)
        pool = [
            SignSeq(t)
            for n in range(1, 4)
            for t in itertools.product(alphabet, repeat=n)
        ]
        for a in pool:
            for b in pool:
                expected = brute_subsequence(ss.reduce(a).signs, ss.reduce(b).signs)
                assert ss.subsequence(a, b) == expected


class TestHeadTail:
    def test_head_example(self):
        assert ss.head_subsequence(S("--+++"), S("-+--"))

    def test_tail_example(self):
        assert tail_subsequence(S("+"), S("--+"))

    def test_tail_terminal_mismatch(self):
        assert not tail_subsequence(S("+"), S("+-"))

    @given(seqs, seqs)
    def test_head_implies_subsequence(self, a, b):
        if ss.head_subsequence(a, b):
            assert ss.subsequence(a, b)

    @given(seqs, seqs)
    def test_tail_implies_subsequence(self, a, b):
        if tail_subsequence(a, b):
            assert ss.subsequence(a, b)


class TestSseqOfSamples:
    def test_plain_values(self):
        assert sseq_of_samples([1.0, -0.5, 2.0], 1e-9) == S("+-+")

    def test_threshold(self):
        assert sseq_of_samples([1e-12, -1.0], 1e-9) == S("-")

    def test_parabola_samples(self):
        xs = [0.01 * k for k in range(201)]  # [0, 2]
        values = [x * x - 1.0 for x in xs]
        assert sseq_of_samples(values, 1e-9) == S("-+")

    def test_all_zero(self):
        assert sseq_of_samples([0.0, 0.0], 1e-9).is_empty

    def test_requires_positive_eps(self):
        with pytest.raises(ValueError):
            sseq_of_samples([1.0], 0.0)


class TestShapeOf:
    @pytest.mark.parametrize(
        "pattern,label",
        [
            ("+", "normal"),
            ("-", "inverse"),
            ("+-", "humped"),
            ("-+", "dipped"),
            ("+-+", "HD"),
            ("-+-", "DH"),
            ("+-+-", "HDH"),
            ("-+-+", "DHD"),
            ("+-+-+", "HDHD"),
        ],
    )
    def test_named(self, pattern, label):
        assert str(ss.shape_of(S(pattern))) == label

    def test_flat(self):
        assert ss.shape_of(S("000")) == ss.FLAT

    def test_unreduced_input(self):
        assert ss.shape_of(S("++0--")) == ss.HUMPED

    def test_other_shapes(self):
        four_first_minus = ss.shape_of(S("-+-+-"))
        assert four_first_minus.label == "other"
        assert four_first_minus.changes == 4
        assert four_first_minus.first is Sign.MINUS
        long = ss.shape_of(S("+-+-+-"))
        assert long.label == "other"
        assert long.changes == 5

    def test_extrema_count_matches_changes(self):
        assert ss.HDHD.changes == 4
        assert ss.HD.changes == 2


class TestSerialization:
    @given(seqs)
    def test_parse_str_roundtrip(self, s):
        assert SignSeq.parse(str(s)) == s

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            SignSeq.parse("+x-")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SignSeq.parse("")

    def test_pure_constructor(self):
        assert SignSeq.pure(Sign.PLUS, 3) == S("+-+-")
        assert SignSeq.pure(Sign.MINUS, 0) == S("-")
