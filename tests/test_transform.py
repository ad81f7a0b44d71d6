import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cbr.alphabet import Alphabet, entropy, enumerated, product, symbolic, uniform
from cbr.transform import (
    Aggregator,
    Channel,
    CostRecord,
    DeclaredHuman,
    Grouping,
    Quantizer,
    Transform,
    _compiled,
    compiled,
    compose,
    deterministic_codes,
    mutual_information,
    pushforward,
)
from conftest import make_grouping, random_grouping, random_pmf
from oracles import entropy_oracle, mi_oracle, pushforward_oracle

COST = CostRecord("time", 1.0, "s")

U8 = uniform("u8", [str(i) for i in range(8)])
GROUP_422 = make_grouping(
    {"0": "a", "1": "a", "2": "a", "3": "a", "4": "b", "5": "b", "6": "c", "7": "c"}
)


class TestCostRecord:
    def test_zero_cost_rejected(self):
        with pytest.raises(ValueError):
            CostRecord("time", 0.0, "s")

    def test_mixed_units_do_not_add(self):
        with pytest.raises(ValueError, match="incommensurable costs"):
            CostRecord("time", 1.0, "s") + CostRecord("time", 1.0, "min")


class TestPushforward:
    def test_grouping_sizes_422(self):
        out = pushforward(GROUP_422, U8)
        assert out.model.pmf.probs == pytest.approx({"a": 0.5, "b": 0.25, "c": 0.25})
        expect = pushforward_oracle(GROUP_422.kind.mapping, U8.model.pmf.probs)
        assert out.model.pmf.probs == pytest.approx(expect)

    def test_identity_grouping(self):
        t = Transform("id", Grouping({i: i for i in U8.letter_ids()}), COST)
        out = pushforward(t, U8)
        assert out.model.pmf.probs == pytest.approx(U8.model.pmf.probs)

    def test_aggregator_symbolic_bookkeeping(self):
        point = symbolic("point32", 32.0)
        series = product(point, 720)
        t = Transform("agg", Aggregator(12), COST, "M")
        out = pushforward(t, series)
        assert out.model.count == 60
        assert entropy(out) == pytest.approx(1920.0)

    def test_aggregator_window_must_divide(self):
        series = product(symbolic("p", 32.0), 720)
        t = Transform("agg", Aggregator(7), COST, "M")
        with pytest.raises(ValueError, match="window"):
            pushforward(t, series)

    def test_aggregator_rejects_enumerated(self):
        t = Transform("agg", Aggregator(2), COST, "M")
        with pytest.raises(ValueError, match="mode mismatch"):
            pushforward(t, U8)

    def test_unmapped_letter_rejected(self):
        t = make_grouping({"0": "a"})
        with pytest.raises(ValueError, match="partial mapping"):
            pushforward(t, U8)

    def test_channel_marginal(self):
        bsc = Transform(
            "bsc",
            Channel(("0", "1"), ("0", "1"), ((0.75, 0.25), (0.25, 0.75))),
            COST,
            "M",
        )
        out = pushforward(bsc, enumerated("in", {"0": 0.9, "1": 0.1}))
        assert out.model.pmf["0"] == pytest.approx(0.9 * 0.75 + 0.1 * 0.25)

    def test_channel_inputs_in_another_order(self):
        rows = ((0.75, 0.25), (0.5, 0.5), (0.125, 0.875))
        a = enumerated("in", {"x": 0.5, "y": 0.3, "z": 0.2})
        ordered = Transform("c", Channel(("x", "y", "z"), ("0", "1"), rows), COST)
        reversed_ = Transform("c", Channel(("z", "y", "x"), ("0", "1"), rows[::-1]), COST)
        assert pushforward(reversed_, a) == pushforward(ordered, a)
        assert mutual_information(reversed_, a) == pytest.approx(mutual_information(ordered, a))

    def test_channel_repeated_output_letter(self):
        t = Transform("c", Channel(("a", "b"), ("y", "y"), ((0.5, 0.5), (0.5, 0.5))), COST)
        with pytest.raises(ValueError, match="^duplicate letter ids$"):
            pushforward(t, enumerated("in", {"a": 0.5, "b": 0.5}))

    def test_quantizer_enumerated_bins(self):
        a = enumerated("vals", {"0.5": 0.25, "1.5": 0.25, "2.5": 0.25, "4.0": 0.25})
        t = Transform("q", Quantizer(2, (0.0, 2.0, 4.0)), COST, "M")
        out = pushforward(t, a)
        assert out.model.pmf.probs == pytest.approx({"bin0": 0.5, "bin1": 0.5})

    def test_quantizer_last_bin_closed(self):
        a = enumerated("vals", {"4.0": 1.0})
        t = Transform("q", Quantizer(2, (0.0, 2.0, 4.0)), COST, "M")
        assert pushforward(t, a).model.pmf["bin1"] == pytest.approx(1.0)

    def test_quantizer_rejects_nan_letter(self):
        a = enumerated("vals", {"0.5": 0.25, "1.5": 0.25, "nan": 0.5})
        t = Transform("q", Quantizer(2, (0.0, 1.0, 2.0)), COST, "M")
        with pytest.raises(ValueError, match="partial mapping: letter 'nan' outside bin range"):
            pushforward(t, a)

    def test_quantizer_symbolic_clamps_bits(self):
        series = product(symbolic("point32", 32.0), 60)
        t = Transform("plot", Quantizer(128), COST, "V")
        out = pushforward(t, series)
        assert entropy(out) == pytest.approx(60 * 7.0)

    def test_conserves_probability(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 64))
            pmf = random_pmf(rng, n)
            a = enumerated("a", pmf)
            t = make_grouping(random_grouping(rng, pmf, int(rng.integers(1, n + 1))))
            out = pushforward(t, a)
            assert sum(out.model.pmf.probs.values()) == pytest.approx(1.0, abs=1e-9)


class TestCompileMessages:
    """Wording and precedence of the errors of compiling a step to codes."""

    QUANT = Transform("q", Quantizer(2, (0.0, 5.0, 10.0)), COST, "M")

    def test_unmapped_letters_first_three_in_input_order(self):
        t = make_grouping({"f": "y", "a2": "z"})
        a = uniform("x", ["e", "d", "c", "f", "b", "a", "a2"])
        for compile_ in (deterministic_codes, pushforward):
            with pytest.raises(ValueError) as exc:
                compile_(t, a)
            assert str(exc.value) == "partial mapping: unmapped letters ['e', 'd', 'c']"

    @pytest.mark.parametrize(
        "ids, message",
        [
            (["1", "99", "x", "2"], "partial mapping: letter '99' outside bin range"),
            (["1", "x", "99", "2"], "partial mapping: letter 'x' is not numeric"),
            (["1", "nan", "2"], "partial mapping: letter 'nan' outside bin range"),
            (["2", "x", "nan"], "partial mapping: letter 'x' is not numeric"),
        ],
    )
    def test_quantizer_letters(self, ids, message):
        a = uniform("x", ids)
        for compile_ in (deterministic_codes, pushforward):
            with pytest.raises(ValueError) as exc:
                compile_(self.QUANT, a)
            assert str(exc.value) == message


class TestCompiled:
    """``compiled`` shares a live code-bearing step per (transform, input)."""

    T = make_grouping({"a": "y", "b": "z", "c": "y"})

    def test_live_step_is_shared(self):
        a = uniform("x", ["a", "b", "c"])
        step = compiled(self.T, a)
        assert compiled(self.T, a) is step
        assert _compiled[(id(self.T), id(a))] is step
        assert compiled(self.T, uniform("x", ["a", "b", "c"])) is not step

    def test_entry_goes_with_the_step(self):
        a = uniform("x", ["a", "b", "c"])
        key = (id(self.T), id(a))
        step = compiled(self.T, a)
        assert key in _compiled
        del a, step
        assert key not in _compiled

    def test_new_alphabet_gets_a_fresh_step(self):
        # the new alphabet's model is made first, so that CPython usually
        # gives the alphabet itself the id of the collected one
        for _ in range(5):
            model = uniform("x", ["b", "a", "c"]).model
            first = compiled(self.T, uniform("x", ["a", "b", "c"]))
            assert (first.codes.tolist(), first.out_ids) == ([0, 1, 0], ("y", "z"))
            del first
            a = Alphabet("x", model)
            step = compiled(self.T, a)
            assert step.input is a
            assert (step.codes.tolist(), step.out_ids) == ([0, 1, 1], ("z", "y"))
            del a, step

    def test_failed_compilation_is_not_kept(self):
        t = make_grouping({"a": "y"})
        a = uniform("x", ["a", "b"])
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^partial mapping: unmapped letters \['b'\]$"):
                compiled(t, a)
            assert (id(t), id(a)) not in _compiled

    def test_symbolic_step_is_built_each_call(self):
        series = product(symbolic("point32", 32.0), 720)
        t = Transform("agg", Aggregator(12), COST, "M")
        assert compiled(t, series) is not compiled(t, series)
        assert (id(t), id(series)) not in _compiled


class TestOutputOrder:
    """Output letters are listed in order of first appearance along the input."""

    QUANTIZER = Transform("q", Quantizer(4, (0.0, 1.0, 2.0, 3.0, 4.0)), COST, "M")
    VALUES = enumerated("vals", {"3.5": 0.1, "0.5": 0.2, "3.9": 0.1, "2.5": 0.3, "1.5": 0.3})

    def test_grouping(self):
        a = uniform("a", ["0", "1", "2", "3", "4"])
        t = make_grouping({"0": "z", "1": "a", "2": "z", "3": "m", "4": "a"})
        assert pushforward(t, a).letter_ids() == ("z", "a", "m")

    def test_quantizer(self):
        expect = ("bin3", "bin0", "bin2", "bin1")
        assert pushforward(self.QUANTIZER, self.VALUES).letter_ids() == expect

    def test_random_groupings(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 64))
            pmf = random_pmf(rng, n)
            a = enumerated("a", pmf)
            mapping = random_grouping(rng, pmf, int(rng.integers(1, n + 1)))
            t = make_grouping(mapping)
            expect = tuple(dict.fromkeys(mapping[x] for x in pmf))
            assert pushforward(t, a).letter_ids() == expect


class TestMutualInformation:
    def test_deterministic_equals_output_entropy(self):
        out = pushforward(GROUP_422, U8)
        assert mutual_information(GROUP_422, U8) == pytest.approx(entropy(out), abs=1e-9)

    def test_bsc_quarter(self):
        bsc = Transform(
            "bsc",
            Channel(("0", "1"), ("0", "1"), ((0.75, 0.25), (0.25, 0.75))),
            COST,
            "M",
        )
        u2 = uniform("u2", ["0", "1"])
        expect = 1.0 - entropy_oracle([0.25, 0.75])
        assert mutual_information(bsc, u2) == pytest.approx(expect, abs=1e-9)
        joint = [[0.5 * 0.75, 0.5 * 0.25], [0.5 * 0.25, 0.5 * 0.75]]
        assert mutual_information(bsc, u2) == pytest.approx(mi_oracle(joint), abs=1e-12)

    def test_identical_rows_zero(self):
        c = Transform(
            "noise", Channel(("0", "1"), ("a", "b"), ((0.3, 0.7), (0.3, 0.7))), COST, "M"
        )
        assert mutual_information(c, uniform("u2", ["0", "1"])) == pytest.approx(0.0, abs=1e-12)

    def test_symbolic_input_rejected(self):
        t = make_grouping({"x": "y"})
        with pytest.raises(ValueError, match="requires enumerated model"):
            mutual_information(t, symbolic("s", 3.0))

    def test_bounds_and_symmetry(self, rng):
        from cbr import _kernels

        for _ in range(20):
            n, m = int(rng.integers(2, 10)), int(rng.integers(2, 10))
            mat = rng.random((n, m))
            mat /= mat.sum(axis=1, keepdims=True)
            c = Transform(
                "c",
                Channel(
                    tuple(f"x{i}" for i in range(n)),
                    tuple(f"y{j}" for j in range(m)),
                    tuple(tuple(row) for row in mat),
                ),
                COST,
                "M",
            )
            pmf = random_pmf(rng, n)
            a = enumerated("a", pmf)
            mi = mutual_information(c, a)
            out = pushforward(c, a)
            assert -1e-9 <= mi <= min(entropy(a), entropy(out)) + 1e-9
            joint = np.array([pmf[f"x{i}"] for i in range(n)])[:, None] * mat
            assert mi == pytest.approx(_kernels.mi_bits(joint.T), abs=1e-9)


class TestCompose:
    def test_identity_law(self):
        t = GROUP_422
        ident = Transform("id", Grouping({i: i for i in U8.letter_ids()}), COST)
        composed = compose(ident, t)
        assert pushforward(composed, U8).model.pmf.probs == pytest.approx(
            pushforward(t, U8).model.pmf.probs
        )

    def test_two_step_grouping(self):
        g1 = make_grouping({str(i): f"m{i // 2}" for i in range(8)}, name="g1")
        g2 = make_grouping({f"m{i}": f"f{i // 2}" for i in range(4)}, name="g2")
        out = pushforward(compose(g1, g2), U8)
        assert out.model.pmf.probs == pytest.approx({"f0": 0.5, "f1": 0.5})

    def test_cost_additivity(self):
        c = compose(GROUP_422, make_grouping({"a": "z", "b": "z", "c": "z"}, cost=2.5))
        assert c.cost.amount == pytest.approx(3.5)

    def test_unit_mismatch_rejected(self):
        t2 = Transform(
            "t2", Grouping({"a": "z", "b": "z", "c": "z"}), CostRecord("energy", 1.0, "J"), "M"
        )
        with pytest.raises(ValueError, match="incommensurable costs"):
            compose(GROUP_422, t2)

    def test_associativity_on_pushforward(self, rng):
        for _ in range(10):
            pmf = random_pmf(rng, 12)
            a = enumerated("a", pmf)
            m1 = random_grouping(rng, pmf, 6)
            m2 = {f"g{i}": f"h{i // 2}" for i in range(6)}
            m3 = {f"h{i}": f"k{i // 2}" for i in range(3)}
            t1, t2, t3 = make_grouping(m1, "t1"), make_grouping(m2, "t2"), make_grouping(m3, "t3")
            left = pushforward(compose(compose(t1, t2), t3), a)
            right = pushforward(compose(t1, compose(t2, t3)), a)
            for k in left.model.pmf:
                assert left.model.pmf[k] == pytest.approx(right.model.pmf[k], abs=1e-9)


class TestDataProcessingInequality:
    def test_deterministic_chains_never_gain_entropy(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 64))
            a = enumerated("a", random_pmf(rng, n))
            h_prev = entropy(a)
            for step in range(3):
                ids = a.letter_ids()
                t = make_grouping(random_grouping(rng, ids, max(1, len(ids) // 2)))
                a = pushforward(t, a)
                h = entropy(a)
                assert h <= h_prev + 1e-9
                h_prev = h

    def test_declared_human_step_may_gain_entropy(self):
        richer = uniform("richer", [str(i) for i in range(32)])
        t = Transform("human", DeclaredHuman(richer, 0.0), COST, "H")
        out = pushforward(t, uniform("u4", "abcd"))
        assert entropy(out) > entropy(uniform("u4", "abcd"))
