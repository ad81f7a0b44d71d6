import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cbr.alphabet import (
    Alphabet,
    Pmf,
    Symbolic,
    enumerated,
    entropy,
    max_entropy,
    product,
    symbolic,
    uniform,
)
from oracles import entropy_oracle


class TestPmf:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Pmf({"a": 0.5, "b": 0.4})

    def test_renormalizes_within_tolerance(self):
        p = Pmf({"a": 0.5 + 4e-10, "b": 0.5})
        assert math.isclose(sum(p.probs.values()), 1.0, abs_tol=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Pmf({"a": 1.2, "b": -0.2})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_anywhere(self, bad):
        # min/max step over a NaN that is not first; the check must not
        for pos in range(3):
            probs = {"a": 0.5, "b": 0.5, "c": 0.0}
            lid = "abc"[pos]
            probs[lid] = bad
            with pytest.raises(ValueError, match=f"out of \\[0,1\\] for letter '{lid}'"):
                Pmf(probs)

    def test_clamps_within_tolerance(self):
        p = Pmf({"a": 1.0 + 5e-10, "b": -5e-10})
        assert p["b"] == 0.0 and 0.0 <= p["a"] <= 1.0


# letter -> probability, and the float.hex of the pmf's probabilities in
# letter order: validated, clamped and renormalised by the fsum total
RECORDED_PMFS = {
    "plain": ({"b": 0.2, "a": 0.3, "c": 0.5},
              ["0x1.999999999999ap-3", "0x1.3333333333333p-2", "0x1.0000000000000p-1"]),
    "renormalised": ({"a": 0.5 + 4e-10, "b": 0.5}, ["0x1.00000001b7ce0p-1", "0x1.fffffffc90640p-2"]),
    "clamped": ({"a": 1.0 + 5e-10, "b": -5e-10}, ["0x1.0000000000000p+0", "0x0.0p+0"]),
    "ratios": ({f"r{i}": (i + 1) / 153 for i in reversed(range(17))}, [
        "0x1.c71c71c71c71cp-4", "0x1.ac5701ac5701bp-4", "0x1.9191919191919p-4",
        "0x1.76cc2176cc217p-4", "0x1.5c06b15c06b16p-4", "0x1.4141414141414p-4",
        "0x1.267bd1267bd12p-4", "0x1.0bb6610bb6611p-4", "0x1.e1e1e1e1e1e1ep-5",
        "0x1.ac5701ac5701bp-5", "0x1.76cc2176cc217p-5", "0x1.4141414141414p-5",
        "0x1.0bb6610bb6611p-5", "0x1.ac5701ac5701bp-6", "0x1.4141414141414p-6",
        "0x1.ac5701ac5701bp-7", "0x1.ac5701ac5701bp-8"]),
}

# invalid pmfs and the error each raises
INVALID_PMFS = {
    "empty": ({}, "empty pmf"),
    "nan": ({"a": math.nan, "b": 0.5}, "probability out of [0,1] for letter 'a': nan"),
    "inf": ({"a": 0.5, "b": math.inf}, "probability out of [0,1] for letter 'b': inf"),
    "above": ({"a": 1.2, "b": -0.2}, "probability out of [0,1] for letter 'a': 1.2"),
    "below": ({"a": 0.5, "b": -2e-9, "c": 0.5}, "probability out of [0,1] for letter 'b': -2e-09"),
    "sum": ({"a": 0.5, "b": 0.4}, "pmf sums to 0.9, outside tolerance 1e-09"),
    "sum_just_off": ({"a": 0.5, "b": 0.5 + 2e-9},
                     "pmf sums to 1.0000000020000002, outside tolerance 1e-09"),
}


class TestPmfContract:
    @pytest.mark.parametrize("name", RECORDED_PMFS)
    def test_recorded_probabilities(self, name):
        probs, recorded = RECORDED_PMFS[name]
        a = enumerated("a", probs)
        assert a.letter_ids() == tuple(probs)
        assert [v.hex() for v in a.prob_vector().tolist()] == recorded
        assert [a.model.pmf[i].hex() for i in probs] == recorded

    @pytest.mark.parametrize("name", INVALID_PMFS)
    def test_recorded_errors(self, name):
        probs, message = INVALID_PMFS[name]
        with pytest.raises(ValueError) as exc:
            Pmf(probs)
        assert str(exc.value) == message

    @pytest.mark.parametrize("name", RECORDED_PMFS)
    def test_vector_route_equals_dict_route(self, name):
        probs, recorded = RECORDED_PMFS[name]
        a = Pmf(probs)
        b = Pmf.from_vector(tuple(probs), np.array(list(probs.values())))
        assert a.ids == b.ids == tuple(probs)
        assert [v.hex() for v in a.vector.tolist()] == [v.hex() for v in b.vector.tolist()] == recorded
        assert a == b
        assert not a.vector.flags.writeable and not b.vector.flags.writeable

    @pytest.mark.parametrize("name", INVALID_PMFS)
    def test_vector_route_errors(self, name):
        probs, message = INVALID_PMFS[name]
        with pytest.raises(ValueError) as exc:
            Pmf.from_vector(tuple(probs), np.array(list(probs.values()), dtype=np.float64))
        assert str(exc.value) == message

    def test_vector_route_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="^duplicate letter ids$"):
            Pmf.from_vector(("y", "y"), np.array([0.5, 0.5]))

    def test_aligned(self):
        p = Pmf({"b": 0.25, "a": 0.75})
        assert p.aligned(p.ids) is p.vector
        assert p.aligned(("a", "z", "b")).tolist() == [0.75, 0.0, 0.25]

    def test_integer_too_large_for_a_float(self):
        with pytest.raises(ValueError, match=f"for letter 'a': {10 ** 400}$"):
            Pmf({"a": 10 ** 400, "b": 0.0})

    def test_equality_ignores_letter_order(self):
        probs = RECORDED_PMFS["ratios"][0]
        assert Pmf(probs) == Pmf(dict(reversed(probs.items())))
        assert Pmf(probs) != Pmf({**probs, "r0": 0.0, "r1": probs["r0"] + probs["r1"]})
        assert Pmf({"a": 1.0}) != Pmf({"a": 1.0, "b": 0.0})
        assert repr(Pmf({"b": 0.25, "a": 0.75})) == "Pmf({'b': 0.25, 'a': 0.75})"


class TestEntropy:
    def test_uniform_eight_letters(self):
        assert entropy(uniform("u8", [str(i) for i in range(8)])) == pytest.approx(3.0)

    def test_half_quarter_quarter(self):
        a = enumerated("a", {"x": 0.5, "y": 0.25, "z": 0.25})
        assert entropy(a) == pytest.approx(1.5, abs=1e-12)
        assert entropy(a) == pytest.approx(entropy_oracle([0.5, 0.25, 0.25]), abs=1e-12)

    def test_fig_scale_product(self):
        point = symbolic("point32", 32.0)
        assert entropy(product(point, 720)) == pytest.approx(23040.0)

    def test_single_letter_max_entropy(self):
        assert max_entropy(enumerated("one", {"only": 1.0})) == 0.0

    def test_five_letter_max_entropy(self):
        assert max_entropy(uniform("c5", "abcde")) == pytest.approx(math.log2(5))

    def test_symbolic_max(self):
        assert max_entropy(symbolic("obs", 30.0, 30.0)) == 30.0

    def test_entropy_never_exceeds_max(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 40))
            w = rng.random(n)
            a = enumerated("r", {f"x{i}": float(v / w.sum()) for i, v in enumerate(w)})
            assert 0.0 <= entropy(a) <= max_entropy(a) + 1e-9

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=32))
    def test_permutation_invariant(self, weights):
        total = sum(weights)
        probs = {f"x{i}": w / total for i, w in enumerate(weights)}
        a = enumerated("a", probs)
        shuffled = dict(reversed(list(probs.items())))
        b = enumerated("b", shuffled)
        assert entropy(a) == pytest.approx(entropy(b), abs=1e-9)

    def test_matches_oracle_large(self, rng):
        n = 2**16
        w = rng.random(n)
        w /= w.sum()
        a = enumerated("big", {f"x{i}": float(p) for i, p in enumerate(w)})
        expect = entropy_oracle(w)
        assert entropy(a) == pytest.approx(expect, rel=1e-9)


class TestProduct:
    def test_product_identity(self):
        a = enumerated("a", {"x": 0.7, "y": 0.3})
        assert entropy(product(a, 1)) == pytest.approx(entropy(a))

    def test_fair_coin_ten(self):
        coin = uniform("coin", ["h", "t"])
        assert entropy(product(coin, 10)) == pytest.approx(10.0)

    def test_scales_exactly(self):
        a = enumerated("a", {"x": 0.6, "y": 0.4})
        assert entropy(product(a, 7)) == 7 * entropy(a)

    def test_fig_aggregated_series(self):
        point = symbolic("point32", 32.0)
        series60 = product(point, 60)
        assert max_entropy(product(series60, 3)) == pytest.approx(5760.0)

    def test_zero_count_rejected(self):
        a = uniform("a", "xy")
        with pytest.raises(ValueError, match="empty product"):
            product(a, 0)


class TestSymbolic:
    def test_entropy_cannot_exceed_max(self):
        with pytest.raises(ValueError):
            Symbolic(5.0, 3.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Symbolic(-1.0, 3.0)


class TestProbVector:
    def test_aligned_with_ids(self):
        a = enumerated("a", {"z": 0.5, "x": 0.125, "y": 0.375})
        assert a.prob_vector().tolist() == [a.model.pmf[i] for i in a.letter_ids()]

    def test_built_once_and_read_only(self):
        a = enumerated("a", {"x": 0.5, "y": 0.5})
        v = a.prob_vector()
        assert v is a.prob_vector()
        with pytest.raises(ValueError):
            v[0] = 1.0

    def test_not_compared_or_printed(self):
        a = enumerated("a", {"x": 0.25, "y": 0.75})
        assert a == enumerated("a", {"x": 0.25, "y": 0.75})
        assert "vector" not in repr(a)

    def test_symbolic_has_none(self):
        with pytest.raises(ValueError, match="mode mismatch"):
            symbolic("s", 3.0).prob_vector()
