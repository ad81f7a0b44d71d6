import math

import pytest
from hypothesis import given, settings, strategies as st

from cbr.alphabet import Pmf, entropy, enumerated, symbolic, uniform
from cbr.metrics import (
    alphabet_compression_ratio,
    benefit,
    effectual_compression_ratio,
    grouping_check,
    incremental_cbr,
    machine_cbr,
    potential_distortion_ratio,
    StepMetrics,
    step_metrics,
)
from cbr.reconstruction import (
    ExactConditional,
    Reconstruction,
    UniformPreimage,
    distortion_bits,
)
from cbr.transform import (
    Channel,
    CostRecord,
    DeclaredHuman,
    Transform,
    mutual_information,
    pushforward,
)
from conftest import make_grouping, random_grouping, random_pmf
from oracles import grouping_rhs_oracle

COST = CostRecord("time", 1.0, "s")

U8 = uniform("u8", [str(i) for i in range(8)])
GROUP_422 = make_grouping(
    {"0": "a", "1": "a", "2": "a", "3": "a", "4": "b", "5": "b", "6": "c", "7": "c"}
)


class TestRatios:
    def test_acr_basic(self):
        assert alphabet_compression_ratio(3.0, 1.5) == pytest.approx(0.5)

    def test_acr_unclamped_above_one(self):
        assert alphabet_compression_ratio(2.0, 5.0) == pytest.approx(2.5)

    def test_acr_zero_input_rejected(self):
        with pytest.raises(ValueError, match="transformation unnecessary"):
            alphabet_compression_ratio(0.0, 1.0)

    def test_pdr_basic(self):
        assert potential_distortion_ratio(0.75, 3.0) == pytest.approx(0.25)

    def test_pdr_negative_distortion_rejected(self):
        with pytest.raises(ValueError):
            potential_distortion_ratio(-0.1, 3.0)

    def test_ecr_is_sum(self):
        assert effectual_compression_ratio(3.0, 1.5, 0.75) == pytest.approx(0.75)

    def test_benefit_sign(self):
        assert benefit(3.0, 1.5, 0.5) == pytest.approx(1.0)
        assert benefit(3.0, 2.0, 2.0) == pytest.approx(-1.0)

    def test_incremental_cbr(self):
        assert incremental_cbr(2.0, CostRecord("time", 4.0, "s")) == pytest.approx(0.5)

    def test_machine_cbr_deterministic_map_is_zero(self):
        # I = H(out) for a deterministic transform: nothing beyond the output
        # survives, so the perfect-inverse benefit is zero.
        i = mutual_information(GROUP_422, U8)
        h_out = entropy(pushforward(GROUP_422, U8))
        assert machine_cbr(i, h_out, COST) == pytest.approx(0.0, abs=1e-9)


class TestStepMetrics:
    def test_lossless_grouping_step(self):
        g = Reconstruction("uni", UniformPreimage())
        m = step_metrics(GROUP_422, g, U8, pushforward(GROUP_422, U8))
        assert m.acr == pytest.approx(0.5)
        assert m.pdr == pytest.approx(0.0, abs=1e-12)
        assert m.ecr == pytest.approx(0.5)
        assert m.benefit_bits == pytest.approx(1.5)
        assert m.incremental_cbr == pytest.approx(1.5)

    def test_maximal_mode_uses_capacity(self):
        out = pushforward(GROUP_422, U8)
        g = Reconstruction("exact", ExactConditional())
        m = step_metrics(GROUP_422, g, U8, out, entropy_mode="maximal")
        assert m.acr == pytest.approx(math.log2(3) / 3.0)

    def test_unknown_mode_rejected(self):
        g = Reconstruction("exact", ExactConditional())
        with pytest.raises(ValueError, match="entropy mode"):
            step_metrics(GROUP_422, g, U8, pushforward(GROUP_422, U8), entropy_mode="typical")

    def test_ratios_derived_when_read(self):
        m = StepMetrics(h_in=8.0, h_out=2.0, d_kl=1.0, cost=CostRecord("time", 5.0, "s"),
                        entropy_mode="actual")
        assert (m.acr, m.pdr, m.ecr) == (0.25, 0.125, 0.375)
        assert (m.benefit_bits, m.incremental_cbr) == (5.0, 1.0)

    def test_undefined_ratio_raises_when_read(self):
        m = StepMetrics(0.0, 1.0, 0.0, COST, "maximal")
        assert (m.benefit_bits, m.incremental_cbr) == (-1.0, -1.0)
        for ratio in ("acr", "pdr", "ecr"):
            with pytest.raises(ValueError, match="^transformation unnecessary"):
                getattr(m, ratio)

    def test_record_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="^unknown entropy mode 'typical'$"):
            StepMetrics(1.0, 1.0, 0.0, COST, "typical")

    def test_declared_human_step(self):
        out = symbolic("view", 4.0)
        t = Transform("read", DeclaredHuman(out, 1.0), CostRecord("time", 2.0, "s"), "H")
        m = step_metrics(t, None, symbolic("doc", 9.0), out)
        assert m.benefit_bits == pytest.approx(9.0 - 4.0 - 1.0)
        assert m.incremental_cbr == pytest.approx(2.0)

    def test_benefit_matches_machine_centric_identity(self, rng):
        # With d = H(in) - I, benefit reduces to I - H(out); the dedicated
        # machine-centric ratio must agree with the general assembly.
        for _ in range(500):
            n = int(rng.integers(3, 24))
            pmf = random_pmf(rng, n)
            a = enumerated("a", pmf)
            t = make_grouping(random_grouping(rng, pmf, max(1, n // 2)))
            out = pushforward(t, a)
            m = step_metrics(t, None, a, out, machine_centric=True)
            i = mutual_information(t, a)
            assert m.benefit_bits == pytest.approx(i - entropy(out), abs=1e-9)
            assert m.incremental_cbr == pytest.approx(
                machine_cbr(i, entropy(out), t.cost), abs=1e-9
            )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=12))
def test_machine_centric_distortion_non_negative_on_a_noiseless_channel(weights):
    """H(in) - I(in; out) >= 0, with equality on an identity channel, where
    the two are computed apart and their difference rounds either way."""
    ids = tuple(f"x{i}" for i in range(len(weights)))
    a = enumerated("a", {x: w / math.fsum(weights) for x, w in zip(ids, weights)})
    rows = tuple(tuple(float(i == j) for j in range(len(ids))) for i in range(len(ids)))
    t = Transform("copy", Channel(ids, ids, rows), COST)
    m = step_metrics(t, None, a, pushforward(t, a), machine_centric=True)
    assert 0.0 <= m.d_kl < 1e-12
    assert m.benefit_bits == pytest.approx(0.0, abs=1e-12)
    assert m.pdr >= 0.0 and m.ecr == pytest.approx(1.0)


class TestGroupingIdentity:
    def test_residual_is_small(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 64))
            pmf = random_pmf(rng, n)
            a = enumerated("a", pmf)
            t = make_grouping(random_grouping(rng, pmf, max(1, n // 3)))
            assert grouping_check(a, t) <= 1e-9

    def test_rhs_matches_oracle(self, rng):
        for _ in range(30):
            pmf = random_pmf(rng, 20)
            a = enumerated("a", pmf)
            mapping = random_grouping(rng, pmf, 6)
            t = make_grouping(mapping)
            rhs = grouping_rhs_oracle(mapping, pmf)
            assert rhs == pytest.approx(entropy(a), abs=1e-9)
            assert grouping_check(a, t) <= 1e-9

    def test_requires_grouping(self):
        t = Transform("h", DeclaredHuman(uniform("u2", "ab"), 0.0), COST, "H")
        with pytest.raises(ValueError, match="mode mismatch"):
            grouping_check(U8, t)
