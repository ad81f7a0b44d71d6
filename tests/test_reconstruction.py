import math

import numpy as np
import pytest

from cbr.alphabet import Pmf, entropy, enumerated, symbolic, uniform
from cbr.reconstruction import (
    DeclaredDivergence,
    ExactConditional,
    PriorWeighted,
    Reconstruction,
    UniformPreimage,
    distortion_bits,
    impression,
    kl_divergence,
)
from cbr.metrics import step_metrics
from cbr.transform import CostRecord, DeclaredHuman, Transform, pushforward
from conftest import make_grouping, random_grouping, random_pmf
from oracles import (
    kl_oracle,
    prior_weighted_impression_oracle,
    uniform_preimage_impression_oracle,
)

COST = CostRecord("time", 1.0, "s")

U8 = uniform("u8", [str(i) for i in range(8)])
GROUP_422 = make_grouping(
    {"0": "a", "1": "a", "2": "a", "3": "a", "4": "b", "5": "b", "6": "c", "7": "c"}
)


class TestKlDivergence:
    def test_known_pair(self):
        p = Pmf({"a": 0.5, "b": 0.5})
        q = Pmf({"a": 0.25, "b": 0.75})
        expect = 0.5 * math.log2(0.5 / 0.25) + 0.5 * math.log2(0.5 / 0.75)
        assert kl_divergence(p, q) == pytest.approx(expect, abs=1e-12)

    def test_asymmetric(self):
        p = Pmf({"a": 0.5, "b": 0.5})
        q = Pmf({"a": 0.25, "b": 0.75})
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p), abs=1e-6)

    def test_identical_is_zero(self, rng):
        p = Pmf(random_pmf(rng, 17))
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_undefined_without_smoothing(self):
        p = Pmf({"a": 0.5, "b": 0.5})
        q = Pmf({"a": 1.0, "b": 0.0})
        with pytest.raises(ValueError, match="divergence undefined"):
            kl_divergence(p, q)

    @pytest.mark.parametrize(
        "p, q, plain",
        [
            # p has a zero letter q lacks; q lists the letters in another order
            ({"a": 0.5, "b": 0.3, "c": 0.2, "z": 0.0}, {"c": 0.1, "b": 0.6, "a": 0.3},
             "0x1.12ed27840ac90p-2"),
            # p has mass on a letter q lacks
            ({"a": 0.4, "b": 0.3, "z": 0.3}, {"b": 0.5, "a": 0.5}, None),
            ({"a": 1.0}, {"a": 0.5, "b": 0.5}, "0x1.0000000000000p+0"),
            ({"b": 0.25, "a": 0.75}, {"a": 0.5, "b": 0.5, "c": 0.0}, "0x1.82809d5be7074p-3"),
            ({f"r{i}": (i + 1) / 153 for i in reversed(range(17))},
             {f"r{i}": 1 / 17 for i in range(17)}, "0x1.ed3c0248ad515p-3"),
            ({**{f"r{i}": (i + 1) / 153 for i in range(16)}, "r16": 17 / 153 - 0.01, "extra": 0.01},
             {f"r{i}": 1 / 17 for i in range(17)}, None),
        ],
    )
    def test_recorded_values(self, p, q, plain):
        """Bit for bit the values recorded before the pmfs held vectors."""
        if plain is None:
            with pytest.raises(ValueError, match="divergence undefined"):
                kl_divergence(Pmf(p), Pmf(q))
        else:
            assert kl_divergence(Pmf(p), Pmf(q)).hex() == plain

    def test_matches_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 40))
            p = random_pmf(rng, n)
            q = random_pmf(rng, n)
            assert kl_divergence(Pmf(p), Pmf(q)) == pytest.approx(
                kl_oracle(p, q), abs=1e-9
            )

    def test_nonnegative(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 24))
            p, q = random_pmf(rng, n), random_pmf(rng, n)
            assert kl_divergence(Pmf(p), Pmf(q)) >= -1e-12


class TestImpression:
    def test_exact_conditional_recovers_input(self):
        g = Reconstruction("exact", ExactConditional())
        imp = impression(g, GROUP_422, U8)
        assert imp.pmf.probs == pytest.approx(U8.model.pmf.probs)
        assert distortion_bits(g, GROUP_422, U8) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_preimage_on_uniform_input_is_lossless(self):
        g = Reconstruction("uni", UniformPreimage())
        assert distortion_bits(g, GROUP_422, U8) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_preimage_matches_oracle(self, rng):
        g = Reconstruction("uni", UniformPreimage())
        for _ in range(30):
            n = int(rng.integers(2, 32))
            pmf = random_pmf(rng, n)
            a = enumerated("a", pmf)
            t = make_grouping(random_grouping(rng, pmf, max(1, n // 3)))
            det = {x: t.kind.mapping[x] for x in pmf}
            expect = uniform_preimage_impression_oracle(det, pmf)
            imp = impression(g, t, a)
            for k, v in expect.items():
                assert imp.pmf[k] == pytest.approx(v, abs=1e-9)

    def test_prior_weighted_with_true_prior_is_exact(self):
        pmf = {"0": 0.4, "1": 0.1, "2": 0.3, "3": 0.2}
        a = enumerated("a", pmf)
        t = make_grouping({"0": "lo", "1": "lo", "2": "hi", "3": "hi"})
        g = Reconstruction("prior", PriorWeighted(Pmf(pmf)))
        assert distortion_bits(g, t, a) == pytest.approx(0.0, abs=1e-12)

    def test_prior_weighted_skewed_prior_distorts(self):
        pmf = {"0": 0.4, "1": 0.1, "2": 0.3, "3": 0.2}
        a = enumerated("a", pmf)
        t = make_grouping({"0": "lo", "1": "lo", "2": "hi", "3": "hi"})
        g = Reconstruction("prior", PriorWeighted(Pmf({"0": 0.1, "1": 0.4, "2": 0.2, "3": 0.3})))
        assert distortion_bits(g, t, a) > 0.0

    def test_prior_weighted_matches_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 32))
            pmf = random_pmf(rng, n, sparse=True)
            a = enumerated("a", pmf)
            mapping = random_grouping(rng, pmf, max(1, n // 3))
            t = make_grouping(mapping)
            w = dict(zip(pmf, rng.random(n).tolist()))
            for x in pmf:
                if rng.random() < 0.3:
                    w[x] = 0.0
            # give each preimage with q(y) > 0 some prior mass
            for y in set(mapping.values()):
                xs = [x for x in pmf if mapping[x] == y]
                if math.fsum(pmf[x] for x in xs) > 0.0 and math.fsum(w[x] for x in xs) <= 0.0:
                    w[xs[0]] = 1.0
            total = math.fsum(w.values())
            prior = {x: v / total for x, v in w.items()}
            g = Reconstruction("prior", PriorWeighted(Pmf(prior)))
            expect = prior_weighted_impression_oracle(mapping, pmf, prior)
            imp = impression(g, t, a)
            for k, v in expect.items():
                assert imp.pmf[k] == pytest.approx(v, abs=1e-9)

    def test_prior_weighted_zero_mass_on_dead_preimage_is_allowed(self):
        a = enumerated("a", {"0": 0.5, "1": 0.5, "2": 0.0, "3": 0.0})
        t = make_grouping({"0": "lo", "1": "lo", "2": "hi", "3": "hi"})
        g = Reconstruction("prior", PriorWeighted(Pmf({"0": 0.25, "1": 0.75, "2": 0.0, "3": 0.0})))
        imp = impression(g, t, a)
        assert imp.pmf.probs == pytest.approx({"0": 0.25, "1": 0.75, "2": 0.0, "3": 0.0})

    def test_prior_weighted_zero_mass_on_live_preimage_rejected(self):
        a = enumerated("a", {"0": 0.25, "1": 0.25, "2": 0.5})
        t = make_grouping({"0": "lo", "1": "lo", "2": "hi"})
        g = Reconstruction("prior", PriorWeighted(Pmf({"0": 0.5, "1": 0.5, "2": 0.0})))
        with pytest.raises(ValueError, match="^prior has zero mass on the preimage of 'hi'$"):
            impression(g, t, a)

    def test_declared_divergence_has_no_impression(self):
        g = Reconstruction("decl", DeclaredDivergence(2.0))
        with pytest.raises(ValueError, match="no enumerated impression available"):
            impression(g, GROUP_422, U8)

    def test_impression_is_a_pmf(self, rng):
        g = Reconstruction("uni", UniformPreimage())
        for _ in range(30):
            pmf = random_pmf(rng, 16)
            a = enumerated("a", pmf)
            t = make_grouping(random_grouping(rng, pmf, 5))
            imp = impression(g, t, a)
            assert sum(imp.pmf.probs.values()) == pytest.approx(1.0, abs=1e-9)


class TestDistortion:
    def test_declared_divergence_passthrough(self):
        g = Reconstruction("decl", DeclaredDivergence(2.5))
        assert distortion_bits(g, GROUP_422, U8) == 2.5

    def test_declared_human_without_reconstruction(self):
        out = symbolic("view", 4.0)
        t = Transform("read", DeclaredHuman(out, 1.25), COST, "H")
        assert distortion_bits(None, t, symbolic("doc", 9.0)) == 1.25

    def test_missing_reconstruction_rejected(self):
        with pytest.raises(ValueError, match="unscored edge"):
            distortion_bits(None, GROUP_422, U8)

    def test_machine_centric_deterministic(self):
        # For a deterministic map, I = H(out), so the bound is H(in) - H(out).
        d = distortion_bits(None, GROUP_422, U8, machine_centric=True)
        assert d == pytest.approx(3.0 - 1.5, abs=1e-9)

    def test_machine_centric_never_below_kl_of_exact(self, rng):
        # The perfect-inverse bound dominates the exact-conditional distortion.
        exact = Reconstruction("exact", ExactConditional())
        for _ in range(20):
            pmf = random_pmf(rng, 12)
            a = enumerated("a", pmf)
            t = make_grouping(random_grouping(rng, pmf, 4))
            lo = distortion_bits(exact, t, a)
            hi = distortion_bits(None, t, a, machine_centric=True)
            assert hi >= lo - 1e-9


def _pairwise(seed: int, n: int):
    """Random non-uniform pmf on n letters (weights + 0.01) and a pairwise grouping."""
    w = np.random.default_rng(seed).random(n) + 0.01
    w /= w.sum()
    ids = [str(i) for i in range(n)]
    probs = dict(zip(ids, w.tolist()))
    t = make_grouping({x: f"g{i // 2}" for i, x in enumerate(ids)})
    return enumerated("a", probs), t, probs


class TestLosslessDistortionIsNotNegative:
    """Rounding must not turn a zero distortion into a negative one."""

    def test_exact_conditional_seed_4(self):
        a, t, _ = _pairwise(4, 16)
        g = Reconstruction("exact", ExactConditional())
        d = distortion_bits(g, t, a)
        assert 0.0 <= d <= 1e-12
        m = step_metrics(t, g, a, pushforward(t, a))
        assert m.pdr >= 0.0

    def test_seed_sweep(self):
        for seed in range(10):
            for n in (16, 64, 256):
                a, t, probs = _pairwise(seed, n)
                y = pushforward(t, a)
                for g in (
                    Reconstruction("exact", ExactConditional()),
                    Reconstruction("prior", PriorWeighted(Pmf(probs))),
                ):
                    d = distortion_bits(g, t, a)
                    assert 0.0 <= d <= 1e-12, (seed, n, g.name, d)
                    step_metrics(t, g, a, y)
