import json

import pytest
from jsonschema import Draft202012Validator

from cbr.specio import (
    FIXTURE_NAMES,
    SCHEMA,
    Expectation,
    SpecError,
    all_fixtures,
    check_fixture,
    emit_spec,
    fixture_share_price,
    fixture_plot_vs_binary,
    load_fixture,
    parse_spec,
    resolve_metric,
)

MINIMAL = {
    "schema_version": "1",
    "alphabets": [
        {"name": "a", "model": {"type": "symbolic", "entropy_bits": 4.0, "max_entropy_bits": 4.0}},
        {"name": "b", "model": {"type": "symbolic", "entropy_bits": 2.0, "max_entropy_bits": 2.0}},
    ],
    "transforms": [
        {
            "name": "t",
            "node_kind": "H",
            "cost": {"kind": "time", "amount": 1.0, "unit": "min"},
            "kind": {"type": "declared", "output": "b", "distortion_bits": 0.5},
        }
    ],
    "graph": {"edges": [{"from": "a", "to": "b", "transform": "t"}], "decisional": "b"},
}


def minimal(**overrides):
    data = json.loads(json.dumps(MINIMAL))
    data.update(overrides)
    return data


class TestParse:
    def test_schema_is_valid_draft_2020_12(self):
        Draft202012Validator.check_schema(SCHEMA)

    def test_minimal_round_trip(self):
        spec = parse_spec(json.dumps(MINIMAL))
        again = parse_spec(emit_spec(spec))
        assert again.data == spec.data

    def test_malformed_json(self):
        with pytest.raises(SpecError, match="malformed JSON"):
            parse_spec("{not json")

    def test_schema_violation(self):
        data = minimal()
        del data["alphabets"]
        with pytest.raises(SpecError):
            parse_spec(json.dumps(data))

    def test_unknown_version(self):
        with pytest.raises(SpecError, match="schema_version"):
            parse_spec(json.dumps(minimal(schema_version="99")))

    def test_dangling_transform_reference(self):
        data = minimal()
        data["graph"]["edges"][0]["transform"] = "ghost"
        with pytest.raises(SpecError, match="dangling reference"):
            parse_spec(json.dumps(data))

    def test_dangling_alphabet_reference(self):
        data = minimal()
        data["graph"]["edges"][0]["to"] = "ghost"
        with pytest.raises(SpecError, match="dangling reference"):
            parse_spec(json.dumps(data))

    def test_dangling_reconstruction_reference(self):
        data = minimal()
        data["graph"]["edges"][0]["reconstruction"] = "ghost"
        with pytest.raises(SpecError, match="dangling reference"):
            parse_spec(json.dumps(data))

    def test_circular_product_reference(self):
        data = minimal()
        data["alphabets"].append(
            {"name": "p", "model": {"type": "product", "factor": "p", "count": 2}}
        )
        data["graph"]["edges"] = []
        with pytest.raises(SpecError, match="circular"):
            parse_spec(json.dumps(data)).alphabets()

    def test_graph_invariants_surface_as_spec_errors(self):
        data = minimal()
        # second sink alphabet connected by a second edge out of `a`
        data["alphabets"].append(
            {"name": "c", "model": {"type": "symbolic", "entropy_bits": 1.0, "max_entropy_bits": 1.0}}
        )
        data["transforms"].append(
            {
                "name": "t2",
                "node_kind": "H",
                "cost": {"kind": "time", "amount": 1.0, "unit": "min"},
                "kind": {"type": "declared", "output": "c", "distortion_bits": 0.0},
            }
        )
        data["graph"]["edges"].append({"from": "a", "to": "c", "transform": "t2"})
        with pytest.raises(SpecError, match="decisional sink"):
            parse_spec(json.dumps(data))

    def test_param_space_absent(self):
        assert parse_spec(json.dumps(MINIMAL)).param_space() is None

    def test_param_space_parsed(self):
        data = minimal(
            param_space={
                "dimensions": [
                    {
                        "target": "transform:t",
                        "field": "declared_distortion_bits",
                        "values": [0.0, 0.5],
                    }
                ]
            }
        )
        space = parse_spec(json.dumps(data)).param_space()
        assert space.combination_count() == 2


class TestRoundTrip:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_parse_emit_identity(self, name):
        spec = load_fixture(name).spec
        assert parse_spec(emit_spec(spec)).data == spec.data


class TestResolveMetric:
    def test_node_and_graph_scopes(self):
        graph = fixture_share_price(1).build_graph()
        assert resolve_metric(graph, "node:Z1:max_entropy", "maximal") == pytest.approx(23040.0)
        assert resolve_metric(graph, "graph:cost", "maximal") == pytest.approx(13.0)

    def test_edge_scope(self):
        graph = fixture_plot_vs_binary().build_graph()
        assert resolve_metric(graph, "edge:recognize_plot:cost", "actual") == 10.0
        assert resolve_metric(graph, "edge:recognize_plot:benefit", "actual") == pytest.approx(
            415.0, abs=1.0
        )

    def test_path_scope(self):
        graph = fixture_plot_vs_binary().build_graph()
        cbr = resolve_metric(graph, "path:Z1,Za2,Za3,Z4:cbr", "actual")
        b = resolve_metric(graph, "path:Z1,Za2,Za3,Z4:benefit", "actual")
        c = resolve_metric(graph, "path:Z1,Za2,Za3,Z4:cost", "actual")
        assert cbr == pytest.approx(b / c)

    def test_as_printed_differs_from_ratio(self):
        # literal (H_out + D)/C per-step sum, kept as a reporting variant
        graph = fixture_plot_vs_binary().build_graph()
        printed = resolve_metric(graph, "path:Z1,Za2,Za3,Z4:as_printed", "actual")
        ratio = resolve_metric(graph, "path:Z1,Za2,Za3,Z4:cbr", "actual")
        assert printed != pytest.approx(ratio)

    def test_unknown_scope(self):
        graph = fixture_plot_vs_binary().build_graph()
        with pytest.raises(ValueError, match="scope"):
            resolve_metric(graph, "cluster:x:benefit", "actual")


class TestFixtures:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_all_expectations_hold(self, name):
        rows = check_fixture(load_fixture(name))
        failures = [r for r in rows if not r[4]]
        assert not failures, failures

    def test_all_fixtures_listing(self):
        assert [f.name for f in all_fixtures()] == list(FIXTURE_NAMES)

    def test_unknown_fixture(self):
        with pytest.raises(KeyError):
            load_fixture("nonesuch")

    def test_scaled_chain(self):
        for r in (3, 10):
            from cbr.specio import Fixture, share_price_expected

            rows = check_fixture(Fixture("share_price", fixture_share_price(r), share_price_expected(r)))
            assert all(r_[4] for r_ in rows)

    def test_presenter_variant_has_zero_benefit(self):
        graph = fixture_plot_vs_binary(presenter=True).build_graph()
        ben = graph.total_benefit()
        assert ben.lo == pytest.approx(0.0, abs=1e-9)
        assert ben.hi == pytest.approx(0.0, abs=1e-9)

    def test_bad_expectation_op(self):
        f = load_fixture("overview_interaction")
        f.expected = [Expectation("graph:cost", "ne", 1.0)]
        with pytest.raises(ValueError, match="op"):
            check_fixture(f)
