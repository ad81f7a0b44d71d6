import copy
import json
import math
import time

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from cbr import specio
from cbr.cli import main
from cbr.specio import (
    FIXTURE_NAMES,
    SCHEMA,
    Expectation,
    SpecError,
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

    @pytest.mark.parametrize("where, key, value", [
        ("graph", "class_tag", "W1"),
        ("graph", "level_tag", "V_D"),
        ("document", "fixture_tag", "share_price_chain"),
        ("aggregator", "statistic", "mean"),
    ])
    def test_keys_nothing_reads_are_ignored(self, where, key, value, tmp_path, capsys):
        """A document that still carries one of these keys is read as one
        with an unknown key in an open object: every command prints the
        same bytes as on the document without it."""
        plain = json.loads(emit_spec(fixture_share_price(3)))
        tagged = copy.deepcopy(plain)
        aggregator = tagged["transforms"][0]["kind"]
        assert aggregator["type"] == "aggregator"
        {"document": tagged, "graph": tagged["graph"], "aggregator": aggregator}[where][key] = value
        path = tmp_path / "spec.json"

        def outputs(doc):
            path.write_text(json.dumps(doc))
            runs = []
            for command in (["validate"], ["analyze", "--json"],
                            ["report", "--format", "csv"], ["report", "--format", "dot"]):
                runs.append((main(command + [str(path)]), capsys.readouterr()))
            return runs

        expected = outputs(plain)
        assert [rc for rc, _ in expected] == [0, 0, 0, 0]
        assert outputs(tagged) == expected


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

    def test_edge_scope_reads_only_the_metric_asked_for(self):
        # maximal mode: colormap's input Z3c has zero entropy, so its ratios
        # are undefined, and every benefit is still defined
        graph = load_fixture("share_price_chain").spec.build_graph()
        assert resolve_metric(graph, "edge:aggregate:benefit", "maximal") == 21120.0
        assert resolve_metric(graph, "edge:colormap:benefit", "maximal") == 0.0
        colormap = graph.analyze("maximal").per_edge["colormap"]
        assert colormap.benefit_bits == 0.0
        with pytest.raises(ValueError, match="^transformation unnecessary: input entropy is zero$"):
            colormap.acr
        with pytest.raises(ValueError, match="transformation unnecessary"):
            resolve_metric(graph, "edge:colormap:acr", "maximal")

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

    @pytest.mark.parametrize(
        "path, message",
        [
            ("node:Z1:entropy_typo", "unknown node metric 'entropy_typo'"),
            ("node:Z9:entropy", "unknown node 'Z9'"),
            ("edge:aggregate:bogus", "unknown edge metric 'bogus'"),
            ("edge:agregate:benefit", "unknown edge 'agregate'"),
            ("path:Z1,Z2,Z3:benfit", "unknown path metric 'benfit'"),
            ("path:Z1,Z22,Z3:benefit", "unknown path 'Z1,Z22,Z3'"),
            ("graph:benefit_low", "unknown graph metric 'benefit_low'"),
            # the graph scope takes no name, so a name is read as part of the metric
            ("graph:main:cost", "unknown graph metric 'main:cost'"),
            # a path names two or more nodes: one alone has no cost to divide by
            ("path:Z1:cbr", "unknown path 'Z1'"),
        ],
    )
    def test_misspelled_name_or_metric(self, path, message):
        graph = load_fixture("share_price_chain").spec.build_graph()
        for mode in ("actual", "maximal"):
            with pytest.raises(ValueError) as exc:
                resolve_metric(graph, path, mode)
            assert str(exc.value) == message


class TestFixtures:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_all_expectations_hold(self, name):
        rows = check_fixture(load_fixture(name))
        failures = [r for r in rows if not r[4]]
        assert not failures, failures

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


class TestCountFields:
    """A quantizer's ``levels`` and an aggregator's ``window`` are counts:
    a spec, the constructors and a search reject the same values."""

    NOT_COUNTS = [(2.5, "2.5 is not an integer"), (True, "True is not an integer"),
                  ("3", "'3' is not an integer")]

    @pytest.mark.parametrize("value, reason", NOT_COUNTS, ids=["2.5", "true", "string"])
    @pytest.mark.parametrize("index, field", [(1, "levels"), (0, "window")], ids=["plot", "aggregate"])
    def test_spec_rejects_a_count_that_is_not_an_integer(self, index, field, value, reason):
        data = copy.deepcopy(fixture_share_price(1).data)
        kind = data["transforms"][index]["kind"]
        kind[field] = value
        with pytest.raises(SpecError) as exc:
            parse_spec(json.dumps(data))
        assert str(exc.value) == (
            f"{kind['type']} transform has a field of the wrong type ({reason})"
            f" at transforms[{index}].kind"
        )

    def test_fractional_bins_whose_node_agrees(self):
        """2.5 plot levels, with Z3's factor declared at log2 2.5 bits: the
        nodes agree, and only the count is wrong."""
        data = copy.deepcopy(fixture_share_price(1).data)
        data["transforms"][1]["kind"]["levels"] = 2.5
        plotpoint = data["alphabets"][3]
        assert plotpoint["name"] == "plotpoint"
        plotpoint["model"].update(entropy_bits=math.log2(2.5), max_entropy_bits=math.log2(2.5))
        with pytest.raises(SpecError, match=r"\(2\.5 is not an integer\) at transforms\[1\]\.kind"):
            parse_spec(json.dumps(data))

    def test_infinite_count(self):
        """1e400, which ``json`` reads as inf, is a count of the wrong type."""
        data = copy.deepcopy(fixture_share_price(1).data)
        data["transforms"][1]["kind"]["levels"] = 123.25
        with pytest.raises(SpecError) as exc:
            parse_spec(json.dumps(data).replace("123.25", "1e400"))
        assert str(exc.value) == (
            "quantizer transform has a field of the wrong type"
            " (cannot convert float infinity to integer) at transforms[1].kind"
        )

    @pytest.mark.parametrize("value, reason", NOT_COUNTS, ids=["2.5", "true", "string"])
    def test_constructors_reject_what_a_search_rejects(self, value, reason):
        from cbr.optimize import apply_assignment
        from cbr.transform import Aggregator, Quantizer

        for make in (Quantizer, Aggregator):
            with pytest.raises(TypeError, match=f"^{reason}$"):
                make(value)
        graph = fixture_share_price(1).build_graph()
        for target, field in (("transform:plot", "bins"), ("transform:aggregate", "window")):
            with pytest.raises(ValueError, match=f"^bad value for {target}.{field}: {reason}$"):
                apply_assignment(graph, {(target, field): value})

    def test_integral_float_is_a_count(self):
        from cbr.transform import Aggregator, Quantizer

        assert Quantizer(4.0) == Quantizer(4) and Aggregator(3.0) == Aggregator(3)


def enum_fork_join() -> dict:
    """X (16 letters) forks into a pairwise grouping and a 4-bin quantizer,
    which two groupings join at a 2-letter decision D."""
    p_x = [(i + 1) / 136 for i in range(16)]
    p_g = [p_x[2 * j] + p_x[2 * j + 1] for j in range(8)]
    p_q = [sum(p_x[4 * k: 4 * k + 4]) for k in range(4)]
    p_d = [sum(p_x[:8]), sum(p_x[8:])]

    def alphabet(name, ids, p):
        return {"name": name, "model": {"type": "enumerated", "probs": dict(zip(ids, p))}}

    def step(name, node_kind, kind):
        return {"name": name, "node_kind": node_kind, "kind": kind,
                "cost": {"kind": "time", "amount": 2.0, "unit": "s"}}

    return {
        "schema_version": "1",
        "alphabets": [
            alphabet("X", [str(i) for i in range(16)], p_x),
            alphabet("G", [f"g{j}" for j in range(8)], p_g),
            alphabet("Q", [f"bin{k}" for k in range(4)], p_q),
            alphabet("D", ["d0", "d1"], p_d),
        ],
        "transforms": [
            step("pair", "M", {"type": "grouping", "map": {str(i): f"g{i // 2}" for i in range(16)}}),
            step("bin", "V", {"type": "quantizer", "levels": 4, "boundaries": [0, 4, 8, 12, 15]}),
            step("coarse_g", "M", {"type": "grouping", "map": {f"g{j}": f"d{j // 4}" for j in range(8)}}),
            step("coarse_q", "H", {"type": "grouping", "map": {f"bin{k}": f"d{k // 2}" for k in range(4)}}),
        ],
        "reconstructions": [
            {"name": "uniform", "kind": {"type": "uniform_preimage"}},
            {"name": "prior", "kind": {"type": "prior_weighted",
                                       "prior": {str(i): 1 / 16 for i in range(16)}}},
        ],
        "graph": {
            "edges": [
                {"from": "X", "to": "G", "transform": "pair", "reconstruction": "uniform"},
                {"from": "X", "to": "Q", "transform": "bin", "reconstruction": "prior"},
                {"from": "G", "to": "D", "transform": "coarse_g", "reconstruction": "uniform"},
                {"from": "Q", "to": "D", "transform": "coarse_q", "reconstruction": "uniform"},
            ],
            "decisional": "D",
        },
    }


def count_calls(monkeypatch, *names) -> dict:
    """Count calls of each named cbr function under every module name it has."""
    import cbr.metrics
    import cbr.reconstruction
    import cbr.transform
    import cbr.workflow

    modules = (cbr.transform, cbr.reconstruction, cbr.metrics, cbr.workflow)
    calls = dict.fromkeys(names, 0)

    def counter(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in names:
        original = next(getattr(m, name) for m in modules if hasattr(m, name))
        for m in modules:
            if getattr(m, name, None) is original:
                monkeypatch.setattr(m, name, counter(name, original))
    return calls


class TestComputedOnce:
    def test_parsed_spec_returns_its_graph(self):
        spec = parse_spec(json.dumps(enum_fork_join()))
        assert spec.build_graph() is spec.build_graph()

    def test_spec_built_directly_builds_each_call(self):
        from cbr.specio import WorkflowSpec

        spec = WorkflowSpec(enum_fork_join())
        assert spec.build_graph() is not spec.build_graph()

    def test_built_graph_reads_its_terms(self, monkeypatch):
        from cbr.specio import Fixture
        from cbr.transform import Step

        steps = []
        init = Step.__init__

        def counted(self, *args):
            steps.append(self)
            init(self, *args)

        monkeypatch.setattr(Step, "__init__", counted)
        spec = parse_spec(json.dumps(enum_fork_join()))
        graph = spec.build_graph()
        assert len(steps) == len(graph.edges)
        calls = count_calls(monkeypatch, "deterministic_codes", "distortion_bits")
        first = graph.analyze()
        assert graph.edge_metrics() == first.per_edge
        assert graph.edge_metrics() == first.per_edge
        expected = [
            Expectation("edge:pair:benefit", "gt", 0.0),
            Expectation("edge:bin:pdr", "gt", 0.0),
            Expectation("path:X,Q,D:benefit", "gt", "path:X,G,D:benefit"),
            Expectation("path:X,Q,D:as_printed", "gt", 0.0),
            Expectation("graph:benefit_lo", "ge", 0.0),
            Expectation("graph:cbr_hi", "gt", 0.0),
        ]
        rows = check_fixture(Fixture("enum", spec, expected))
        assert all(r[4] for r in rows), rows
        assert calls["deterministic_codes"] == 0
        assert calls["distortion_bits"] == len(graph.edges)
        assert len(steps) == len(graph.edges)

    def test_dropped_graph_freed_without_collection(self):
        import gc
        import weakref

        gc.disable()
        try:
            spec = parse_spec(json.dumps(enum_fork_join()))
            graph = spec.build_graph()
            graph.analyze()
            kind = weakref.ref(graph.edges[0].transform.kind)
            del spec, graph
            assert kind() is None
        finally:
            gc.enable()


class TestParamSpaceAtParse:
    def space(self, *dims):
        return minimal(param_space={"dimensions": [
            {"target": t, "field": f, "values": [1.0, 2.0]} for t, f in dims
        ]})

    def test_known_targets_accepted(self):
        data = enum_fork_join()
        # declared_bits applies to a declared divergence only
        data["reconstructions"].append({"name": "declared", "kind": {"type": "declared", "bits": 0.0}})
        data["graph"]["edges"][2]["reconstruction"] = "declared"
        data["param_space"] = {"dimensions": [
            {"target": "transform:bin", "field": "bins", "values": [2, 4]},
            {"target": "reconstruction:declared", "field": "declared_bits", "values": [0.0]},
            {"target": "edge:X->Q", "field": "enabled", "values": [True]},
        ]}
        parse_spec(json.dumps(data))

    @pytest.mark.parametrize(
        "target, field, message",
        [
            ("transform:pair", "bins", "pair is not a quantizer"),
            ("transform:bin", "zoom", "unknown transform field 'zoom'"),
            ("reconstruction:uniform", "declared_bits", "uniform is not a declared divergence"),
            ("edge:X->Q", "bins", "unknown edge field 'bins'"),
        ],
    )
    def test_field_that_does_not_apply_rejected(self, target, field, message):
        data = enum_fork_join()
        data["param_space"] = {"dimensions": [{"target": target, "field": field, "values": [2]}]}
        with pytest.raises(ValueError) as exc:
            parse_spec(json.dumps(data))
        assert not isinstance(exc.value, SpecError)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "target, message",
        [
            ("transform:nosuch", "dangling reference: transform 'nosuch'"),
            ("reconstruction:nosuch", "dangling reference: reconstruction 'nosuch'"),
            ("edge:b->a", "dangling reference: edge 'b->a'"),
        ],
    )
    def test_dangling_target_rejected(self, target, message):
        with pytest.raises(SpecError) as exc:
            parse_spec(json.dumps(self.space(("transform:t", "cost_amount"), (target, "x"))))
        assert str(exc.value) == f"{message} at param_space.dimensions[1].target"

    @pytest.mark.parametrize(
        "bins, message",
        [
            (17, "bin has more bins than the 16 letters of its input"),
            (10**7, "bin has more bins than the 16 letters of its input"),
            (10**400, "bin has more bins than the 16 letters of its input"),
            (2.5, "bad value for transform:bin.bins: 2.5 is not an integer"),
            (True, "bad value for transform:bin.bins: True is not an integer"),
        ],
        ids=["17", "1e7", "400-digits", "2.5", "true"],
    )
    def test_enumerated_bins_bounded_by_letters(self, bins, message, tmp_path, capsys):
        """``validate`` rejects a bin count that the quantized alphabet's
        letters cannot fill before it builds any boundary."""
        from cbr.cli import main

        data = enum_fork_join()
        data["param_space"] = {"dimensions": [
            {"target": "transform:bin", "field": "bins", "values": [2, bins]},
        ]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        assert main(["validate", str(path)]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_duplicate_dimension_rejected(self):
        with pytest.raises(ValueError) as exc:
            parse_spec(json.dumps(self.space(("transform:t", "cost_amount"), ("transform:t", "cost_amount"))))
        assert not isinstance(exc.value, SpecError)
        assert str(exc.value) == "duplicate dimension transform:t.cost_amount"


FIXTURE_DOCS = [json.loads(emit_spec(load_fixture(n).spec)) for n in FIXTURE_NAMES]
JUNK = st.sampled_from(
    [math.nan, math.inf, -math.inf, True, False, None, 0, -1, 0.0, -0.5, 2.5, 10**400,
     "", "x", "grouping", [], [1], {}, {"type": "declared"}]
).map(copy.deepcopy)  # a drawn list or object may be mutated later
KEYS = st.sampled_from(["extra", "map", "output", "probs", "bits", "count", "factor", "type", "kind"])


def containers(node) -> list:
    """Every object and array in a document, the document first."""
    out = [node]
    for child in node.values() if isinstance(node, dict) else node:
        if isinstance(child, (dict, list)):
            out += containers(child)
    return out


@st.composite
def mutated_docs(draw):
    """A fixture document with one to three of: a value replaced by junk,
    a key or item dropped, a key or item added."""
    doc = copy.deepcopy(draw(st.sampled_from(FIXTURE_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(containers(doc)))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        op = draw(st.sampled_from(["replace", "drop", "add"]))
        if op == "add" or not keys:
            if isinstance(node, dict):
                node[draw(KEYS)] = draw(JUNK)
            else:
                node.append(draw(JUNK))
        elif op == "drop":
            del node[draw(st.sampled_from(keys))]
        else:
            node[draw(st.sampled_from(keys))] = draw(JUNK)
    return doc


class TestConforms:
    """``_conforms`` accepts only what SCHEMA accepts; jsonschema words every rejection."""

    @settings(max_examples=500, deadline=None)
    @given(mutated_docs())
    def test_sound_and_errors_unchanged(self, doc):
        error = best_match(specio._VALIDATOR.iter_errors(doc))
        if specio._conforms(doc):
            assert error is None
        if error is None:
            return
        try:
            json.dumps(doc, allow_nan=False)
        except ValueError:
            finite = False
        else:
            finite = True
        with pytest.raises(SpecError) as exc:
            parse_spec(json.dumps(doc))
        if finite:
            path = "/".join(str(p) for p in error.absolute_path)
            assert str(exc.value) == str(SpecError(error.message, path))
        else:
            assert "numbers must be finite" in str(exc.value)

    @pytest.mark.parametrize(
        "schema",
        [
            {"type": "object", "patternProperties": {}},
            {"type": "null"},
            {"type": ["string", "null"]},
            {"type": "string", "minLength": 1},
            {"minimum": 0},
            {"type": "object", "additionalProperties": {"type": "string"}},
            {"type": "array", "items": {"type": "number", "multipleOf": 2}},
        ],
    )
    def test_unknown_keyword_or_type_raises(self, schema):
        with pytest.raises(ValueError, match="cannot compile"):
            specio._compile_schema(schema)

    def test_narrower_than_the_schema(self):
        number = specio._compile_schema({"type": "number", "minimum": 0})
        integer = specio._compile_schema({"type": "integer", "minimum": 1})
        assert number(0) and number(2.5) and number(10**400)
        assert not any(map(number, [True, math.nan, math.inf, -1, "1", None]))
        assert integer(1) and not any(map(integer, [True, 2.0, 0]))

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures_skip_jsonschema(self, name, monkeypatch):
        class Refuses:
            def iter_errors(self, data):
                raise AssertionError("jsonschema ran on a conforming document")

        monkeypatch.setattr(specio, "_VALIDATOR", Refuses())
        spec = load_fixture(name).spec
        assert parse_spec(emit_spec(spec)).data == spec.data
