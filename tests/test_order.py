"""Results do not depend on the order in which a spec lists things.

``cbr analyze --json`` runs on a spec document and on the same document
with its alphabets, transforms, reconstructions and edges, and the letters
of each ``probs``, ``map`` and ``prior``, in another order. Both runs exit
with the same code, and print the same error line or the same report: the
per-edge objects keyed by transform name, every number within 1e-12,
relative or absolute. The documents are the six bundled fixtures,
``enum_fork_join`` and the random workflows of ``tests/test_step.py``.

On the same documents, ``emit_spec`` of a parsed spec parses back to a
spec that ``analyze --json`` reports exactly as it reports the original.
"""

import json
import math
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from cbr.specio import FIXTURE_NAMES, SpecError, emit_spec, load_fixture, parse_spec
from test_golden import run
from test_specio import enum_fork_join
from test_step import workflows

LISTS = frozenset({"alphabets", "transforms", "reconstructions", "edges"})
LETTER_MAPS = frozenset({"probs", "map", "prior"})
COST = {"kind": "time", "amount": 2.0, "unit": "s"}
RECONSTRUCTION_TYPES = {"exact": "exact_conditional", "uniform": "uniform_preimage"}


def document(nodes: dict, steps: list) -> dict:
    """The spec document of a workflow drawn by ``test_step.workflows``."""
    transforms, reconstructions, edges = [], [], []
    for s in steps:
        edge = {"from": s["src"], "to": s["dst"], "transform": s["name"]}
        if s["map"] is None:
            kind, node_kind = {"type": "declared", "output": s["dst"], "distortion_bits": 0.5}, "H"
            r = None if s["bits"] is None else {"type": "declared", "bits": s["bits"]}
        else:
            if s["cuts"] is None:
                kind = {"type": "grouping", "map": s["map"]}
            else:
                n = len(nodes["X"])
                cuts = [-0.5, *(c - 0.5 for c in s["cuts"]), n - 0.5]
                kind = {"type": "quantizer", "levels": len(cuts) - 1, "boundaries": cuts}
            node_kind = "M"
            name, prior = s["recon"]
            r = ({"type": RECONSTRUCTION_TYPES[name]} if prior is None
                 else {"type": "prior_weighted", "prior": prior})
        transforms.append({"name": s["name"], "node_kind": node_kind, "kind": kind, "cost": COST})
        if r is not None:
            reconstructions.append({"name": f"r{s['name']}", "kind": r})
            edge["reconstruction"] = f"r{s['name']}"
        edges.append(edge)
    return {
        "schema_version": "1",
        "alphabets": [{"name": v, "model": {"type": "enumerated", "probs": p}}
                      for v, p in nodes.items()],
        "transforms": transforms,
        "reconstructions": reconstructions,
        "graph": {"edges": edges},
    }


DOCUMENTS = st.one_of(
    st.sampled_from([load_fixture(name).spec.data for name in FIXTURE_NAMES] + [enum_fork_join()]),
    workflows().map(lambda workflow: document(*workflow)),
)


def permuted(rng: random.Random, value, key=None):
    """``value`` with each list named in LISTS, and each letter map named
    in LETTER_MAPS, shuffled by ``rng``; everything else as it is."""
    if isinstance(value, dict):
        items = [(k, permuted(rng, v, k)) for k, v in value.items()]
        if key in LETTER_MAPS:
            rng.shuffle(items)
        return dict(items)
    if isinstance(value, list):
        items = [permuted(rng, v) for v in value]
        if key in LISTS:
            rng.shuffle(items)
        return items
    return value


def analyze(directory: str, data) -> list:
    """``analyze --json`` on a document, or on the text of one."""
    path = Path(directory) / "spec.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data), encoding="utf-8")
    return run(["analyze", "--json", str(path)])


def same(a, b) -> bool:
    """Equal JSON values, dicts compared by key and numbers within 1e-12."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, float) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
    return a == b


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS, st.integers(0, 2 ** 32 - 1))
def test_analyze_does_not_depend_on_order(data, seed):
    other = permuted(random.Random(seed), data)
    with tempfile.TemporaryDirectory() as directory:
        (rc, out, err), (other_rc, other_out, other_err) = (
            analyze(directory, data), analyze(directory, other))
    assert rc == other_rc
    if rc:
        assert err == other_err and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert same(json.loads(out), json.loads(other_out))


@settings(max_examples=100, deadline=None)
@given(DOCUMENTS)
def test_emitted_spec_analyzes_alike(data):
    with tempfile.TemporaryDirectory() as directory:
        try:
            emitted = emit_spec(parse_spec(json.dumps(data)))
        except SpecError:  # a tied joint, or no edge: nothing to emit
            assert analyze(directory, data)[0] == 1
            return
        assert analyze(directory, emitted) == analyze(directory, data)
