"""Every CLI command ends cleanly on a broken document.

Fixture documents, ``enum_fork_join`` included, are mutated: a key or item
dropped, a value of the wrong type, ``NaN``, the literal ``1e400`` (which
``json`` reads as inf), an integer too large for a float, a name that
refers to nothing, or a symbolic alphabet with zero entropy, whose ratios
are undefined. ``validate``, ``analyze`` (text and ``--json``) and
``report`` (csv and dot) each exit 0, 1 or 2 and never raise. An exit of 1
prints exactly one ``error:`` line to stderr and nothing to stdout.
"""

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from test_golden import run
from test_specio import FIXTURE_DOCS, JUNK, containers, enum_fork_join

DOCS = [*FIXTURE_DOCS, enum_fork_join()]
OVERFLOW = "__1e400__"  # a string in the document, the literal 1e400 in its text
VALUES = st.one_of(JUNK, st.sampled_from([OVERFLOW, -(10**400)]))
COMMANDS = [
    ["validate"],
    ["analyze"],
    ["analyze", "--json"],
    ["report", "--format", "csv"],
    ["report", "--format", "dot"],
]


def symbolic_models(doc) -> list:
    alphabets = doc.get("alphabets")
    return [a["model"] for a in alphabets if isinstance(a, dict)
            and isinstance(a.get("model"), dict) and a["model"].get("type") == "symbolic"
            ] if isinstance(alphabets, list) else []


@st.composite
def broken_docs(draw):
    """The text of a document with one or two mutations."""
    doc = copy.deepcopy(draw(st.sampled_from(DOCS)))
    for _ in range(draw(st.integers(1, 2))):
        # zero entropy twice as often: most other mutations end at the schema
        op = draw(st.sampled_from(["drop", "junk", "dangle", "zero_entropy", "zero_entropy"]))
        if op == "zero_entropy":
            if symbolic_models(doc):
                model = draw(st.sampled_from(symbolic_models(doc)))
                model.update(entropy_bits=0, max_entropy_bits=0)
            continue
        node = draw(st.sampled_from(containers(doc)))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if op == "dangle":
            keys = [k for k in keys if isinstance(node[k], str)]
        if not keys:
            continue
        key = draw(st.sampled_from(keys))
        if op == "drop":
            del node[key]
        elif op == "dangle":
            node[key] = "nowhere"
        else:
            node[key] = draw(VALUES)
    return json.dumps(doc).replace(f'"{OVERFLOW}"', "1e400")


@settings(max_examples=500, deadline=None)
@given(broken_docs())
def test_every_command_ends_cleanly(text):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "spec.json"
        path.write_text(text, encoding="utf-8")
        outputs = [(command, *run([*command, str(path)])) for command in COMMANDS]
    for command, rc, out, err in outputs:
        assert rc in (0, 1, 2), (command, rc)
        if rc == 1:
            assert out == "", command
            assert err.startswith("error: ") and err.count("\n") == 1, (command, err)
        elif rc == 0:
            assert out and err == "", (command, err)
