"""Recorded CLI outputs for the six bundled fixtures, for the enumerated
workflows of ``ENUM_SPECS`` and for ``cbr optimize``.

``cbr fixtures``, and ``validate``, ``analyze``, ``analyze --json`` and
``report --format csv|dot`` on each fixture's spec file, are compared
with the outputs kept in ``tests/golden/``; so are those commands and
``analyze --mode maximal --json`` on each ``ENUM_SPECS`` workflow, and
``cbr optimize`` on the parameter spaces of ``OPTIMIZE_SPECS``: the exit code and standard
error exactly, standard output token by token. A token that reads as a
number may differ from the recorded one by 1e-12 relative, so that a
last-bit difference in ``log2`` between machines does not fail the test;
every other token must match exactly.

After a change that is meant to alter these outputs, record them again
with ``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

from cbr.cli import main
from cbr.specio import FIXTURE_NAMES, emit_spec, fixture_share_price, load_fixture
from test_specio import enum_fork_join

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = {
    "validate": ["validate"],
    "analyze": ["analyze"],
    "analyze --json": ["analyze", "--json"],
    "report csv": ["report", "--format", "csv"],
    "report dot": ["report", "--format", "dot"],
}
ENUM_COMMANDS = {**COMMANDS, "analyze maximal --json": ["analyze", "--mode", "maximal", "--json"]}
OPTIMIZE_COMMANDS = {
    "plain": ["optimize"],
    "frontier": ["optimize", "--frontier"],
    "greedy": ["optimize", "--greedy", "--restarts", "3"],
    "budget": ["optimize", "--budget", "12"],
}


def _node_reordered() -> dict:
    """``enum_fork_join`` whose node G lists its letters in reverse, not in
    the order in which the grouping ``pair`` first reaches them."""
    data = enum_fork_join()
    g = data["alphabets"][1]["model"]
    g["probs"] = dict(reversed(g["probs"].items()))
    return data


def _prior_reordered() -> dict:
    """``enum_fork_join`` whose quantizer is scored by a prior that is not
    uniform and lists X's letters in reverse."""
    data = enum_fork_join()
    prior = data["reconstructions"][1]["kind"]
    prior["prior"] = {str(i): (16 - i) / 136 for i in reversed(range(16))}
    return data


def _channel_reordered() -> dict:
    """``enum_fork_join`` plus a channel X -> C, scored by a declared
    reconstruction, whose ``inputs`` list X's letters in reverse; a declared
    step C -> D makes D a joint of three branches."""
    data = enum_fork_join()
    p_x = data["alphabets"][0]["model"]["probs"]
    inputs = [str(i) for i in reversed(range(16))]
    rows = [[(i % 4) / 6, (3 - i % 4) / 6, 0.5] for i in range(16)]
    p_c = [math.fsum(p_x[x] * row[j] for x, row in zip(inputs, rows)) for j in range(3)]
    data["alphabets"].append({"name": "C", "model": {"type": "enumerated", "probs": dict(
        zip(["c0", "c1", "c2"], p_c))}})
    data["transforms"] += [
        {"name": "blur", "node_kind": "M", "cost": {"kind": "time", "amount": 1.0, "unit": "s"},
         "kind": {"type": "channel", "inputs": inputs, "outputs": ["c0", "c1", "c2"], "matrix": rows}},
        {"name": "read", "node_kind": "H", "cost": {"kind": "time", "amount": 3.0, "unit": "s"},
         "kind": {"type": "declared", "output": "D", "distortion_bits": 0.125}},
    ]
    data["reconstructions"].append({"name": "blur_declared", "kind": {"type": "declared", "bits": 0.25}})
    data["graph"]["edges"] += [
        {"from": "X", "to": "C", "transform": "blur", "reconstruction": "blur_declared"},
        {"from": "C", "to": "D", "transform": "read"},
    ]
    return data


# enumerated workflows whose letters come in more than one order, each run
# under every ENUM_COMMANDS command
ENUM_SPECS = {
    "enum_fork_join": enum_fork_join,
    "enum_node_reordered": _node_reordered,
    "enum_prior_reordered": _prior_reordered,
    "enum_channel_reordered": _channel_reordered,
}


def _share_price_space() -> dict:
    data = fixture_share_price(3).data
    data["param_space"] = {"dimensions": [
        {"target": "transform:aggregate", "field": "cost_amount", "values": [1, 2, 4]},
        {"target": "transform:recognize", "field": "cost_amount", "values": [3, 5, 8]},
        {"target": "transform:plot", "field": "bins", "values": [64, 128]},
    ]}
    return data


def _enum_bins_space(branch_only: bool = False) -> dict:
    """``enum_fork_join`` with a ``bins`` dimension on its quantizer. Every
    value but 4 changes what the quantizer branch delivers at the joint,
    so the search on the whole workflow skips it; its quantizer branch
    alone, X -> Q -> D, has no joint and skips nothing."""
    data = enum_fork_join()
    if branch_only:
        edges = data["graph"]["edges"]
        data["graph"]["edges"] = [e for e in edges if "G" not in (e["from"], e["to"])]
    data["param_space"] = {"dimensions": [
        {"target": "transform:bin", "field": "bins", "values": [2, 3, 4]},
    ]}
    return data


# spec document, and the OPTIMIZE_COMMANDS run on it
OPTIMIZE_SPECS = {
    "share_price_r3": (_share_price_space, ["plain", "frontier", "greedy", "budget"]),
    "enum_fork_join_bins": (_enum_bins_space, ["plain", "frontier"]),
    "enum_branch_bins": (lambda: _enum_bins_space(branch_only=True), ["plain", "frontier"]),
}
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
REL_TOL = 1e-12


def run(argv) -> list:
    """[exit code, stdout, stderr] of one in-process ``cbr`` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return [rc, out.getvalue(), err.getvalue()]


def fixture_outputs(name: str) -> dict:
    """Every command's output on fixture ``name``, run from the current
    directory, where its spec is written as ``<name>.json``."""
    path = f"{name}.json"
    Path(path).write_text(emit_spec(load_fixture(name).spec), encoding="utf-8")
    return {cmd: run(args + [path]) for cmd, args in COMMANDS.items()}


def enum_outputs() -> dict:
    """Each ``ENUM_SPECS`` workflow's ``ENUM_COMMANDS`` outputs, run from
    the current directory, where each spec is written as ``<name>.json``."""
    out = {}
    for name, document in ENUM_SPECS.items():
        path = f"{name}.json"
        Path(path).write_text(json.dumps(document(), indent=2) + "\n", encoding="utf-8")
        for cmd, args in ENUM_COMMANDS.items():
            out[f"{name} {cmd}"] = run(args + [path])
    return out


def optimize_outputs() -> dict:
    """Each ``OPTIMIZE_SPECS`` command's output, run from the current
    directory, where each spec is written as ``<name>.json``."""
    out = {}
    for name, (document, commands) in OPTIMIZE_SPECS.items():
        path = f"{name}.json"
        Path(path).write_text(json.dumps(document(), indent=2) + "\n", encoding="utf-8")
        for cmd in commands:
            out[f"{name} {cmd}"] = run(OPTIMIZE_COMMANDS[cmd] + [path])
    return out


def same_tokens(recorded: str, actual: str) -> bool:
    a, b = NUMBER.split(recorded), NUMBER.split(actual)
    if len(a) != len(b):
        return False
    # split() puts the numbers at the odd positions
    return all(
        x == y if i % 2 == 0 else math.isclose(float(x), float(y), rel_tol=REL_TOL)
        for i, (x, y) in enumerate(zip(a, b))
    )


def assert_matches(recorded: list, actual: list) -> None:
    assert actual[0] == recorded[0]
    assert actual[2] == recorded[2]
    assert same_tokens(recorded[1], actual[1]), actual[1]


def test_fixtures_command():
    recorded = json.loads((GOLDEN / "fixtures.json").read_text(encoding="utf-8"))
    assert_matches(recorded, run(["fixtures"]))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_commands(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    recorded = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    actual = fixture_outputs(name)
    assert list(actual) == list(recorded)
    for cmd in COMMANDS:
        assert_matches(recorded[cmd], actual[cmd])


def test_enum_commands(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    recorded = json.loads((GOLDEN / "enumerated.json").read_text(encoding="utf-8"))
    actual = enum_outputs()
    assert list(actual) == list(recorded)
    for cmd, output in actual.items():
        assert_matches(recorded[cmd], output)


def test_optimize_commands(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CBR_SEED", raising=False)
    recorded = json.loads((GOLDEN / "optimize.json").read_text(encoding="utf-8"))
    actual = optimize_outputs()
    assert list(actual) == list(recorded)
    for cmd, output in actual.items():
        assert_matches(recorded[cmd], output)


def test_outputs_do_not_read_the_topological_order(tmp_path, monkeypatch):
    """Every recorded output is the same when the graph takes another
    topological order: networkx's lexicographic one, keyed on reversed
    node names."""
    import networkx as nx

    default, lexicographic = nx.topological_sort, nx.lexicographical_topological_sort
    moved = []  # per graph: whether its order differs from networkx's default

    def reversed_names(g):
        order = list(lexicographic(g, key=lambda name: name[::-1]))
        moved.append(order != list(default(g)))
        return order

    monkeypatch.setattr(nx, "topological_sort", reversed_names)
    test_fixtures_command()
    for name in FIXTURE_NAMES:
        test_fixture_commands(name, tmp_path, monkeypatch)
    test_enum_commands(tmp_path, monkeypatch)
    test_optimize_commands(tmp_path, monkeypatch)
    assert any(moved)


@pytest.mark.parametrize(
    "recorded, actual, same",
    [
        ("B=2.5 bits", "B=2.5000000000001 bits", True),
        ("B=2.5 bits", "B=2.5001 bits", False),
        ("overview,0.5,1e-05", "overview,0.5,1.00000000000001e-05", True),
        ("[ok] edge", "[FAIL] edge", False),
        ("Z3 1", "Z3 1 2", False),
    ],
)
def test_token_comparison(recorded, actual, same):
    assert same_tokens(recorded, actual) is same


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)

    def write(name, value):
        text = json.dumps(value, indent=1, ensure_ascii=False) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")

    os.environ.pop("CBR_SEED", None)  # greedy search uses its documented default seed
    write("fixtures", run(["fixtures"]))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name in FIXTURE_NAMES:
                write(name, fixture_outputs(name))
            write("enumerated", enum_outputs())
            write("optimize", optimize_outputs())
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    sys.exit(record())
