"""The case-study documents ship with the package and are read on demand.

Each fixture is one spec document under ``src/cbr/fixtures/``. A build of
the package carries every document, ``import cbr.cli`` opens none of them,
and a fixture name is looked up in the fixture table before it can name a
file.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cbr import specio
from cbr.specio import FIXTURE_NAMES, load_fixture

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = ROOT / "src" / "cbr" / "fixtures"


def test_documents_are_the_fixture_table():
    """One document per fixture, plus the presenter variant of plot_vs_binary."""
    names = sorted(p.name for p in DOCUMENTS.iterdir())
    assert names == sorted([*(f"{n}.json" for n in FIXTURE_NAMES), "plot_vs_binary_presenter.json"])


def test_build_carries_every_document(tmp_path):
    """``build_py`` of a copy of the project puts every document in the built
    package, and ``cbr fixtures`` run from there prints the recorded output."""
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    lib = tmp_path / "lib"
    build = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "build_py", "--build-lib", str(lib)],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert build.returncode == 0, build.stderr
    built = sorted(p.name for p in (lib / "cbr" / "fixtures").iterdir())
    assert built == sorted(p.name for p in DOCUMENTS.iterdir())

    code = ("import sys, cbr.cli; assert cbr.cli.__file__.startswith(sys.argv[1]);"
            " sys.exit(cbr.cli.main(['fixtures']))")
    env = {**os.environ, "PYTHONPATH": str(lib)}
    run = subprocess.run([sys.executable, "-c", code, str(lib)], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    golden = json.loads((ROOT / "tests" / "golden" / "fixtures.json").read_text(encoding="utf-8"))
    assert [run.returncode, run.stdout, run.stderr] == golden


AUDIT = """
import json, os, sys
where = os.path.join("cbr", "fixtures")
opened = {"import": [], "load": []}
stage = "import"
def hook(event, args):
    if event == "open" and where in str(args[0]):
        opened[stage].append(str(args[0]))
sys.addaudithook(hook)
import cbr.cli
stage = "load"
cbr.cli.load_fixture("readability")
print(json.dumps(opened))
"""


def test_import_opens_no_document():
    """An audit hook on ``open`` sees no document opened by ``import cbr.cli``,
    and sees the one that ``load_fixture`` reads."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", AUDIT], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    opened = json.loads(run.stdout)
    assert opened["import"] == []
    assert [Path(p).name for p in opened["load"]] == ["readability.json"]


@pytest.mark.parametrize("name", ["../x", "../fixtures/share_price_chain", "plot_vs_binary_presenter"])
def test_unknown_name_never_becomes_a_path(name, monkeypatch):
    def refuse(name):
        raise AssertionError(f"opened a document for {name!r}")

    monkeypatch.setattr(specio, "_fixture_text", refuse)
    with pytest.raises(KeyError) as exc:
        load_fixture(name)
    assert exc.value.args == (name,)
