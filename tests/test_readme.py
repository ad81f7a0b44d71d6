"""Every ``python`` code block of README.md runs as written.

The blocks run in a new interpreter, with the ``cbr`` under test on the
path (see conftest.py), so the documented library API stays in step with
the code.
"""

import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list:
    """(line of the opening fence, code) of each ```python block."""
    text = README.read_text(encoding="utf-8")
    return [
        (text.count("\n", 0, m.start()) + 1, m.group(1))
        for m in re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S)
    ]


BLOCKS = python_blocks()

# one interpreter runs every block, each in a fresh namespace; a traceback
# names a block by the line of its opening fence
RUN = """
import sys
args = sys.argv[1:]
for line, code in zip(args[::2], args[1::2]):
    exec(compile(code, f"README.md, block at line {line}", "exec"), {"__name__": "__main__"})
"""


def test_python_blocks_run(tmp_path):
    assert BLOCKS
    args = [str(part) for block in BLOCKS for part in block]
    proc = subprocess.run([sys.executable, "-c", RUN, *args], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
