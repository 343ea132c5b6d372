"""The README's library quickstart runs as written and prints what its
comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

import polyliouville

README = Path(__file__).parents[1] / "README.md"


def test_quickstart_prints_its_commented_values():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    code = blocks[0]
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    # a comment with "..." gives the start of the line that print writes:
    # "reached_end 0.2133...", "nonstandard (1, -7.63...)"
    comments = [line.split("#", 1)[1].strip() for line in prints]
    expected = {i: c.split("...")[0] for i, c in enumerate(comments) if "..." in c}
    assert len(expected) == 2
    env = dict(os.environ, PYTHONPATH=str(Path(polyliouville.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.splitlines()
    assert len(printed) == len(prints)
    for i, prefix in expected.items():
        assert printed[i].startswith(prefix), (printed[i], prefix)
