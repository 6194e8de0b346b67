"""The README's minimal session runs and prints what its comments say.

The block is read from README.md and executed as written, so an edit to
either the README or the API that breaks the first example a reader runs
fails here.
"""

import ast
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def minimal_session():
    text = README.read_text()
    found = re.search(r"A minimal session:\n\n```python\n(.*?)```", text, re.S)
    assert found, "README.md has no minimal-session python block"
    return found.group(1)


def test_minimal_session_prints_what_its_comments_say(capsys):
    exec(compile(minimal_session(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    # constant rank 6, cancelling
    report = ast.literal_eval(lines[0])
    assert report["common_rank"] == 6
    assert report["is_constant_rank"] and report["is_cancelling"]
    # the kms_sym constant is finite and positive
    max_ratio = float(lines[1])
    assert math.isfinite(max_ratio) and max_ratio > 0
    # inf, 0.0
    assert lines[2].split() == ["inf", "0.0"]
