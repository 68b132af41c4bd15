"""README's "Library use" snippet runs as written, on a shorter track."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_snippet_runs():
    text = README.read_text()
    section = text.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "simulate(scenario, 40," in code
    code = code.replace("simulate(scenario, 40,", "simulate(scenario, 3,")
    out = io.StringIO()
    scope: dict = {}
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), scope)
    assert scope["record"].omat.shape == (3,)
    omat_mean, statistic = map(float, out.getvalue().split())
    assert 0.0 <= omat_mean < 20.0 and statistic > 0.0
