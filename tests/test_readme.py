"""README's "Library use" snippet runs as written, on a shorter track."""

from __future__ import annotations

import contextlib
import io
import json
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


def _read_through_the_cli(cfg: dict) -> dict:
    from ttfilter.cli import _experiment_spec, build_parser

    spec = _experiment_spec(build_parser().parse_args(["benchmark"]), cfg,
                            ("tt-nonlinear", "tt-linear", "bpf"))
    scn = spec.scenario
    return {
        "scenario": ((scn.grid.rows, scn.grid.cols, scn.grid.spacing), scn.meas,
                     scn.motion, scn.bounds, scn.initial_states.tolist()),
        "filter": spec.filter_config,
        "bpf": spec.bpf_config,
        "experiment": (spec.tracks, spec.steps, spec.seed, spec.variants, spec.jobs),
    }


def test_configuration_block_is_what_an_empty_config_gives():
    # the block restates the dataclass defaults; it must not drift from them
    section = README.read_text().split("## Configuration", 1)[1]
    block = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    assert set(block) == {"scenario", "filter", "bpf", "experiment"}
    assert _read_through_the_cli(block) == _read_through_the_cli({})
