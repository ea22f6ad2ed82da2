"""Adaptive execution, pinned byte for byte.

A1's four stage logs (ordering, per-source choices, estimated and
actual cost as ``float.hex``, input and output sizes, early stop), the
``repro query --adaptive`` stdout on Fig. 1 and on its 2x replicated
federation (the same bytes: stages query no mirror), and the stdout of ``examples/adaptive_mediation.py``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.bench.extensions import adaptive_scenarios
from repro.cli import main
from repro.io import save_federation
from repro.mediator.session import Mediator
from repro.sources.generators import dmv_fig1, replicate_federation

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "adaptive_mediation.py"

DMV_SQL = (
    "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L "
    "AND u1.V = 'dui' AND u2.V = 'sp'"
)

#: scenario -> (terminated_early, stages_skipped, [(condition, choices,
#: estimated_cost.hex(), actual_cost.hex(), input_size, output_size)])
A1_STAGES = {
    "oracle estimates": (
        False,
        0,
        [
            ("score >= 913", "S000:sq S001:sq S002:sq S003:sq S004:sq",
             "0x1.6800000000000p+7", "0x1.6800000000000p+7", 0, 118),
            ("category = 'cat00'", "S000:sq S001:sq S002:sq S003:sq S004:sq",
             "0x1.6200000000000p+8", "0x1.6200000000000p+8", 118, 80),
            ("region IN ('central', 'west')", "S000:sjq S001:sq S002:sq S003:sjq S004:sjq",
             "0x1.03ac8590b2164p+9", "0x1.6a00000000000p+8", 80, 77),
        ],
    ),
    "sampled estimates (10%)": (
        False,
        0,
        [
            ("score < 76", "S000:sq S001:sq S002:sq S003:sq S004:sq",
             "0x1.7dc1705c1705bp+6", "0x1.6200000000000p+7", 0, 111),
            ("category = 'cat04'", "S000:sq S001:sq S002:sq S003:sq S004:sq",
             "0x1.d911f26f7b0ccp+6", "0x1.4e00000000000p+7", 111, 36),
            ("year BETWEEN 1994 AND 1996", "S000:sjq S001:sjq S002:sq S003:sjq S004:sq",
             "0x1.e4e2506aa58b6p+7", "0x1.e600000000000p+7", 36, 32),
        ],
    ),
    "correlated conditions": (
        False,
        0,
        [
            ("V = 'dui'", "R1:sq R2:sq", "0x1.b800000000000p+6", "0x1.b800000000000p+6", 0, 100),
            ("V = 'sp'", "R1:sq R2:sq", "0x1.a400000000000p+7", "0x1.a400000000000p+7", 100, 100),
        ],
    ),
    "empty answer (early stop)": (
        True,
        2,
        [
            ("V = 'nonexistent'", "R1:sq R2:sq",
             "0x1.4000000000000p+3", "0x1.4000000000000p+3", 0, 0),
        ],
    ),
}

FIG1_STDOUT = """\
stage 1: V = 'dui' [R1:sq, R2:sq, R3:sq] -> 3 items, cost 33.0
stage 2: V = 'sp' [R1:sq, R2:sq, R3:sq] -> 2 items, cost 35.0
answer: J55, T21
2 items, actual cost 68.0, 2 stages
"""

EXAMPLE_STDOUT = """\
200 drivers truly match all three conditions; the independence chain predicts 31.1
sampled lift(dui, sp) = 1.50; corrected prediction 94.1

strategy                                  actual cost
static SJA (independence estimates)             990.0
static SJA (correlation-corrected)              990.0
adaptive executor (observes sizes)              830.0

adaptive stage log:
  stage 1: V = 'dui'    via sq      input   0 -> output 200  (cost 210.0)
  stage 2: D >= 1996    via sq      input 200 -> output 200  (cost 210.0)
  stage 3: V = 'sp'     via sq      input 200 -> output 200  (cost 410.0)

The adaptive executor wins without any correlation knowledge: it saw the real X_i, \
pruned confirmed items within stages, and picked each next stage accordingly.
"""


def answer_adaptive(federation, query, statistics):
    return Mediator(federation, statistics=statistics).answer_adaptive(query)


@pytest.mark.parametrize("label", list(A1_STAGES))
def test_a1_stage_logs(label):
    federation, query, statistics = adaptive_scenarios()[label]
    result = answer_adaptive(federation, query, statistics)
    stages = [
        (
            stage.condition.to_sql(),
            " ".join(f"{source}:{choice}" for source, choice in stage.choices.items()),
            stage.estimated_cost.hex(),
            stage.actual_cost.hex(),
            stage.input_size,
            stage.output_size,
        )
        for stage in result.stages
    ]
    assert (result.terminated_early, result.stages_skipped, stages) == A1_STAGES[label]


@pytest.mark.parametrize("replicas", [1, 2], ids=["fig1", "fig1x2"])
def test_cli_adaptive_stdout(tmp_path, capsys, replicas):
    # Stages plan over one source per replica group: mirrors are
    # failover capacity, so the 2x federation prints Fig. 1's stages.
    federation = dmv_fig1()[0]
    if replicas > 1:
        federation = replicate_federation(federation, replicas)
    spec = tmp_path / "spec.json"
    save_federation(federation, spec)
    assert main(["query", str(spec), DMV_SQL, "--adaptive"]) == 0
    assert capsys.readouterr().out == FIG1_STDOUT


def test_example_stdout(capsys):
    spec = importlib.util.spec_from_file_location("adaptive_mediation", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out == EXAMPLE_STDOUT
