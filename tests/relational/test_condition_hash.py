"""A condition computes its hash once, and that is safe.

Conditions key the statistics and estimator caches, so each one keeps
the hash it computed on first use.  What must hold: equal conditions built apart
hash and compare equal; the kept hash never leaves the process — a
``str`` hash depends on ``PYTHONHASHSEED`` — so a pickled or copied
condition computes its own; and caches still hit on an equal but
distinct condition object.
"""

from __future__ import annotations

import copy
import pickle
import subprocess
import sys

import pytest

from repro.mediator.session import Mediator
from repro.query.sqlparse import parse_fusion_query
from repro.relational.conditions import (
    And,
    Between,
    Comparison,
    FalseCondition,
    InSet,
    IsNull,
    Like,
    Not,
    Or,
    TrueCondition,
)
from repro.relational.parser import parse_condition
from repro.sources import statistics as statistics_module
from repro.sources.generators import dmv_fig1
from repro.sources.statistics import ExactStatistics

SQL = "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"


def build(kind: str):
    """A fresh condition of each node kind; two calls give equal values."""
    return {
        "comparison": lambda: Comparison("V", "=", "dui"),
        "between": lambda: Between("D", 1990, 1995),
        "in": lambda: InSet("V", ["sp", "dui"]),
        "like": lambda: Like("L", "J%"),
        "is null": lambda: IsNull("D", negated=True),
        "and": lambda: And((Comparison("V", "=", "dui"), InSet("L", ["J55", "T21"]))),
        "or": lambda: Or((Comparison("D", "<", 3), Like("V", "s_"))),
        "not": lambda: Not(Comparison("V", "!=", "sp")),
        "true": TrueCondition,
        "false": FalseCondition,
        "parsed": lambda: parse_condition("V = 'dui' AND (D > 3 OR L LIKE 'J%')"),
    }[kind]()


KINDS = ["comparison", "between", "in", "like", "is null", "and", "or", "not",
         "true", "false", "parsed"]


@pytest.mark.parametrize("kind", KINDS)
def test_equal_conditions_built_apart_hash_and_compare_equal(kind):
    first, second = build(kind), build(kind)
    assert first is not second
    assert hash(first) == hash(first)  # the kept hash answers again
    assert hash(first) == hash(second) and first == second
    assert {first: "x"}[second] == "x"


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("clone", [pickle.loads, copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_a_pickle_or_copy_carries_no_kept_hash(kind, clone):
    original = build(kind)
    expected = hash(original)
    payload = pickle.dumps(original) if clone is pickle.loads else original
    cloned = clone(payload)
    assert "_hash" not in vars(cloned)
    assert cloned == original and hash(cloned) == expected


def test_a_condition_pickled_in_another_process_hashes_like_a_local_one():
    script = (
        "import pickle, sys\n"
        "from repro.relational.parser import parse_condition\n"
        "condition = parse_condition(\"V = 'dui' AND L LIKE 'J%'\")\n"
        "hash(condition)\n"
        "sys.stdout.buffer.write(pickle.dumps(condition))\n"
    )
    payload = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONHASHSEED": "12345", "PYTHONPATH": ":".join(sys.path)},
        capture_output=True,
        check=True,
    ).stdout
    remote = pickle.loads(payload)
    local = parse_condition("V = 'dui' AND L LIKE 'J%'")
    assert hash(remote) == hash(local)
    assert {local: 1}[remote] == 1


def test_exact_statistics_hit_on_an_equal_but_distinct_condition(monkeypatch):
    federation, __ = dmv_fig1()
    statistics = ExactStatistics(federation)
    first = statistics.selectivity("R1", parse_condition("V = 'dui'"))
    scans = []
    monkeypatch.setattr(
        statistics_module,
        "_item_fraction",
        lambda *args: scans.append(args) or 0.0,
    )
    assert statistics.selectivity("R1", parse_condition("V = 'dui'")) == first
    assert scans == []


def test_the_plan_cache_hits_on_an_equal_but_distinct_query():
    federation, __ = dmv_fig1()
    mediator = Mediator(federation, plan_cache=True)
    queries = [parse_fusion_query(SQL, view_name=federation.name) for __ in range(2)]
    assert queries[0] is not queries[1]
    assert queries[0].conditions[0] is not queries[1].conditions[0]
    first, second = map(mediator.answer, queries)
    assert mediator.plan_cache_hits == 1
    assert second.plan is first.plan and second.items == first.items
