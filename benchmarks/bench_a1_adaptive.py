"""A1 — adaptive (interleaved) execution vs static plans."""

from __future__ import annotations

from repro.mediator.reference import reference_answer
from repro.mediator.session import Mediator


def test_adaptive_execute(benchmark, medium_kit):
    kit = medium_kit
    mediator = Mediator(kit.federation)

    def run():
        kit.federation.reset_traffic()
        return mediator.answer_adaptive(kit.query).items

    assert benchmark(run) == reference_answer(kit.federation, kit.query)


def test_adaptive_execute_heterogeneous(benchmark, hetero_kit):
    kit = hetero_kit
    mediator = Mediator(kit.federation)

    def run():
        kit.federation.reset_traffic()
        return mediator.answer_adaptive(kit.query).items

    assert benchmark(run) == reference_answer(kit.federation, kit.query)


def test_a1_report(benchmark, report_runner):
    report = report_runner(benchmark, "A1")
    assert "adaptive/static" in report
    assert "False" not in report
