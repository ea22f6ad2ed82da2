"""One fault setup, declared once: the ``Faults`` value and its injector.

``Faults(wire, data, churn).injector(seed, at_s)`` is the only place wire
profiles, a churn wave and payload tampering are combined.  The golden
table below was recorded from the injector the serving tier built per
query before ``Faults`` existed (its ``profile_for`` of every source and
of an absent one, and its seed), over wire none / one / map × data
none / one / map × churn none / inside / outside its window; the value
must reproduce it.
"""

from __future__ import annotations

import ast
import collections
import inspect
import pathlib
from dataclasses import replace
from itertools import product

import pytest

import repro
from repro.cli import _build_parser, _faults
from repro.errors import CostModelError, ServiceError
from repro.runtime.faults import (
    ChurnWave,
    DataFaultProfile,
    FaultProfile,
    Faults,
)
from repro.serve import MediatorService, derive_seed
from repro.sources.generators import dmv_fig1

SRC = pathlib.Path(repro.__file__).parent

#: The profiles a table entry is built from, by label.
WIRE_BASES = {
    "-": FaultProfile.none(),
    "W": FaultProfile(transient_rate=0.2),
    "M1": FaultProfile(transient_rate=0.1),
    "M2": FaultProfile.degraded(0.5),
    "C": FaultProfile.flaky(0.6),
}
DATAS = {
    "-": None,
    "D": DataFaultProfile(stale_rate=0.4),
    "D1": DataFaultProfile.corrupting(1.0),
    "D3": DataFaultProfile(truncated_rate=0.3),
    "X": DataFaultProfile(duplicate_rate=0.5),
}
WIRE = {
    "none": None,
    "one": WIRE_BASES["W"],
    # R1's wire profile already tampers: a global data profile leaves it.
    "map": {"R1": replace(WIRE_BASES["M1"], data=DATAS["X"]), "R2": WIRE_BASES["M2"]},
}
DATA = {"none": None, "one": DATAS["D"], "map": {"R1": DATAS["D1"], "R3": DATAS["D3"]}}
WAVE = ChurnWave(1.0, 3.0, sources=("R2", "R3"), rate=0.6)
#: churn case -> (wave, arrival time); the window is [1.0, 3.0).
CHURN = {"none": (None, 2.0), "inside": (WAVE, 1.0), "outside": (WAVE, 3.0)}
SERVICE_SEED, SEQ = 7, 3
GOLDEN_SEED = 7023779

#: (wire, data, churn) -> "WIRE+DATA" labels of R1, R2, R3 and an absent source.
GOLDEN = {
    ("none", "none", "none"): "-+- -+- -+- -+-",
    ("none", "none", "inside"): "-+- C+- C+- -+-",
    ("none", "none", "outside"): "-+- -+- -+- -+-",
    ("none", "one", "none"): "-+D -+D -+D -+D",
    ("none", "one", "inside"): "-+D C+D C+D -+D",
    ("none", "one", "outside"): "-+D -+D -+D -+D",
    ("none", "map", "none"): "-+D1 -+- -+D3 -+-",
    ("none", "map", "inside"): "-+D1 C+- C+D3 -+-",
    ("none", "map", "outside"): "-+D1 -+- -+D3 -+-",
    ("one", "none", "none"): "W+- W+- W+- W+-",
    ("one", "none", "inside"): "W+- C+- C+- W+-",
    ("one", "none", "outside"): "W+- W+- W+- W+-",
    ("one", "one", "none"): "W+D W+D W+D W+D",
    ("one", "one", "inside"): "W+D C+D C+D W+D",
    ("one", "one", "outside"): "W+D W+D W+D W+D",
    ("one", "map", "none"): "W+D1 W+- W+D3 W+-",
    ("one", "map", "inside"): "W+D1 C+- C+D3 W+-",
    ("one", "map", "outside"): "W+D1 W+- W+D3 W+-",
    ("map", "none", "none"): "M1+X M2+- -+- -+-",
    ("map", "none", "inside"): "M1+X C+- C+- -+-",
    ("map", "none", "outside"): "M1+X M2+- -+- -+-",
    ("map", "one", "none"): "M1+X M2+D -+D -+D",
    ("map", "one", "inside"): "M1+X C+D C+D -+D",
    ("map", "one", "outside"): "M1+X M2+D -+D -+D",
    ("map", "map", "none"): "M1+D1 M2+- -+D3 -+-",
    ("map", "map", "inside"): "M1+D1 C+- C+D3 -+-",
    ("map", "map", "outside"): "M1+D1 M2+- -+D3 -+-",
}


def _profile(label: str) -> FaultProfile:
    wire, data = label.split("+")
    return replace(WIRE_BASES[wire], data=DATAS[data])


@pytest.mark.parametrize("case", list(GOLDEN), ids="-".join)
def test_injector_reproduces_the_golden_table(case):
    wire, data, churn = case
    wave, at_s = CHURN[churn]
    faults = Faults(wire=WIRE[wire], data=DATA[data], churn=wave)
    injector = faults.injector(derive_seed(SERVICE_SEED, SEQ), at_s)
    got = [injector.profile_for(name) for name in ("R1", "R2", "R3", "absent")]
    assert got == [_profile(label) for label in GOLDEN[case].split()]
    assert injector.seed == GOLDEN_SEED


def test_the_table_covers_every_combination():
    assert set(GOLDEN) == set(product(WIRE, DATA, CHURN))


class TestFaultsValue:
    def test_default_injects_nothing(self):
        injector = Faults().injector(5)
        assert injector.seed == 5
        assert injector.profile_for("R1") == FaultProfile.none()

    def test_maps_are_copied(self):
        wire = {"R1": FaultProfile.flaky(1.0)}
        faults = Faults(wire=wire)
        wire["R2"] = FaultProfile.flaky(1.0)
        assert faults.injector(0).profile_for("R2") == FaultProfile.none()

    def test_each_injector_is_fresh(self):
        faults = Faults(wire=FaultProfile.flaky(0.5))
        assert faults.injector(1) is not faults.injector(1)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (
                {"wire": 0.2},
                "wire must be a FaultProfile, a {source: profile} map or None, got 0.2",
            ),
            ({"wire": {"R1": 0.2}}, "wire must map sources to a FaultProfile, got {'R1': 0.2}"),
            (
                {"data": FaultProfile.none()},
                "data must be a DataFaultProfile, a {source: profile} map or None, "
                f"got {FaultProfile.none()!r}",
            ),
            (
                {"data": {"R1": FaultProfile.none()}},
                "data must map sources to a DataFaultProfile, "
                f"got {{'R1': {FaultProfile.none()!r}}}",
            ),
            ({"churn": "R2"}, "churn must be a ChurnWave or None, got 'R2'"),
        ],
    )
    def test_a_wrong_type_is_refused_at_construction(self, kwargs, message):
        with pytest.raises(CostModelError) as raised:
            Faults(**kwargs)
        assert str(raised.value) == message

    def test_churn_wave_is_one_class_everywhere(self):
        assert repro.ChurnWave is repro.serve.ChurnWave is ChurnWave
        assert repro.Faults is repro.runtime.Faults is Faults


class TestServiceTakesFaults:
    def test_a_bare_profile_is_refused_at_construction(self):
        federation, __ = dmv_fig1()
        with pytest.raises(ServiceError) as raised:
            MediatorService(federation, faults=FaultProfile.flaky(0.2))
        assert str(raised.value) == (
            f"faults must be a Faults value, got {FaultProfile.flaky(0.2)!r}"
        )

    def test_each_query_realises_the_value_with_its_seed_and_arrival(self, monkeypatch):
        calls = []
        realise = Faults.injector

        def recording(self, seed, at_s=0.0):
            calls.append((seed, at_s))
            return realise(self, seed, at_s)

        monkeypatch.setattr(Faults, "injector", recording)
        federation, query = dmv_fig1()
        service = MediatorService(federation, seed=SERVICE_SEED, faults=Faults(churn=WAVE))
        for at_s in (0.5, 1.5):
            service.submit(query.to_sql(), at_s=at_s)
        service.run_until_idle()
        assert calls == [(derive_seed(SERVICE_SEED, 0), 0.5), (derive_seed(SERVICE_SEED, 1), 1.5)]


class TestCliBuildsOneValue:
    SQL = "SELECT u1.L FROM U u1 WHERE u1.V = 'dui'"

    def test_query_and_workload_flags_build_the_same_value(self):
        flags = ["--fault-rate", "0.2", "--data-faults", "R1:stale=0.4"]
        query = _build_parser().parse_args(["query", "spec.json", self.SQL, *flags])
        workload = _build_parser().parse_args(
            ["workload", "spec.json", self.SQL, "--churn", "1:3:R2,R3:0.6", *flags]
        )
        expected = Faults(
            wire=FaultProfile.flaky(0.2), data={"R1": DataFaultProfile(stale_rate=0.4)}
        )
        assert _faults(query) == expected
        assert _faults(workload) == replace(expected, churn=WAVE)


def _add_argument_flags(tree: ast.AST) -> collections.Counter:
    return collections.Counter(
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and str(node.args[0].value).startswith("--")
    )


def _constructs_an_injector(node: ast.AST) -> bool:
    """A call of ``FaultInjector`` or of one of its methods
    (``FaultInjector.none()``), however it was imported."""
    return isinstance(node, ast.Call) and "FaultInjector" in ast.unparse(node.func).split(".")


class TestWrittenInOnePlace:
    def test_every_cli_flag_is_declared_once_but_breaker(self):
        # --breaker stays per subcommand: off/default/aggressive on
        # query, a bare switch on workload.
        counts = _add_argument_flags(ast.parse((SRC / "cli.py").read_text()))
        assert {flag: n for flag, n in counts.items() if n != 1} == {"--breaker": 2}

    def test_the_service_takes_no_separate_churn_or_data_faults(self):
        parameters = inspect.signature(MediatorService.__init__).parameters
        assert "faults" in parameters
        assert not {"churn", "data_faults"} & parameters.keys()

    def test_no_serving_module_and_not_the_cli_builds_an_injector(self):
        paths = sorted((SRC / "serve").glob("*.py")) + [SRC / "cli.py"]
        constructions = [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for path in paths
            for node in ast.walk(ast.parse(path.read_text()))
            if _constructs_an_injector(node)
        ]
        assert constructions == []

    def test_the_scanner_sees_a_construction(self):
        assert _constructs_an_injector(ast.parse("FaultInjector(p, seed=1)").body[0].value)
        assert _constructs_an_injector(ast.parse("faults.FaultInjector()").body[0].value)
        assert _constructs_an_injector(ast.parse("FaultInjector.none()").body[0].value)
        assert not _constructs_an_injector(ast.parse("faults.injector(1)").body[0].value)
