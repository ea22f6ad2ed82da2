"""Unit tests for the exception hierarchy."""

from __future__ import annotations

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize(
        "exception_class",
        [
            errors.SchemaError,
            errors.ConditionError,
            errors.ParseError,
            errors.QueryError,
            errors.NotAFusionQueryError,
            errors.SourceError,
            errors.CapabilityError,
            errors.UnknownSourceError,
            errors.StatisticsError,
            errors.CostModelError,
            errors.PlanValidationError,
            errors.OptimizationError,
            errors.ExecutionError,
        ],
    )
    def test_all_derive_from_fusion_error(self, exception_class):
        assert issubclass(exception_class, errors.FusionError)

    def test_not_a_fusion_query_is_a_query_error(self):
        assert issubclass(errors.NotAFusionQueryError, errors.QueryError)

    def test_capability_error_is_a_source_error(self):
        assert issubclass(errors.CapabilityError, errors.SourceError)

    def test_one_catch_at_the_api_boundary(self):
        """The design promise: one except clause suffices."""
        with pytest.raises(errors.FusionError):
            raise errors.PlanValidationError("boom")


class TestPayloads:
    def test_parse_error_carries_position(self):
        error = errors.ParseError("bad token", text="a = $", position=4)
        assert error.position == 4
        assert "offset 4" in str(error)
        assert "a = $" in str(error)

    def test_parse_error_without_position(self):
        error = errors.ParseError("generic")
        assert error.position is None
        assert str(error) == "generic"
