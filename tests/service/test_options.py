"""ExecutionOptions: the unified options surface."""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro import ExecutionOptions, PdwSession
from repro.common.errors import ReproError
from repro.service.options import PRIORITY_CLASSES, normalize_hints


class TestDefaults:
    def test_defaults(self):
        opts = ExecutionOptions()
        assert opts.executor == "numpy"
        assert opts.parallel is False
        assert opts.trace is True
        assert opts.profile is False
        assert opts.hints is None
        assert opts.use_plan_cache is True
        assert opts.priority == "normal"
        assert opts.tenant == "default"
        assert opts.timeout_seconds is None

    def test_frozen(self):
        opts = ExecutionOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.executor = "reference"

    def test_equal_and_hashable(self):
        a = ExecutionOptions(hints={"orders": "replicate"})
        b = ExecutionOptions(hints=(("orders", "replicate"),))
        assert a == b
        assert hash(a) == hash(b)

    def test_unknown_priority_rejected(self):
        with pytest.raises(ReproError, match="priority"):
            ExecutionOptions(priority="urgent")

    def test_negative_timeout_rejected(self):
        with pytest.raises(ReproError, match="timeout"):
            ExecutionOptions(timeout_seconds=-1.0)

    def test_the_eight_settable_fields(self):
        assert [f.name for f in dataclasses.fields(ExecutionOptions)] == [
            "executor", "trace", "profile", "hints", "use_plan_cache",
            "priority", "tenant", "timeout_seconds"]

    def test_priority_rank_order(self):
        ranks = [ExecutionOptions(priority=p).priority_rank
                 for p in ("interactive", "normal", "batch")]
        assert ranks == sorted(ranks)
        assert len(set(ranks)) == len(PRIORITY_CLASSES)


class TestHints:
    def test_mapping_normalized_sorted_lowercase(self):
        normalized = normalize_hints({"Orders": "replicate",
                                      "customer": "shuffle"})
        assert normalized == (("customer", "shuffle"),
                              ("orders", "replicate"))

    def test_empty_is_none(self):
        assert normalize_hints({}) is None
        assert normalize_hints(None) is None

    def test_hints_dict_round_trip(self):
        opts = ExecutionOptions(hints={"orders": "replicate"})
        assert opts.hints_dict == {"orders": "replicate"}
        assert ExecutionOptions().hints_dict is None

    def test_with_hints_and_override(self):
        base = ExecutionOptions()
        hinted = base.with_hints({"orders": "replicate"})
        assert hinted.hints == (("orders", "replicate"),)
        assert base.hints is None  # frozen: original untouched
        overridden = hinted.override(tenant="acme", priority="batch")
        assert overridden.tenant == "acme"
        assert overridden.hints == hinted.hints


class TestSessionOptionsIntegration:
    def test_options_spelling_is_clean(self, tpch):
        appliance, shell = tpch
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session = PdwSession(
                appliance=appliance, shell=shell,
                options=ExecutionOptions(
                    hints={"customer": "replicate"}))
            result = session.run(
                "SELECT COUNT(*) AS n FROM orders, customer "
                "WHERE o_custkey = c_custkey")
        assert result.rows

    def test_run_attaches_plan_and_timing(self, tpch):
        appliance, shell = tpch
        session = PdwSession(appliance=appliance, shell=shell,
                             options=ExecutionOptions(trace=False))
        result = session.run("SELECT COUNT(*) AS n FROM lineitem")
        assert result.plan is not None
        assert result.plan.dsql_plan.steps
        assert result.cache_hit is False
        assert result.timing is not None
        assert result.timing.compile_seconds > 0
        assert result.timing.execute_seconds > 0
        assert (result.timing.total_seconds
                >= result.timing.compile_seconds)

    def test_result_iter_and_len(self, tpch):
        appliance, shell = tpch
        session = PdwSession(appliance=appliance, shell=shell,
                             options=ExecutionOptions(trace=False))
        result = session.run(
            "SELECT n_name FROM nation ORDER BY n_name LIMIT 5")
        assert len(result) == 5
        assert list(result) == result.rows
