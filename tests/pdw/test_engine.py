"""PdwEngine façade tests (the Figure 2 pipeline wiring)."""

import pytest

from repro.optimizer import search
from repro.optimizer.memo_xml import memo_from_xml
from repro.pdw.engine import PdwEngine

SQL = ("SELECT c_name FROM customer, orders "
       "WHERE c_custkey = o_custkey")


@pytest.fixture()
def engine(mini_shell):
    return PdwEngine(mini_shell)


class TestCompile:
    def test_produces_all_artifacts(self, engine):
        compiled = engine.compile(SQL)
        assert compiled.serial.best_serial_plan is not None
        assert compiled.memo_xml.startswith("<memo")
        assert compiled.pdw_plan.root is not None
        assert compiled.dsql_plan.steps

    def test_xml_is_the_real_interface(self, engine, mini_shell):
        """The PDW memo must be reconstructible from the XML alone."""
        compiled = engine.compile(SQL)
        reparsed = memo_from_xml(compiled.memo_xml, mini_shell)
        assert len(reparsed.memo.canonical_groups()) == len(
            compiled.pdw_memo.canonical_groups())
        assert reparsed.root_group == compiled.pdw_root_group

    def test_plan_cost_property(self, engine):
        compiled = engine.compile(SQL)
        assert compiled.plan_cost == compiled.pdw_plan.cost

    def test_explain_sections(self, engine):
        text = engine.compile(SQL).explain()
        assert "Distributed plan" in text
        assert "DSQL plan" in text
        assert "DMS cost" in text

    def test_skip_serial_extraction(self, engine, monkeypatch):
        """The PDW side reads the MEMO, so compiling extracts no serial
        plan; the first read of it does."""
        calls = []
        extract = search.extract_best_serial_plan
        monkeypatch.setattr(search, "extract_best_serial_plan",
                            lambda *args: calls.append(args) or extract(*args))
        compiled = engine.compile(SQL)
        assert compiled.dsql_plan.steps and calls == []
        assert compiled.serial_plan is compiled.serial.best_serial_plan
        assert len(calls) == 1

    def test_dsql_order_and_limit_carried(self, engine):
        compiled = engine.compile(SQL + " ORDER BY c_name DESC LIMIT 3")
        plan = compiled.dsql_plan
        assert plan.limit == 3
        assert plan.order_by == [("c_name", False)]

    def test_compile_is_deterministic(self, engine):
        first = engine.compile(SQL)
        second = engine.compile(SQL)
        assert first.pdw_plan.cost == second.pdw_plan.cost
        assert first.dsql_plan.describe() == second.dsql_plan.describe()

    def test_replicated_only_query_single_step(self, engine):
        compiled = engine.compile("SELECT n_name FROM nation")
        assert len(compiled.dsql_plan.steps) == 1
