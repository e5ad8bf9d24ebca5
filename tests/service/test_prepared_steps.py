"""A plan-cache hit is a lex plus a value bind.

A DSQL step is SQL *text* handed to each node's DBMS, which keeps the
compiled statement (paper §2.4/§3.4): here a template's steps are
parsed and bound once, at its first execution, and kept on the template
(:mod:`repro.appliance.prepared`); a hit finds its template from the
client text's skeleton alone and swaps its literal values into the
prepared trees' slots.  These tests hold that together: the hit path's
parse/bind counts (none, whatever the literals), the memos it must keep
bounded, the step text it still renders against the ``rewrite_literals``
+ rename reference, the rows a swapped tree returns against the oracle,
and two plans emitting one step text over different temp schemas.
"""

from __future__ import annotations

import datetime
import itertools
import re
import sys
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

import repro.sql.parser as sql_parser
from repro.algebra.expressions import ColumnVar
from repro.algebra.properties import hashed_on
from repro.appliance import prepared as prepared_module
from repro.appliance.runner import DsqlRunner, run_reference
from repro.catalog.schema import Column, TableDef, hash_distributed
from repro.common.types import INTEGER
from repro.optimizer.binder import Binder
from repro.pdw.dms import DataMovement, DmsOperation
from repro.pdw.dsql import DsqlPlan, DsqlStep, StepKind
from repro.service import PdwService
from repro.service import plan_cache
from repro.service.plan_cache import (
    bind_params,
    instantiate_plan,
    parameterize,
    rewrite_literals,
)
from repro.sql.lexer import TokenType, skeleton, tokenize
from repro.sql.parser import parse_query
from repro.vector import np_kernels
from repro.workloads.tpch_queries import TPCH_QUERIES

from tests.conftest import canonical

#: Multi-step shapes: Q3's Return step joins a temp with base tables,
#: the GROUP BY's reads its temp only, the join filters both sides.
SHAPES = [
    TPCH_QUERIES["Q3"].replace("1995-03-15", "{date}"),
    "SELECT o_custkey, COUNT(*) AS n FROM orders "
    "WHERE o_orderdate < DATE '{date}' GROUP BY o_custkey",
    "SELECT c_custkey, o_orderdate FROM orders, customer "
    "WHERE o_custkey = c_custkey AND o_orderdate > DATE '{date}'",
]
SEEN = ("1995-03-15", "1996-07-01")


@pytest.fixture()
def fresh_service(tpch):
    appliance, shell = tpch
    service = PdwService(appliance=appliance, shell=shell)
    yield service
    service.close()


@pytest.fixture()
def counts(monkeypatch):
    """Calls of ``parse_query`` (every importer reaches ``parser.parse``)
    and ``Binder.bind`` while the fixture is live."""
    seen = SimpleNamespace(parses=0, binds=0)
    parse, bind = sql_parser.parse, Binder.bind

    def counting_parse(*args):
        seen.parses += 1
        return parse(*args)

    def counting_bind(self, statement):
        seen.binds += 1
        return bind(self, statement)

    monkeypatch.setattr(sql_parser, "parse", counting_parse)
    monkeypatch.setattr(Binder, "bind", counting_bind)
    return seen


# -- (a) what a hit parses and binds ----------------------------------------------

def test_hit_with_seen_literals_parses_and_binds_nothing(
        fresh_service, counts):
    statements = [shape.format(date=date)
                  for shape in SHAPES for date in SEEN]
    for sql in statements:  # warm-up: compile, prepare, first sights
        fresh_service.execute(sql)
    counts.parses = counts.binds = 0
    for sql in statements * 3:
        assert fresh_service.execute(sql).cache_hit
    assert (counts.parses, counts.binds) == (0, 0)


def test_hit_with_new_literals_parses_and_binds_nothing(
        fresh_service, counts):
    for shape in SHAPES:
        template = fresh_service.execute(shape.format(date=SEEN[0])).plan
        counts.parses = counts.binds = 0
        result = fresh_service.execute(shape.format(date="1997-02-03"))
        assert result.cache_hit and result.plan is template
        assert (counts.parses, counts.binds) == (0, 0)
        # The steps the literal reaches ran a copy of their tree with
        # the new date in its slot; the others ran the prepared tree.
        reached = [step for step in template.prepared.steps
                   if step.copies]
        assert 0 < len(reached) < len(template.prepared.steps)


def test_ten_thousand_distinct_literals_stay_bounded(fresh_service,
                                                     counts):
    """Every hit carries a literal never seen before: no parse, no
    bind, and every memo on the way stays within its bound."""
    shape = "SELECT r_name FROM region WHERE r_regionkey < {}"
    template = fresh_service.execute(shape.format(10_000)).plan
    skeletons = len(plan_cache._SKELETONS)
    counts.parses = counts.binds = 0
    for value in range(10_000):
        assert fresh_service.execute(shape.format(value)).cache_hit
    assert (counts.parses, counts.binds) == (0, 0)
    assert len(plan_cache._SKELETONS) == skeletons
    assert all(step.copies <= prepared_module.COPY_LIMIT
               for step in template.prepared.steps)
    assert len(np_kernels._CACHE) <= np_kernels._CACHE_LIMIT
    assert fresh_service.plan_cache.stats()["shape_parses"] == 1


def test_a_literal_folded_away_recompiles_instead_of_swapping(
        fresh_service, counts):
    """``SELECT 1`` inside EXISTS becomes a semi join: the literal has
    no slot, so a hit changing it recompiles privately (the ambiguous
    path) rather than run a tree that cannot carry it."""
    sql = ("SELECT o_orderpriority FROM orders WHERE EXISTS (SELECT {} "
           "FROM lineitem WHERE l_orderkey = o_orderkey)")
    fresh_service.execute(sql.format(1))
    again = fresh_service.execute(sql.format(2))
    assert not again.cache_hit and again.timing.compile_seconds > 0
    entry = fresh_service.plan_cache.entries()[-1]
    assert entry.misses_ambiguous == 1
    assert canonical(again.rows) == canonical(run_reference(
        fresh_service.appliance, sql.format(2)).rows)


def _with_new_literals(sql: str) -> str:
    """``sql`` with every parameter literal moved to a value its
    template never saw — dates 37 days on, integers up by one, decimals
    up by 0.01 — and every structural literal as it stands."""
    parameterize(sql)
    parts, literals = skeleton(sql)
    fixed, _shapes, _ = plan_cache._SKELETONS[parts]
    starts = [0]
    for line in sql.split("\n"):
        starts.append(starts[-1] + len(line) + 1)
    tokens = [token for token in tokenize(sql)
              if token.type in (TokenType.NUMBER, TokenType.STRING)]
    assert len(tokens) == len(literals)
    edits = []
    for ordinal, token in enumerate(tokens):
        start = starts[token.line - 1] + token.column - 1
        if token.type is TokenType.NUMBER:
            end = start + len(token.value)
            if ordinal in fixed:
                continue
            new = (str(int(token.value) + 1) if "." not in token.value
                   else f"{float(token.value) + 0.01:.4f}")
        else:
            end = start + len(token.value.replace("'", "''")) + 2
            if ordinal in fixed or not re.fullmatch(r"\d{4}-\d\d-\d\d",
                                                    token.value):
                continue
            moved = (datetime.date.fromisoformat(token.value)
                     + datetime.timedelta(37))
            new = f"'{moved.isoformat()}'"
        edits.append((start, end, new))
    for start, end, new in reversed(edits):
        sql = sql[:start] + new + sql[end:]
    return sql


@pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
def test_swapped_literals_return_the_oracles_rows(name, fresh_service,
                                                  tpch):
    """Every TPC-H template, compiled with its own literals, then hit
    with values never seen at compile time: the prepared trees with the
    new values swapped in return the reference interpreter's rows."""
    appliance, _ = tpch
    sql = TPCH_QUERIES[name]
    fresh_service.execute(sql)
    moved = _with_new_literals(sql)
    assert moved != sql or not parameterize(sql).params
    result = fresh_service.execute(moved)
    assert result.cache_hit == (name not in RECOMPILED), name
    expected = canonical(run_reference(appliance, moved).rows)
    got = canonical(result.rows)
    assert len(got) == len(expected)
    for row, want in zip(got, expected):
        # Float sums may differ in the last bits between the grouped
        # kernels and the oracle's row-at-a-time accumulation.
        assert row == pytest.approx(want, rel=1e-9)


#: Templates whose moved literals cannot be swapped in: Q4's ``SELECT
#: 1`` inside EXISTS has no slot (the semi join folds it away), Q20's
#: date is also a DATEADD argument (a structural constant).  Both hits
#: recompile privately.
RECOMPILED = {"Q4", "Q20"}


# -- (b) the memos a hit must not churn ---------------------------------------------

def test_kernel_memo_and_base_scan_columns_are_flat_over_500_hits(
        fresh_service, tpch):
    appliance, _ = tpch
    np_kernels.clear_np_kernel_cache()  # process-wide
    statements = [shape.format(date=date)
                  for shape in SHAPES[1:] for date in SEEN]
    for sql in statements:
        fresh_service.execute(sql)

    def base_fragments():
        return {(node.node_id, name): fragment
                for node in (appliance.control, *appliance.compute)
                for name, fragment in node.tables.items()
                if not appliance.catalog.table(name).is_temp}

    before = base_fragments()
    kernels = len(np_kernels._CACHE)
    for sql in itertools.islice(itertools.cycle(statements), 500):
        fresh_service.execute(sql)
    # A hit re-uses the bound tree, hence its expressions' kernels ...
    assert len(np_kernels._CACHE) == kernels
    # ... and scans the base tables' fragments as the load stored them:
    # the same objects, nothing re-stored or re-encoded.
    after = base_fragments()
    assert after.keys() == before.keys()
    assert all(after[key] is fragment for key, fragment in before.items())


def test_text_memo_holds_only_client_texts(fresh_service):
    """The plan hash keys each template step by the parser alone, so
    serving the TPC-H set leaves no DSQL step text in the
    parameterizer's exact-text front and no step skeleton in its
    skeleton memo."""
    plan_cache.clear_shape_memo()  # process-wide
    sent = [TPCH_QUERIES[name] for name in sorted(TPCH_QUERIES)]
    for sql in sent:
        fresh_service.execute(sql)
    assert set(plan_cache._TEXTS) <= set(sent)
    assert len(plan_cache._SKELETONS) <= len(sent)


# -- (c) the text against the reference ----------------------------------------------

def reference_instantiate(compiled, mapping, execution_id):
    """What ``instantiate_plan`` did before steps were prepared: re-parse
    and re-print each step (``rewrite_literals``), then regex-rename."""
    renames, steps = [], []
    for step in compiled.dsql_plan.steps:
        sql = rewrite_literals(step.sql, mapping) if mapping else step.sql
        step = replace(step, sql=sql)
        if step.destination_table is not None:
            old = step.destination_table.name
            renames.append((old, f"{old}_E{execution_id}"))
            step = replace(step, destination_table=replace(
                step.destination_table, name=renames[-1][1]))
        steps.append(step)
    for i, step in enumerate(steps):
        sql = step.sql
        for old, new in renames:
            sql = re.sub(rf"\b{re.escape(old)}\b", new, sql,
                         flags=re.IGNORECASE)
        steps[i] = replace(step, sql=sql)
    return replace(compiled.dsql_plan, steps=steps), [n for _, n in renames]


def mutated(value):
    """A different literal of the same type: shifted dates, negative
    ints, decimals, strings that need quoting."""
    type_name, raw, is_date = value
    if is_date:
        moved = datetime.date.fromisoformat(raw) + datetime.timedelta(37)
        return (type_name, moved.isoformat(), True)
    if isinstance(raw, int):
        return (type_name, -raw - 3, False)
    if isinstance(raw, float):
        return (type_name, raw / 4 + 0.0625, False)
    return (type_name, raw + "'s \"x\"", False)


@pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
def test_instantiated_text_is_the_reference_statement(name, tpch_engine):
    sql = TPCH_QUERIES[name]
    compiled = tpch_engine.compile(sql)
    shape = parameterize(sql)
    mappings = [None, {}]
    everything = bind_params(shape.params, tuple(map(mutated, shape.params)),
                             shape.structural)
    if everything is not None:
        mappings.append(everything)
    for position in range(len(shape.params)):  # one literal at a time
        requested = list(shape.params)
        requested[position] = mutated(requested[position])
        mapping = bind_params(shape.params, tuple(requested),
                              shape.structural)
        if mapping:
            mappings.append(mapping)
    assert len(mappings) > 2 or not shape.params, name
    for execution_id, mapping in enumerate(mappings, start=7):
        plan, temps = instantiate_plan(compiled, mapping, execution_id)
        expected, expected_temps = reference_instantiate(
            compiled, mapping, execution_id)
        assert temps == expected_temps
        for step, reference in zip(plan.steps, expected.steps):
            assert parse_query(step.sql) == parse_query(reference.sql)
            if mapping:  # same printer, so the same text too
                assert step.sql == reference.sql
            assert replace(step, sql="") == replace(reference, sql="")


def test_temp_names_inside_string_literals_are_left_alone(tpch_engine):
    sql = ("SELECT c_custkey, o_orderdate FROM orders, customer "
           "WHERE o_custkey = c_custkey AND c_name <> 'TEMP_ID_1'")
    compiled = tpch_engine.compile(sql)
    assert any(step.destination_table is not None
               and step.destination_table.name == "TEMP_ID_1"
               for step in compiled.dsql_plan.steps)
    plan, _ = instantiate_plan(compiled, None, 5)
    text = " ".join(step.sql for step in plan.steps)
    assert "'TEMP_ID_1'" in text and "TEMP_ID_1_E5 " in text


# -- (d) one step text, two temp schemas ----------------------------------------------

def _two_step_plan(first_sql: str, columns) -> DsqlPlan:
    """``t`` reshuffled into TEMP_ID_1(columns), then ``x`` returned."""
    target = hashed_on(1)
    movement = DataMovement(DmsOperation.SHUFFLE_MOVE, hashed_on(2), target,
                            (ColumnVar(1, "x", INTEGER),))
    return DsqlPlan(
        steps=[
            DsqlStep(index=0, kind=StepKind.DMS, sql=first_sql,
                     source_location=hashed_on(2), movement=movement,
                     destination_table=TableDef(
                         "TEMP_ID_1",
                         [Column(name, INTEGER) for name in columns],
                         hash_distributed("x"), is_temp=True),
                     hash_column="x"),
            DsqlStep(index=1, kind=StepKind.RETURN,
                     sql="SELECT x FROM TEMP_ID_1 WHERE x < 50",
                     source_location=target),
        ],
        output_names=["x"])


def test_same_step_text_over_different_temp_schemas(mini_appliance,
                                                   bind_calls):
    """The Return steps are one text; ``x`` is TEMP_ID_1's first column
    in one plan and its second in the other.  Interleaved on two
    threads over one runtime, each must keep reading its own ``x``
    through its own template's prepared tree."""
    plans = {
        "x_first": _two_step_plan("SELECT a AS x, b AS y FROM t", "xy"),
        "x_second": _two_step_plan("SELECT b AS y, a AS x FROM t", "yx"),
    }
    assert plans["x_first"].steps[1].sql == plans["x_second"].steps[1].sql
    cold = {name: canonical(DsqlRunner(mini_appliance).run(plan).rows)
            for name, plan in plans.items()}
    assert cold["x_first"] == cold["x_second"] == [(i,) for i in range(50)]

    for plan in plans.values():
        plan.prepared = None  # prepared afresh below, once per template
    templates = {name: SimpleNamespace(dsql_plan=plan, step_text=None)
                 for name, plan in plans.items()}
    runner = DsqlRunner(mini_appliance)
    del bind_calls[:]
    ids = itertools.count(1)
    failures = []
    deadline = time.monotonic() + 60

    def client(order) -> None:
        try:
            for name in itertools.islice(itertools.cycle(order), 120):
                if time.monotonic() > deadline:
                    raise TimeoutError("aliasing hammer overran")
                plan, temps = instantiate_plan(templates[name], None,
                                               next(ids))
                try:
                    rows = runner.run(plan, keep_temps=True).rows
                finally:
                    for temp in temps:
                        mini_appliance.drop_table(temp)
                assert canonical(rows) == cold[name], name
        except BaseException as error:  # noqa: BLE001 - reported below
            failures.append(error)

    threads = [threading.Thread(target=client, args=(order,))
               for order in (("x_first", "x_second"),
                             ("x_second", "x_first"))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=90)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]
    # Each template's steps were bound once, not once per execution.
    assert len(bind_calls) == 4
    assert all(plan.prepared is not None for plan in plans.values())
