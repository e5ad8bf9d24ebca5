"""MEMO ⇄ XML round-trip tests (the Figure 2 interface)."""

import datetime
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import expressions as ex
from repro.algebra.logical import (
    LogicalGet,
    LogicalJoin,
    LogicalProject,
    LogicalSelect,
    detached_select,
)
from repro.catalog.shell_db import ShellDatabase
from repro.common.errors import OptimizerError
from repro.common.types import DATE, INTEGER, varchar
from repro.optimizer.cardinality import StatsContext
from repro.optimizer.memo import Memo
from repro.optimizer.memo_xml import (
    _attr,
    expr_from_element,
    expr_to_xml,
    memo_from_xml,
    memo_to_xml,
)
from repro.optimizer.search import SerialOptimizer

from tests.conftest import make_mini_catalog

QUERIES = [
    "SELECT c_name FROM customer",
    "SELECT c_name FROM customer WHERE c_custkey > 5",
    "SELECT c.c_custkey, o.o_orderdate FROM orders o, customer c "
    "WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > 100",
    "SELECT c_nationkey, COUNT(*) AS n FROM customer GROUP BY c_nationkey",
    "SELECT c_name FROM customer WHERE c_custkey IN "
    "(SELECT o_custkey FROM orders)",
    "SELECT n_name FROM nation WHERE n_name LIKE 'C%' OR n_nationkey IN "
    "(1, 2, 3)",
]


@pytest.fixture()
def shell(mini_catalog):
    return ShellDatabase(mini_catalog, node_count=4)


def roundtrip(shell, sql):
    result = SerialOptimizer(shell).optimize_sql(sql)
    xml = memo_to_xml(result.memo, result.root_group, result.stats)
    parsed = memo_from_xml(xml, shell)
    return result, parsed


class TestMemoRoundTrip:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_group_count_preserved(self, shell, sql):
        result, parsed = roundtrip(shell, sql)
        assert len(parsed.memo.canonical_groups()) == len(
            result.memo.canonical_groups())

    @pytest.mark.parametrize("sql", QUERIES)
    def test_expression_structure_preserved(self, shell, sql):
        result, parsed = roundtrip(shell, sql)
        original = sorted(
            e.op.describe()
            for g in result.memo.canonical_groups()
            for e in g.expressions
            if result.memo.find(g.id) not in [
                result.memo.find(c) for c in e.children if
                result.memo.find(c) == result.memo.find(g.id)]
        )
        recovered = sorted(
            e.op.describe()
            for g in parsed.memo.canonical_groups()
            for e in g.expressions
        )
        assert recovered == original

    @pytest.mark.parametrize("sql", QUERIES)
    def test_cardinalities_preserved(self, shell, sql):
        result, parsed = roundtrip(shell, sql)
        original = sorted(g.cardinality
                          for g in result.memo.canonical_groups())
        recovered = sorted(g.cardinality
                           for g in parsed.memo.canonical_groups())
        assert recovered == pytest.approx(original)

    @pytest.mark.parametrize("sql", QUERIES)
    def test_widths_and_origins_preserved(self, shell, sql):
        result, parsed = roundtrip(shell, sql)
        for var_id, origin in result.stats.var_origins.items():
            assert parsed.stats.var_origins.get(var_id) == origin

    def test_root_tracks_original(self, shell):
        result, parsed = roundtrip(shell, QUERIES[2])
        root_group = parsed.memo.group(parsed.root_group)
        original_root = result.memo.group(result.root_group)
        assert {v.id for v in root_group.output_vars} == {
            v.id for v in original_root.output_vars}

    @pytest.mark.parametrize("sql", QUERIES)
    def test_double_roundtrip_stable(self, shell, sql):
        result, parsed = roundtrip(shell, sql)
        xml2 = memo_to_xml(parsed.memo, parsed.root_group, parsed.stats)
        parsed2 = memo_from_xml(xml2, shell)
        assert len(parsed2.memo.canonical_groups()) == len(
            parsed.memo.canonical_groups())
        # From the second document on, nothing moves.
        assert memo_to_xml(parsed2.memo, parsed2.root_group,
                           parsed2.stats) == xml2


class TestExpressionSerialization:
    VARS = {
        1: ex.ColumnVar(1, "a", INTEGER),
        2: ex.ColumnVar(2, "s", varchar(10)),
    }

    @pytest.mark.parametrize("expr", [
        ex.Constant(42),
        ex.Constant(3.5),
        ex.Constant("text with 'quote'"),
        ex.Constant(None),
        ex.Constant(True),
        ex.Constant(datetime.date(1994, 1, 1)),
        ex.Comparison("<=", ex.ColumnVar(1, "a", INTEGER), ex.Constant(5)),
        ex.Arithmetic("*", ex.ColumnVar(1, "a", INTEGER), ex.Constant(2)),
        ex.BoolOp("OR", (ex.Constant(True), ex.Constant(False))),
        ex.NotExpr(ex.Constant(False)),
        ex.FuncExpr("DATEADD", (ex.Constant("year"), ex.Constant(1),
                                ex.Constant(datetime.date(1994, 1, 1)))),
        ex.CastExpr(ex.ColumnVar(1, "a", INTEGER), DATE),
        ex.CaseWhen(((ex.Constant(True), ex.Constant(1)),),
                    ex.Constant(0)),
        ex.LikeExpr(ex.ColumnVar(2, "s", varchar(10)), "fo%", True),
        ex.InListExpr(ex.ColumnVar(1, "a", INTEGER), (1, 2, 3)),
        ex.IsNullExpr(ex.ColumnVar(1, "a", INTEGER), negated=True),
        ex.AggExpr("SUM", ex.ColumnVar(1, "a", INTEGER)),
        ex.AggExpr("COUNT", None, distinct=False),
    ])
    def test_expr_roundtrip(self, expr):
        text = expr_to_xml(expr, {})
        recovered = expr_from_element(ET.fromstring(text), self.VARS)
        assert recovered == expr
        # ``==`` alone would let Constant(True) pass for Constant(1).
        assert expr_to_xml(recovered, {}) == text

    def test_columns_met_are_collected(self):
        a, s = self.VARS[1], self.VARS[2]
        columns = {}
        expr_to_xml(ex.BoolOp("AND", (
            ex.Comparison("=", a, ex.Constant(1)),
            ex.LikeExpr(s, "x%"),
            ex.Comparison("<", a, ex.Constant(9)))), columns)
        assert columns == {1: a, 2: s}
        assert list(columns) == [1, 2]


# ---------------------------------------------------------------------------
# the <exprs> table
# ---------------------------------------------------------------------------

def entries(xml):
    """``<exprs>`` as {id: the entry's expression text}."""
    table = ET.fromstring(xml).find("exprs")
    return {entry.get("id"): ET.tostring(entry[0], encoding="unicode")
            for entry in table}


def select_chain(shell, predicates_of):
    """A hand-built MEMO: Get(customer) under one Select per predicate,
    stacked, so several operator-level predicates can mention the same
    column variable.  Returns ``(memo, root group, stats, columns)``."""
    table = shell.table("customer")
    columns = [ex.ColumnVar(index + 1, column.name, column.sql_type)
               for index, column in enumerate(table.columns)]
    get = LogicalGet(table, columns)
    stats = StatsContext(shell)
    stats.register_tree(get)
    memo = Memo(stats)
    group = memo.insert_tree(get)
    for predicate in predicates_of(columns):
        group = memo.group_for_expression(detached_select(predicate),
                                          (group,))
    return memo, group, stats, columns


class TestExpressionTable:
    def test_every_distinct_expression_is_written_once(self, shell):
        result, _ = roundtrip(shell, QUERIES[2])
        xml = memo_to_xml(result.memo, result.root_group, result.stats)
        table = entries(xml)
        assert len(set(table.values())) == len(table)
        # ... and the physical alternatives point at their logical
        # expression's entry instead of repeating it.
        document = ET.fromstring(xml)
        joins = [e for e in document.iter("expr") if e.get("pred")
                 and "Join" in e.get("op")]
        assert len(joins) > len({e.get("pred") for e in joins})
        assert not any(list(e) for e in joins)

    def test_parser_shares_one_object_per_entry(self, shell):
        _, parsed = roundtrip(shell, QUERIES[2])
        by_text = {}
        for group in parsed.memo.canonical_groups():
            for expr in group.expressions:
                predicate = getattr(expr.op, "predicate", None)
                if predicate is not None:
                    by_text.setdefault(expr_to_xml(predicate, {}),
                                       set()).add(id(predicate))
        assert by_text
        assert all(len(objects) == 1 for objects in by_text.values())

    def test_equal_but_differently_typed_literals_stay_apart(self, shell):
        """Constant(1) == Constant(1.0) == Constant(True): a table keyed
        on ``==`` would write one entry for all three predicates."""
        literals = (1, 1.0, True)
        memo, root, stats, _ = select_chain(shell, lambda columns: [
            ex.Comparison("=", columns[2], ex.Constant(value))
            for value in literals])
        parsed = memo_from_xml(memo_to_xml(memo, root, stats), shell)
        recovered = [
            expr.op.predicate.right.value
            for group in parsed.memo.canonical_groups()
            for expr in group.logical_expressions
            if hasattr(expr.op, "predicate")]
        assert sorted(map(repr, recovered)) == sorted(map(repr, literals))

    def test_structurally_equal_objects_share_an_entry(self, shell):
        """Identity first, structure second: two separately built but
        identical predicates are one entry."""
        memo, root, stats, _ = select_chain(shell, lambda columns: [
            ex.Comparison(">", columns[0], ex.Constant(5)),
            ex.Comparison(">", columns[0], ex.Constant(5))])
        xml = memo_to_xml(memo, root, stats)
        assert len(entries(xml)) == 1
        assert xml.count('op="Select"') == 2


# ---------------------------------------------------------------------------
# parser strictness: every reference is checked, the error names the id
# ---------------------------------------------------------------------------

class TestParserStrictness:
    SQL = QUERIES[2]  # a join with a filter: pred=, cols=, outputs=, e=

    @pytest.fixture()
    def xml(self, shell):
        result, _ = roundtrip(shell, self.SQL)
        return memo_to_xml(result.memo, result.root_group, result.stats)

    def edited(self, xml, old, new):
        assert old in xml
        return xml.replace(old, new, 1)

    def test_unknown_expression_id(self, shell, xml):
        broken = self.edited(xml, 'pred="0"', 'pred="4711"')
        with pytest.raises(OptimizerError, match="4711"):
            memo_from_xml(broken, shell)

    def test_duplicate_expression_id(self, shell, xml):
        broken = self.edited(xml, '<e id="1">', '<e id="0">')
        with pytest.raises(OptimizerError, match="'0' twice"):
            memo_from_xml(broken, shell)

    @pytest.mark.parametrize("attribute", ["outputs", "cols", "var"])
    def test_unknown_column_id(self, shell, xml, attribute):
        broken, count = re.subn(rf' {attribute}="\d+', f' {attribute}="4711',
                                xml, count=1)
        assert count == 1
        with pytest.raises(OptimizerError, match="column #4711"):
            memo_from_xml(broken, shell)

    def test_unknown_column_id_inside_an_expression(self, shell, xml):
        broken, count = re.subn(r'<col id="\d+"', '<col id="4711"', xml,
                                count=1)
        assert count == 1
        with pytest.raises(OptimizerError, match="column #4711"):
            memo_from_xml(broken, shell)

    def test_unknown_child_group_id(self, shell, xml):
        broken, count = re.subn(r'children="\d+', 'children="4711', xml,
                                count=1)
        assert count == 1
        with pytest.raises(OptimizerError, match="group 4711"):
            memo_from_xml(broken, shell)

    def test_unknown_join_kind(self, shell, xml):
        broken, count = re.subn(r'join-kind="\w+"', 'join-kind="sideways"',
                                xml, count=1)
        assert count == 1
        with pytest.raises(OptimizerError, match="'sideways'"):
            memo_from_xml(broken, shell)

    def test_a_repeated_id_list_is_read_once_into_separate_lists(
            self, shell, xml):
        """The reader resolves each distinct ``cols=`` string once, but
        every operator still owns its list."""
        parsed = memo_from_xml(xml, shell)
        scans = [expr.op for group in parsed.memo.canonical_groups()
                 for expr in group.expressions
                 if hasattr(expr.op, "table")]
        by_cols = {}
        for scan in scans:
            by_cols.setdefault(tuple(v.id for v in scan.columns),
                               []).append(scan.columns)
        shared = [lists for lists in by_cols.values() if len(lists) > 1]
        assert shared  # each Get has its TableScan alternative
        for lists in shared:
            assert all(a == lists[0] and a is not lists[0]
                       for a in lists[1:])

    def test_stray_child_is_not_taken_for_the_join_predicate(self, shell,
                                                             xml):
        join = re.search(r'<expr [^>]*op="Join"[^>]*/>', xml).group()
        assert ' pred="' in join
        stray = join[:-2] + '><const type="bool" value="0"/></expr>'
        parsed = memo_from_xml(xml.replace(join, stray, 1), shell)
        joins = [expr.op for group in parsed.memo.canonical_groups()
                 for expr in group.logical_expressions
                 if isinstance(expr.op, LogicalJoin)]
        assert joins
        assert all(isinstance(op.predicate, ex.Comparison) for op in joins)


# ---------------------------------------------------------------------------
# the reader merges a hand-edited document as the serial side would
# ---------------------------------------------------------------------------

def memo_state(memo):
    """Groups, their expressions, the union-find and the dedup map."""
    def expression(expr):
        return (expr.key, expr.is_logical)

    return (
        [(group.id, [var.id for var in group.output_vars],
          group.cardinality, group.row_width,
          [expression(expr) for expr in group.expressions])
         for group in memo.groups],
        [memo.find(group.id) for group in memo.groups],
        {key: (owner, expression(expr))
         for key, (owner, expr) in memo._dedup.items()},
    )


class TestReaderDedup:
    @pytest.fixture()
    def xml(self, shell):
        result, _ = roundtrip(shell, QUERIES[2])
        return memo_to_xml(result.memo, result.root_group, result.stats)

    def groups_of(self, xml):
        return {int(m.group(1)): m.group(0) for m in re.finditer(
            r'<group id="(\d+)"[^>]*>.*?</group>', xml)}

    def test_a_duplicate_expr_in_its_own_group_is_kept_once(self, shell,
                                                            xml):
        join = re.search(r'<expr [^>]*op="Join"[^>]*/>', xml).group()
        edited = xml.replace(join, join * 2, 1)
        parsed = memo_from_xml(edited, shell).memo
        assert memo_state(parsed) == memo_state(
            memo_from_xml(xml, shell).memo)

    def test_a_self_reference_is_dropped(self, shell, xml):
        group_id, group = next(
            (gid, text) for gid, text in self.groups_of(xml).items()
            if 'op="Join"' in text)
        loop = f'<expr children="{group_id}" op="Select" pred="0"/>'
        edited = xml.replace(group, group.replace(
            "</group>", loop + "</group>"), 1)
        parsed = memo_from_xml(edited, shell).memo
        assert memo_state(parsed) == memo_state(
            memo_from_xml(xml, shell).memo)

    def test_a_key_another_group_holds_merges_the_two(self, shell, xml):
        groups = self.groups_of(xml)
        scans = [(gid, re.search(r'<expr [^>]*op="Get"[^>]*/>', text))
                 for gid, text in groups.items()]
        (first, get), (second, _) = [
            (gid, match.group()) for gid, match in scans if match][:2]
        edited = xml.replace(groups[second], groups[second].replace(
            "</group>", get + "</group>"), 1)
        parsed = memo_from_xml(edited, shell).memo
        in_memo = list(groups).index  # the reader numbers groups in order
        assert parsed.find(in_memo(first)) == parsed.find(in_memo(second))
        assert len(parsed.canonical_groups()) == len(groups) - 1


# ---------------------------------------------------------------------------
# escaping: the writer is hand-rolled, so it owns the XML rules
# ---------------------------------------------------------------------------

#: Everything XML 1.0 lets a document carry, with the characters that
#: need care in an attribute value drawn far more often than chance.
xml_text = st.text(st.one_of(
    st.sampled_from(list("\"'<>& \t\r\n;#é日")),
    st.characters(min_codepoint=0x20, blacklist_categories=("Cs",),
                  blacklist_characters="\ufffe\uffff"),
), max_size=12)


class TestEscaping:
    @given(text=xml_text)
    def test_attribute_text_is_what_elementtree_writes(self, text):
        """A raw TAB/CR/LF in an attribute is normalised to a space by
        any XML parser; ElementTree writes character references, and so
        must we."""
        element = ET.Element("x", {"v": text})
        assert ET.tostring(element, encoding="unicode") == (
            f'<x v="{_attr(text)}" />')

    @settings(deadline=None, max_examples=150)
    @given(constant=xml_text, pattern=xml_text,
           members=st.lists(xml_text, min_size=1, max_size=3),
           alias=xml_text.filter(bool), column_name=xml_text)
    def test_strings_survive_the_round_trip(self, constant, pattern, members,
                                            alias, column_name):
        shell = ShellDatabase(make_mini_catalog(), node_count=4)
        memo, root, stats, columns = select_chain(shell, lambda columns: [
            ex.Comparison("=", columns[1], ex.Constant(constant)),
            ex.LikeExpr(columns[1], pattern),
            ex.InListExpr(columns[1], tuple(members), negated=True)])
        # Re-alias the Get and project into an oddly named column.
        get = memo.group(0).expressions[0].op
        get.alias = alias
        project = LogicalProject.__new__(LogicalProject)
        project.children = []
        renamed = ex.ColumnVar(99, column_name, varchar(25))
        project.outputs = [(renamed, ex.FuncExpr(
            "UPPER", (ex.Arithmetic("||", columns[1],
                                    ex.Constant(constant)),)))]
        root = memo.group_for_expression(project, (root,))

        parsed = memo_from_xml(memo_to_xml(memo, root, stats), shell)

        ops = [expr.op for group in parsed.memo.canonical_groups()
               for expr in group.expressions]
        by_type = {type(op): op for op in ops}
        assert by_type[LogicalGet].alias == alias
        assert parsed.vars_by_id[99].name == column_name
        (var, scalar), = by_type[LogicalProject].outputs
        assert var.name == column_name
        assert scalar.args[0].right.value == constant
        predicates = [op.predicate for op in ops
                      if isinstance(op, LogicalSelect)]
        assert {type(p) for p in predicates} == {
            ex.Comparison, ex.LikeExpr, ex.InListExpr}
        for predicate in predicates:
            if isinstance(predicate, ex.Comparison):
                assert predicate.right.value == constant
            elif isinstance(predicate, ex.LikeExpr):
                assert predicate.pattern == pattern
            else:
                assert predicate.values == tuple(members)
