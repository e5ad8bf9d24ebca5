"""MEMO ⇄ XML: the contract between the two optimizers.

Paper §3.1: *"We defined a new compilation entry point to request the
optimizer MEMO ... the output from SQL Server is an XML representation of
the MEMO data structure"*, and §2.5 (component 3/4): the XML generator
encodes the search space, and the PDW side has "a memo parser ...
responsible for constructing the memo data structure for the PDW query
optimizer".

The document has three parts, in this order::

    <memo root="7">
      <columns>
        <column id="1" name="c_custkey" width="4.0" type-kind="integer"
                table="customer" table-column="c_custkey"/> ...
      </columns>
      <exprs>
        <e id="0"><cmp op="="><col id="1"/><col id="9"/></cmp></e> ...
      </exprs>
      <group id="7" rows="150.0" width="29.0" outputs="1 2">
        <expr children="3 5" op="Join" join-kind="inner" pred="0"/>
        <expr children="3 5" op="HashJoin" join-kind="inner" pred="0"/>
        <expr children="6" op="Project"><output var="2" e="4"/></expr> ...
      </group> ...
    </memo>

* ``<columns>`` — every column variable (id, name, type, average width,
  and its base table/column origin when it has one, so the PDW side can
  re-derive statistics from the shell database).
* ``<exprs>`` — every *operator-level* scalar expression (a Select/Filter
  or join predicate, a Project/ComputeScalar output, an aggregate),
  written once per MEMO and referenced by id from ``pred=`` and ``e=``.
  A physical alternative repeats its logical expression's predicate
  verbatim, so the hand-off costs per distinct expression, not per
  occurrence.
* ``<group>`` — logical properties (estimated rows, row width, output
  columns) and the group expressions, logical and physical, children
  encoded as group ids.  The operator name says which kind an expression
  is (``Get``/``Select``/``Project``/``Join``/``GroupBy``/``UnionAll``
  are logical, the rest physical).

**The intern key is type-exact.**  Dataclass equality has
``Constant(1) == Constant(True) == Constant(1.0)``, so a table keyed on
``==`` would hand ``q * 1`` and ``q * 1.0`` one entry and change a
result's value type.  The writer therefore looks an expression up by
object identity first (the serial optimizer's physical operators share
their logical operator's predicate object) and then by the entry's own
text: two expressions share an entry exactly when they serialize to the
same characters, which is structure plus literal types by construction.

The writer appends text fragments in one pass over the MEMO (columns are
collected on the way, no element tree is built); the parser builds each
table entry once and hands that one object to every operator that
references it.
"""

from __future__ import annotations

import datetime
import xml.etree.ElementTree as ET
from typing import Dict, Iterable, List, Tuple

from repro.algebra import expressions as ex
from repro.algebra import physical as phys
from repro.algebra.logical import (
    AggPhase,
    JoinKind,
    LogicalGet,
    LogicalGroupBy,
    LogicalJoin,
    LogicalProject,
    LogicalSelect,
    LogicalUnionAll,
    detached_groupby,
    detached_join,
    detached_select,
    detached_union,
)
from repro.catalog.shell_db import ShellDatabase
from repro.common.errors import OptimizerError
from repro.common.types import SqlType, TypeKind
from repro.optimizer.cardinality import StatsContext
from repro.optimizer.memo import GroupExpression, Memo
from repro.telemetry import NULL_TRACER, Tracer


# ---------------------------------------------------------------------------
# attribute text
# ---------------------------------------------------------------------------

# Every payload value travels in an attribute.  An XML parser normalises a
# raw TAB/CR/LF inside an attribute value to a space, so those three go out
# as character references (as ElementTree writes them).
_ATTR_ESCAPES = str.maketrans({
    "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
    "\r": "&#13;", "\n": "&#10;", "\t": "&#09;",
})


def _attr(text: str) -> str:
    return text.translate(_ATTR_ESCAPES)


def _ids(variables: Iterable[ex.ColumnVar]) -> str:
    return " ".join([str(var.id) for var in variables])


def _type_attrs(sql_type: SqlType, prefix: str = "") -> str:
    text = f' {prefix}kind="{sql_type.kind.value}"'
    if sql_type.length is not None:
        text += f' {prefix}length="{sql_type.length}"'
    if sql_type.precision is not None:
        text += f' {prefix}precision="{sql_type.precision}"'
    if sql_type.scale is not None:
        text += f' {prefix}scale="{sql_type.scale}"'
    return text


def _type_from_attrs(attrs: Dict[str, str], prefix: str = "") -> SqlType:
    length = attrs.get(prefix + "length")
    precision = attrs.get(prefix + "precision")
    scale = attrs.get(prefix + "scale")
    return SqlType(
        TypeKind(attrs[prefix + "kind"]),
        length=int(length) if length is not None else None,
        precision=int(precision) if precision is not None else None,
        scale=int(scale) if scale is not None else None,
    )


# ---------------------------------------------------------------------------
# scalar expressions
# ---------------------------------------------------------------------------

def _const_to_xml(value: object) -> str:
    if value is None:
        return '<const type="null"/>'
    if isinstance(value, bool):
        return f'<const type="bool" value="{1 if value else 0}"/>'
    if isinstance(value, int):
        return f'<const type="int" value="{value}"/>'
    if isinstance(value, float):
        return f'<const type="float" value="{value!r}"/>'
    if isinstance(value, datetime.date):
        return f'<const type="date" value="{value.isoformat()}"/>'
    return f'<const type="str" value="{_attr(str(value))}"/>'


def _const_from_element(element: ET.Element) -> object:
    type_name = element.get("type")
    raw = element.get("value", "")
    if type_name == "null":
        return None
    if type_name == "bool":
        return raw == "1"
    if type_name == "int":
        return int(raw)
    if type_name == "float":
        return float(raw)
    if type_name == "date":
        return datetime.date.fromisoformat(raw)
    return raw


def expr_to_xml(expr: ex.ScalarExpr,
                columns: Dict[int, ex.ColumnVar]) -> str:
    """Serialize a bound scalar expression to XML text.

    Every column variable met on the way is recorded in ``columns``
    (first occurrence of an id wins), which is how the MEMO writer
    collects ``<columns>`` without a second walk.
    """
    kind = type(expr)
    if kind is ex.ColumnVar:
        columns.setdefault(expr.id, expr)
        return f'<col id="{expr.id}"/>'
    if kind is ex.Constant:
        return _const_to_xml(expr.value)
    if kind is ex.Comparison:
        return (f'<cmp op="{_attr(expr.op)}">'
                f'{expr_to_xml(expr.left, columns)}'
                f'{expr_to_xml(expr.right, columns)}</cmp>')
    if kind is ex.Arithmetic:
        return (f'<arith op="{_attr(expr.op)}">'
                f'{expr_to_xml(expr.left, columns)}'
                f'{expr_to_xml(expr.right, columns)}</arith>')
    if kind is ex.BoolOp:
        args = "".join([expr_to_xml(arg, columns) for arg in expr.args])
        return f'<bool op="{_attr(expr.op)}">{args}</bool>'
    if kind is ex.NotExpr:
        return f'<not>{expr_to_xml(expr.operand, columns)}</not>'
    if kind is ex.FuncExpr:
        args = "".join([expr_to_xml(arg, columns) for arg in expr.args])
        return f'<func name="{_attr(expr.name)}">{args}</func>'
    if kind is ex.CastExpr:
        return (f'<cast{_type_attrs(expr.target)}>'
                f'{expr_to_xml(expr.operand, columns)}</cast>')
    if kind is ex.CaseWhen:
        parts = [
            f'<when>{expr_to_xml(condition, columns)}'
            f'{expr_to_xml(result, columns)}</when>'
            for condition, result in expr.whens
        ]
        if expr.otherwise is not None:
            parts.append(
                f'<else>{expr_to_xml(expr.otherwise, columns)}</else>')
        return f'<case>{"".join(parts)}</case>'
    if kind is ex.LikeExpr:
        return (f'<like pattern="{_attr(expr.pattern)}" '
                f'negated="{1 if expr.negated else 0}">'
                f'{expr_to_xml(expr.operand, columns)}</like>')
    if kind is ex.InListExpr:
        values = "".join([_const_to_xml(value) for value in expr.values])
        return (f'<inlist negated="{1 if expr.negated else 0}">'
                f'{expr_to_xml(expr.operand, columns)}'
                f'<values>{values}</values></inlist>')
    if kind is ex.IsNullExpr:
        return (f'<isnull negated="{1 if expr.negated else 0}">'
                f'{expr_to_xml(expr.operand, columns)}</isnull>')
    if kind is ex.AggExpr:
        arg = "" if expr.arg is None else expr_to_xml(expr.arg, columns)
        return (f'<agg func="{_attr(expr.func)}" '
                f'distinct="{1 if expr.distinct else 0}">{arg}</agg>')
    raise OptimizerError(f"cannot serialize {kind.__name__}")


def expr_from_element(element: ET.Element,
                      vars_by_id: Dict[int, ex.ColumnVar]) -> ex.ScalarExpr:
    """Deserialize a scalar expression, resolving column ids."""
    tag = element.tag
    if tag == "col":
        var_id = int(element.get("id"))
        try:
            return vars_by_id[var_id]
        except KeyError:
            raise OptimizerError(
                f"XML references unknown column #{var_id}") from None
    if tag == "const":
        return ex.Constant(_const_from_element(element))
    children = list(element)
    if tag == "cmp":
        return ex.Comparison(element.get("op"),
                             expr_from_element(children[0], vars_by_id),
                             expr_from_element(children[1], vars_by_id))
    if tag == "arith":
        return ex.Arithmetic(element.get("op"),
                             expr_from_element(children[0], vars_by_id),
                             expr_from_element(children[1], vars_by_id))
    if tag == "bool":
        return ex.BoolOp(element.get("op"), tuple(
            expr_from_element(c, vars_by_id) for c in children))
    if tag == "not":
        return ex.NotExpr(expr_from_element(children[0], vars_by_id))
    if tag == "func":
        return ex.FuncExpr(element.get("name"), tuple(
            expr_from_element(c, vars_by_id) for c in children))
    if tag == "cast":
        return ex.CastExpr(expr_from_element(children[0], vars_by_id),
                           _type_from_attrs(element.attrib))
    if tag == "case":
        whens: List[Tuple[ex.ScalarExpr, ex.ScalarExpr]] = []
        otherwise = None
        for child in children:
            if child.tag == "when":
                parts = list(child)
                whens.append((expr_from_element(parts[0], vars_by_id),
                              expr_from_element(parts[1], vars_by_id)))
            elif child.tag == "else":
                otherwise = expr_from_element(list(child)[0], vars_by_id)
        return ex.CaseWhen(tuple(whens), otherwise)
    if tag == "like":
        return ex.LikeExpr(expr_from_element(children[0], vars_by_id),
                           element.get("pattern"),
                           element.get("negated") == "1")
    if tag == "inlist":
        operand = expr_from_element(children[0], vars_by_id)
        values = tuple(
            _const_from_element(v) for v in children[1]
        )
        return ex.InListExpr(operand, values, element.get("negated") == "1")
    if tag == "isnull":
        return ex.IsNullExpr(expr_from_element(children[0], vars_by_id),
                             element.get("negated") == "1")
    if tag == "agg":
        arg = (expr_from_element(children[0], vars_by_id)
               if children else None)
        return ex.AggExpr(element.get("func"), arg,
                          element.get("distinct") == "1")
    raise OptimizerError(f"unknown expression tag <{tag}>")


# ---------------------------------------------------------------------------
# memo export
# ---------------------------------------------------------------------------

# Operator class -> (name in the document, operator family).
_SCAN, _FILTER, _PROJECT, _JOIN, _AGGREGATE, _UNION = range(6)
_OPERATORS = {
    LogicalGet: ("Get", _SCAN),
    phys.TableScan: ("TableScan", _SCAN),
    LogicalSelect: ("Select", _FILTER),
    phys.Filter: ("Filter", _FILTER),
    LogicalProject: ("Project", _PROJECT),
    phys.ComputeScalar: ("ComputeScalar", _PROJECT),
    LogicalJoin: ("Join", _JOIN),
    phys.HashJoin: ("HashJoin", _JOIN),
    phys.MergeJoin: ("MergeJoin", _JOIN),
    phys.NestedLoopJoin: ("NestedLoopJoin", _JOIN),
    LogicalGroupBy: ("GroupBy", _AGGREGATE),
    phys.HashAggregate: ("HashAggregate", _AGGREGATE),
    phys.StreamAggregate: ("StreamAggregate", _AGGREGATE),
    LogicalUnionAll: ("UnionAll", _UNION),
    phys.UnionAllOp: ("UnionAllOp", _UNION),
}
# ... and back: name in the document -> (operator class, family).
_OPERATORS_BY_NAME = {name: (cls, family)
                      for cls, (name, family) in _OPERATORS.items()}
_JOIN_KINDS = {kind.value: kind for kind in JoinKind}


def memo_to_xml(memo: Memo, root_group: int,
                stats: StatsContext,
                tracer: Tracer = NULL_TRACER) -> str:
    """Encode the MEMO as the XML document PDW consumes."""
    with tracer.span("xml.serialize") as span:
        text = _MemoWriter(memo, stats).document(root_group)
        if tracer.enabled:
            span.set("bytes", len(text.encode("utf-8")))
    return text


class _MemoWriter:
    """One pass over the MEMO, appending text fragments.

    ``columns`` and ``entries`` (the ``<exprs>`` table) fill up while the
    groups are written; the three parts are joined at the end because the
    document carries them ahead of the groups.
    """

    def __init__(self, memo: Memo, stats: StatsContext):
        self.memo = memo
        self.stats = stats
        self.columns: Dict[int, ex.ColumnVar] = {}
        self.entries: List[str] = []
        self.groups: List[str] = []
        # Expression -> table id: by object identity, then by text (see the
        # module docstring for why not by ``==``).  The MEMO keeps every
        # expression alive while we write, so ids are not reused.
        self._ref_by_identity: Dict[int, int] = {}
        self._ref_by_text: Dict[str, int] = {}

    def document(self, root_group: int) -> str:
        memo = self.memo
        for group in memo.canonical_groups():
            self._group(group)
        return "".join([
            f'<memo root="{memo.find(root_group)}">',
            "<columns>", *self._column_fragments(), "</columns>",
            "<exprs>", *self.entries, "</exprs>",
            *self.groups,
            "</memo>",
        ])

    def _see(self, variables: Iterable[ex.ColumnVar]) -> None:
        columns = self.columns
        for var in variables:
            columns.setdefault(var.id, var)

    def _ref(self, expr: ex.ScalarExpr) -> int:
        """Table id of an operator-level expression, adding it if new."""
        ref = self._ref_by_identity.get(id(expr))
        if ref is None:
            text = expr_to_xml(expr, self.columns)
            ref = self._ref_by_text.get(text)
            if ref is None:
                ref = self._ref_by_text[text] = len(self.entries)
                self.entries.append(f'<e id="{ref}">{text}</e>')
            self._ref_by_identity[id(expr)] = ref
        return ref

    def _column_fragments(self) -> List[str]:
        stats = self.stats
        fragments = []
        for var_id in sorted(self.columns):
            var = self.columns[var_id]
            origin = stats.var_origins.get(var_id)
            source = "" if origin is None else (
                f' table="{_attr(origin[0])}"'
                f' table-column="{_attr(origin[1])}"')
            fragments.append(
                f'<column id="{var_id}" name="{_attr(var.name)}" '
                f'width="{stats.width_of(var)!r}"'
                f'{_type_attrs(var.sql_type, "type-")}{source}/>')
        return fragments

    def _group(self, group) -> None:
        find = self.memo.find
        out = self.groups
        self._see(group.output_vars)
        out.append(
            f'<group id="{group.id}" rows="{group.cardinality!r}" '
            f'width="{group.row_width!r}" '
            f'outputs="{_ids(group.output_vars)}">')
        seen = set()
        for expr in group.expressions:
            children = tuple([find(c) for c in expr.children])
            if group.id in children:
                continue  # self-reference created by a merge
            key = (expr.key[0], children)
            if key in seen:
                continue
            seen.add(key)
            out.append(self._expression(expr, children))
        out.append("</group>")

    def _expression(self, expr: GroupExpression,
                    children: Tuple[int, ...]) -> str:
        op = expr.op
        try:
            name, family = _OPERATORS[type(op)]
        except KeyError:
            raise OptimizerError(
                f"cannot serialize operator {type(op).__name__}") from None
        head = (f'<expr children="{" ".join([str(c) for c in children])}" '
                f'op="{name}"')

        if family == _JOIN:
            pred = ("" if op.predicate is None
                    else f' pred="{self._ref(op.predicate)}"')
            return f'{head} join-kind="{op.kind.value}"{pred}/>'
        if family == _FILTER:
            return f'{head} pred="{self._ref(op.predicate)}"/>'
        if family == _SCAN:
            self._see(op.columns)
            return (f'{head} table="{_attr(op.table.name)}" '
                    f'alias="{_attr(op.alias)}" cols="{_ids(op.columns)}"/>')
        if family == _PROJECT:
            self._see([var for var, _ in op.outputs])
            outputs = "".join([
                f'<output var="{var.id}" e="{self._ref(scalar)}"/>'
                for var, scalar in op.outputs])
            return f'{head}>{outputs}</expr>'
        if family == _AGGREGATE:
            self._see(op.keys)
            self._see([var for var, _ in op.aggregates])
            phase = op.phase.value if expr.is_logical else op.phase
            aggregates = "".join([
                f'<aggregate var="{var.id}" e="{self._ref(agg)}"/>'
                for var, agg in op.aggregates])
            return (f'{head} phase="{phase}" keys="{_ids(op.keys)}">'
                    f'{aggregates}</expr>')
        # _UNION
        self._see(op.outputs)
        branches = ""
        if expr.is_logical:
            for branch in op.branch_columns:
                self._see(branch)
                branches += f'<branch cols="{_ids(branch)}"/>'
        return f'{head} cols="{_ids(op.outputs)}">{branches}</expr>'


# ---------------------------------------------------------------------------
# memo import (the PDW-side "memo parser")
# ---------------------------------------------------------------------------

class ParsedMemo:
    """A MEMO reconstructed from XML, plus column metadata.

    ``memo`` is a fully functional :class:`Memo` rebuilt against the shell
    database, so the PDW optimizer works with the same data structure the
    serial optimizer produced — faithfully mirroring the paper's design
    where both sides hold structurally identical memos.  ``parsed_bytes``
    is the size of the document it was read from (UTF-8 bytes): the
    reader's figure, beside the writer's ``len(memo_xml)``.
    """

    def __init__(self, memo: Memo, root_group: int,
                 vars_by_id: Dict[int, ex.ColumnVar],
                 stats: StatsContext, parsed_bytes: int = 0):
        self.memo = memo
        self.root_group = root_group
        self.vars_by_id = vars_by_id
        self.stats = stats
        self.parsed_bytes = parsed_bytes


def memo_from_xml(xml_text: str, shell: ShellDatabase,
                  tracer: Tracer = NULL_TRACER) -> ParsedMemo:
    """Parse the XML search space back into a MEMO (PDW component 4's
    first step, Figure 4 line 01)."""
    with tracer.span("xml.parse") as span:
        parsed = _MemoReader(shell).parse(xml_text)
        if tracer.enabled:
            span.set("bytes", parsed.parsed_bytes)
            span.set("groups", len(parsed.memo.canonical_groups()))
    return parsed


class _MemoReader:
    """Rebuilds the MEMO; every reference in the document is resolved
    through a lookup that names the id when it leads nowhere.

    A MEMO repeats the same id lists many times over (every alternative
    of a join names the same two children, every scan of a table the same
    columns), so each distinct ``children=`` / ``outputs=`` / ``cols=`` /
    ``keys=`` string is resolved once per document.
    """

    def __init__(self, shell: ShellDatabase):
        self.shell = shell
        self.stats = StatsContext(shell)
        self.vars_by_id: Dict[int, ex.ColumnVar] = {}
        self.exprs: Dict[str, ex.ScalarExpr] = {}
        self.groups: Dict[int, int] = {}   # id in the document -> in memo
        self._var_lists: Dict[str, Tuple[ex.ColumnVar, ...]] = {}
        self._group_lists: Dict[str, Tuple[int, ...]] = {}

    def parse(self, xml_text: str) -> ParsedMemo:
        document = ET.fromstring(xml_text)
        columns_el = document.find("columns")
        if columns_el is not None:
            for column in columns_el:
                self._column(column)
        exprs_el = document.find("exprs")
        if exprs_el is not None:
            for entry in exprs_el:
                ref = entry.get("id")
                if ref in self.exprs:
                    raise OptimizerError(
                        f"memo XML defines expression id {ref!r} twice")
                self.exprs[ref] = expr_from_element(entry[0],
                                                    self.vars_by_id)

        memo = Memo(self.stats)
        # First pass: create the shells so children can be referenced freely.
        shells = []
        for group_el in document.findall("group"):
            group = memo._new_group(
                self._var_tuple(group_el.get("outputs", "")),
                float(group_el.get("rows", "0")),
                float(group_el.get("width", "0")),
            )
            self.groups[int(group_el.get("id"))] = group.id
            shells.append((group.id, group_el))

        for group_id, group_el in shells:
            for expr_el in group_el.findall("expr"):
                op, is_logical = self._operator(expr_el)
                memo.add_expression(
                    group_id, op,
                    self._groups(expr_el.get("children", "")),
                    is_logical=is_logical)

        root_group, = self._groups(document.get("root"))
        return ParsedMemo(memo, root_group, self.vars_by_id, self.stats,
                          len(xml_text.encode("utf-8")))

    def _column(self, column: ET.Element) -> None:
        var_id = int(column.get("id"))
        self.vars_by_id[var_id] = ex.ColumnVar(
            var_id, column.get("name"),
            _type_from_attrs(column.attrib, "type-"))
        self.stats.var_widths[var_id] = float(column.get("width", "4"))
        if column.get("table"):
            self.stats.var_origins[var_id] = (
                column.get("table"), column.get("table-column"))

    def _var_tuple(self, ids: str) -> Tuple[ex.ColumnVar, ...]:
        found = self._var_lists.get(ids)
        if found is None:
            try:
                found = tuple([self.vars_by_id[int(v)] for v in ids.split()])
            except KeyError as error:
                raise OptimizerError(
                    f"memo XML references unknown column #{error.args[0]}"
                ) from None
            self._var_lists[ids] = found
        return found

    def _vars(self, ids: str) -> List[ex.ColumnVar]:
        return list(self._var_tuple(ids))

    def _groups(self, ids: str) -> Tuple[int, ...]:
        """Memo ids of the groups named; call once every group exists."""
        found = self._group_lists.get(ids)
        if found is None:
            try:
                found = tuple([self.groups[int(g)] for g in ids.split()])
            except KeyError as error:
                raise OptimizerError(
                    f"memo XML references unknown group {error.args[0]}"
                ) from None
            self._group_lists[ids] = found
        return found

    def _var(self, element: ET.Element) -> ex.ColumnVar:
        return self._var_tuple(element.get("var"))[0]

    def _expr(self, ref: str) -> ex.ScalarExpr:
        try:
            return self.exprs[ref]
        except KeyError:
            raise OptimizerError(
                f"memo XML references unknown expression id {ref!r}"
            ) from None

    def _operator(self, element: ET.Element):
        """``(operator, is_logical)`` of one ``<expr>``: logical operators
        come detached (no child links), physical ones from their class."""
        name = element.get("op")
        try:
            cls, family = _OPERATORS_BY_NAME[name]
        except KeyError:
            raise OptimizerError(
                f"unknown operator {name!r} in memo XML") from None

        if family == _JOIN:
            kind_name = element.get("join-kind")
            try:
                kind = _JOIN_KINDS[kind_name]
            except KeyError:
                raise OptimizerError(
                    f"unknown join kind {kind_name!r} in memo XML") from None
            ref = element.get("pred")
            predicate = None if ref is None else self._expr(ref)
            if name == "Join":
                return detached_join(kind, predicate), True
            return cls(kind, predicate), False

        if family == _FILTER:
            predicate = self._expr(element.get("pred"))
            if name == "Select":
                return detached_select(predicate), True
            return cls(predicate), False

        if family == _SCAN:
            table = self.shell.table(element.get("table"))
            columns = self._vars(element.get("cols"))
            alias = element.get("alias")
            if name == "Get":
                return LogicalGet(table, columns, alias), True
            return cls(table, columns, alias), False

        if family == _PROJECT:
            outputs = [(self._var(out), self._expr(out.get("e")))
                       for out in element.findall("output")]
            if name == "Project":
                project = LogicalProject.__new__(LogicalProject)
                project.children = []
                project.outputs = outputs
                return project, True
            return cls(outputs), False

        if family == _AGGREGATE:
            keys = self._vars(element.get("keys", ""))
            aggregates = [(self._var(agg), self._expr(agg.get("e")))
                          for agg in element.findall("aggregate")]
            phase = element.get("phase", "complete")
            if name == "GroupBy":
                return detached_groupby(keys, aggregates,
                                        AggPhase(phase)), True
            return cls(keys, aggregates, phase), False

        # _UNION
        outputs = self._vars(element.get("cols"))
        if name == "UnionAll":
            branches = [self._vars(branch.get("cols"))
                        for branch in element.findall("branch")]
            return detached_union(outputs, branches), True
        return cls(outputs), False

