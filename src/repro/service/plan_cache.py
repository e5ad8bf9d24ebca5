"""Parameterized plan cache: compile once, execute with many constants.

Industrial optimizers treat plan caching as table stakes: the same query
template arrives thousands of times per second with different literals,
and compiling each arrival from scratch would melt the control node.
The cache here implements the classic recipe:

1. **Normalize** (:func:`parameterize`): parse the query, lift every
   predicate/select literal to a positional parameter marker, and use
   the re-rendered SQL — markers instead of constants — as the cache
   key.  ``SELECT ... WHERE o_orderdate < DATE '1995-03-15'`` and the
   same query with ``'1997-06-01'`` share one key.
2. **Compile with sniffed constants**: on a miss the *original* SQL
   (real literals) is compiled, so cardinality estimation sees honest
   constants, and the resulting :class:`~repro.pdw.engine.CompiledQuery`
   is cached as the template for its shape.
3. **Re-bind on hit** (:func:`bind_params` + :func:`instantiate_plan`):
   a hit substitutes the new call's literals into every DSQL step's SQL,
   so the cached plan *shape* executes with the new constants and
   returns exactly the rows a fresh compilation would.  Each template
   step is parsed once and kept split around its literals and temp-table
   names, so stamping out an execution is a string join — the paper's
   node DBMS keeps the compiled statement of a re-issued step (§2.4),
   and a cache hit here never re-parses one either.

**What is never folded to a marker** — ``TOP n`` / ``LIMIT`` (the limit
is part of the plan: the control-node merge and per-step SQL bake it
in), literals inside interval/structure functions (``DATEADD``,
``SUBSTRING``, ``EXTRACT``, ``YEAR``), and ``ORDER BY`` / ``GROUP BY``
literals (positional semantics).  Those constants stay in the cache key,
so ``TOP 10`` and ``TOP 1000`` are distinct entries.  When a new
parameter vector cannot be substituted unambiguously (two parameter
positions shared one template value but now diverge, or a parameter
value collides with a structural constant in the template), the lookup
reports a miss and the query recompiles — correctness never depends on
substitution being possible.

Entries are LRU-evicted beyond ``capacity`` and invalidated when the
appliance's ``schema_version`` moves (DDL or data loads change the
statistics the template was costed against).  Hints participate in the
key, so a hinted query never reuses an unhinted plan.  All counters land
on the service's :class:`~repro.obs.metrics.MetricsRegistry` as
``pdw_service_plan_cache_*`` series.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.common.errors import ReproError
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.pdw.dsql import DsqlPlan, execution_temp_name
from repro.pdw.engine import CompiledQuery
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_query

#: Functions whose literal arguments shape the plan structurally —
#: interval arithmetic and string-position arguments feed cardinality
#: and output schema in ways a marker must not hide.  Their literals
#: stay verbatim in the cache key.
STABLE_FUNCTIONS = frozenset({"DATEADD", "SUBSTRING", "EXTRACT", "YEAR"})

#: One literal's identity: (type name, value, is_date).  The type name
#: keeps ``True`` and ``1`` apart (Python hashes them equal).
ParamValue = Tuple[str, object, bool]


def _param_value(literal: ast.Literal) -> ParamValue:
    return (type(literal.value).__name__, literal.value, literal.is_date)


class _Marker:
    """Renders as ``$pN`` inside the normalized key SQL."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __repr__(self) -> str:
        return f"$p{self.index}"


@dataclass(frozen=True)
class QueryShape:
    """The normalized identity of a query: key + lifted parameters."""

    key: str
    params: Tuple[ParamValue, ...]
    structural: FrozenSet[ParamValue]

    @property
    def param_count(self) -> int:
        return len(self.params)


# -- AST literal transformation -------------------------------------------------

LiteralFn = Callable[[ast.Literal, bool], Optional[ast.Expr]]


def _transform_expr(expr: ast.Expr, fn: LiteralFn,
                    stable: bool) -> ast.Expr:
    """Rebuild ``expr`` bottom-up, replacing literals via ``fn``.

    ``fn(literal, stable)`` returns a replacement node or ``None`` to
    keep the literal; ``stable`` is True under contexts whose constants
    must stay in the key (see :data:`STABLE_FUNCTIONS`).
    """
    if isinstance(expr, ast.Literal):
        replacement = fn(expr, stable)
        return replacement if replacement is not None else expr
    if isinstance(expr, ast.BinaryOp):
        expr.left = _transform_expr(expr.left, fn, stable)
        expr.right = _transform_expr(expr.right, fn, stable)
    elif isinstance(expr, ast.UnaryOp):
        expr.operand = _transform_expr(expr.operand, fn, stable)
    elif isinstance(expr, ast.FuncCall):
        inner_stable = stable or expr.name.upper() in STABLE_FUNCTIONS
        expr.args = [_transform_expr(a, fn, inner_stable)
                     for a in expr.args]
    elif isinstance(expr, ast.Cast):
        expr.operand = _transform_expr(expr.operand, fn, stable)
    elif isinstance(expr, ast.CaseExpr):
        expr.whens = [
            (_transform_expr(cond, fn, stable),
             _transform_expr(result, fn, stable))
            for cond, result in expr.whens
        ]
        if expr.else_result is not None:
            expr.else_result = _transform_expr(expr.else_result, fn,
                                               stable)
    elif isinstance(expr, ast.InList):
        expr.operand = _transform_expr(expr.operand, fn, stable)
        expr.values = [_transform_expr(v, fn, stable)
                       for v in expr.values]
    elif isinstance(expr, ast.InSubquery):
        expr.operand = _transform_expr(expr.operand, fn, stable)
        _transform_select(expr.subquery, fn)
    elif isinstance(expr, ast.ExistsExpr):
        _transform_select(expr.subquery, fn)
    elif isinstance(expr, ast.ScalarSubquery):
        _transform_select(expr.subquery, fn)
    elif isinstance(expr, ast.Between):
        expr.operand = _transform_expr(expr.operand, fn, stable)
        expr.low = _transform_expr(expr.low, fn, stable)
        expr.high = _transform_expr(expr.high, fn, stable)
    elif isinstance(expr, ast.Like):
        expr.operand = _transform_expr(expr.operand, fn, stable)
        expr.pattern = _transform_expr(expr.pattern, fn, stable)
    elif isinstance(expr, ast.IsNull):
        expr.operand = _transform_expr(expr.operand, fn, stable)
    return expr


def _transform_from_item(item: ast.FromItem, fn: LiteralFn) -> None:
    if isinstance(item, ast.DerivedTable):
        _transform_select(item.subquery, fn)
    elif isinstance(item, ast.JoinClause):
        _transform_from_item(item.left, fn)
        _transform_from_item(item.right, fn)
        if item.condition is not None:
            item.condition = _transform_expr(item.condition, fn, False)


def _transform_select(stmt: ast.SelectStatement, fn: LiteralFn) -> None:
    for item in stmt.select_items:
        item.expr = _transform_expr(item.expr, fn, False)
    for from_item in stmt.from_items:
        _transform_from_item(from_item, fn)
    if stmt.where is not None:
        stmt.where = _transform_expr(stmt.where, fn, False)
    # GROUP BY / ORDER BY literals carry positional semantics — keep
    # them in the key (stable context).
    stmt.group_by = [_transform_expr(e, fn, True) for e in stmt.group_by]
    if stmt.having is not None:
        stmt.having = _transform_expr(stmt.having, fn, False)
    for order in stmt.order_by:
        order.expr = _transform_expr(order.expr, fn, True)


def _transform_statement(stmt, fn: LiteralFn) -> None:
    if isinstance(stmt, ast.UnionSelect):
        for select in stmt.selects:
            _transform_select(select, fn)
        for order in stmt.order_by:
            order.expr = _transform_expr(order.expr, fn, True)
    else:
        _transform_select(stmt, fn)


# -- normalization --------------------------------------------------------------

def parameterize(sql: str,
                 hints: Optional[Tuple[Tuple[str, str], ...]] = None
                 ) -> QueryShape:
    """Lift literals to markers; return the query's cache identity.

    ``TOP``/``LIMIT`` values are integer attributes of the statement
    (not literal nodes), so they survive into the key by construction;
    stable-context literals (see module docstring) are kept verbatim
    and recorded in ``structural`` so :func:`bind_params` can refuse
    ambiguous substitutions.
    """
    statement = parse_query(sql)
    params: List[ParamValue] = []
    structural: set = set()

    def lift(literal: ast.Literal, stable: bool) -> Optional[ast.Expr]:
        if literal.value is None or isinstance(literal.value, bool):
            # NULL / TRUE / FALSE are predicate structure, not data.
            structural.add(_param_value(literal))
            return None
        if stable:
            structural.add(_param_value(literal))
            return None
        params.append(_param_value(literal))
        return ast.Literal(_Marker(len(params) - 1), is_date=False)

    _transform_statement(statement, lift)
    key = statement.to_sql()
    if hints:
        key += " /*hints:" + ",".join(
            f"{table}={strategy}" for table, strategy in hints) + "*/"
    return QueryShape(key=key, params=tuple(params),
                      structural=frozenset(structural))


def bind_params(template: Tuple[ParamValue, ...],
                requested: Tuple[ParamValue, ...],
                structural: FrozenSet[ParamValue]
                ) -> Optional[Dict[ParamValue, ParamValue]]:
    """The literal substitution map turning the template's constants
    into the requested call's, or ``None`` when substitution would be
    ambiguous (the caller then recompiles).

    Ambiguity arises when two parameter positions carried the same
    value in the template but now diverge — a value-based rewrite of
    the step SQL could not tell them apart — or when a value slated for
    rewriting also appears as a structural constant of the template.
    An identical parameter vector yields the empty map (pure hit, no
    rewriting needed).
    """
    if len(template) != len(requested):
        return None  # different shape despite equal key; recompile
    mapping: Dict[ParamValue, ParamValue] = {}
    for old, new in zip(template, requested):
        seen = mapping.get(old)
        if seen is not None and seen != new:
            return None
        mapping[old] = new
    mapping = {old: new for old, new in mapping.items() if old != new}
    if any(old in structural for old in mapping):
        return None
    return mapping


def rewrite_literals(sql: str,
                     mapping: Dict[ParamValue, ParamValue]) -> str:
    """Re-render ``sql`` with every literal found in ``mapping``
    replaced by its new value.  The reference for what
    :func:`instantiate_plan` substitutes (the tests hold the two
    together); DSQL step SQL is always parseable (the runtime itself
    parses it per step)."""
    statement = parse_query(sql)

    def substitute(literal: ast.Literal, stable: bool
                   ) -> Optional[ast.Expr]:
        del stable  # structural collisions were excluded by bind_params
        new = mapping.get(_param_value(literal))
        if new is None:
            return None
        _type_name, value, is_date = new
        return ast.Literal(value, is_date=is_date)

    _transform_statement(statement, substitute)
    return statement.to_sql()


# -- plan instantiation ---------------------------------------------------------

#: A template step's SQL split for re-binding: plain ``str`` text, an
#: ``int`` (the plan's n-th destination temp table, renamed per
#: execution) or a ``(ParamValue, text)`` literal (re-rendered when the
#: mapping replaces its value, else ``text``).
PreparedStep = Tuple[object, ...]


def _prepare_step(sql: str, temp_names: List[str]) -> PreparedStep:
    """Parse ``sql`` once and split its rendering around every literal
    :func:`rewrite_literals` would visit and every temp-table name."""
    statement = parse_query(sql)
    literals: List[Tuple[ParamValue, str]] = []

    def lift(literal: ast.Literal, stable: bool) -> ast.Expr:
        del stable  # every literal gets a slot; the mapping decides
        literals.append((_param_value(literal), literal.to_sql()))
        return ast.Literal(_Marker(len(literals) - 1))

    _transform_statement(statement, lift)
    # With every literal lifted the text holds identifiers, keywords
    # and markers only, so a temp name cannot match inside a string.
    text = statement.to_sql()
    pattern = r"\$p(\d+)"
    if temp_names:
        # Word-boundary match is exact: TEMP_ID_1 never matches inside
        # TEMP_ID_10.
        pattern += (r"|\b(" + "|".join(map(re.escape, temp_names))
                    + r")\b")
    temp_index = {name.lower(): i for i, name in enumerate(temp_names)}
    parts: List[object] = []
    position = lifted = 0
    for match in re.finditer(pattern, text, re.IGNORECASE):
        parts.append(text[position:match.start()])
        if match.group(1) is not None:
            parts.append(literals[int(match.group(1))])
            lifted += 1
        else:
            parts.append(temp_index[match.group(2).lower()])
        position = match.end()
    parts.append(text[position:])
    if lifted != len(literals):
        raise ReproError(
            f"step SQL does not render each literal once: {sql!r}")
    return tuple(parts)


def instantiate_plan(compiled: CompiledQuery,
                     mapping: Optional[Dict[ParamValue, ParamValue]],
                     execution_id: int
                     ) -> Tuple[DsqlPlan, List[str]]:
    """An executable copy of the template's DSQL plan for one execution.

    Two rewrites happen here:

    * **parameter substitution** — when ``mapping`` is non-empty, each
      step's SQL carries the new literal values;
    * **temp-table namespacing** — every destination temp table gets an
      execution-unique name (``TEMP_ID_1`` → ``TEMP_ID_1_E42``) and all
      step SQL referencing it is renamed, so concurrent executions of
      the same (or different) plans never collide on the appliance.

    The template's steps are parsed and split once, on first use, and
    kept on ``compiled``; after that an execution is a string join per
    step.  Returns the new plan plus the temp names this execution
    owns; the caller drops exactly those afterwards.
    """
    template = compiled.dsql_plan
    prepared = compiled.prepared_steps
    if prepared is None:
        # Racing first executions build equal tuples; last store wins.
        temp_names = [step.destination_table.name
                      for step in template.steps
                      if step.destination_table is not None]
        prepared = compiled.prepared_steps = [
            _prepare_step(step.sql, temp_names) for step in template.steps]
    names = [execution_temp_name(step.destination_table.name, execution_id)
             for step in template.steps
             if step.destination_table is not None]
    mapping = mapping or {}
    owned = iter(names)
    steps = []
    for step, parts in zip(template.steps, prepared):
        rendered = []
        for part in parts:
            if type(part) is str:
                rendered.append(part)
            elif type(part) is int:
                rendered.append(names[part])
            else:
                new = mapping.get(part[0])
                if new is None:
                    rendered.append(part[1])
                else:
                    _type_name, value, is_date = new
                    rendered.append(
                        ast.Literal(value, is_date=is_date).to_sql())
        changes = {"sql": "".join(rendered)}
        if step.destination_table is not None:
            changes["destination_table"] = replace(
                step.destination_table, name=next(owned))
        steps.append(replace(step, **changes))
    return replace(template, steps=steps), names


# -- the cache ------------------------------------------------------------------

@dataclass
class CacheEntry:
    """One cached template: the shape it serves and its compilation."""

    shape: QueryShape
    compiled: CompiledQuery
    schema_version: int
    compile_count: int = 1
    hits: int = 0
    misses_ambiguous: int = 0

    # Executions of this entry observed so far (hammer tests assert
    # compile_count == 1 while executions >> 1).
    executions: int = field(default=0)


class PlanCache:
    """LRU cache of compiled query templates keyed on normalized shape.

    Thread-safe; all mutation happens under one lock.  The cache never
    compiles — the service owns single-flight compilation — it only
    stores, looks up, evicts and invalidates.
    """

    def __init__(self, capacity: int = 64,
                 metrics: MetricsRegistry = NULL_METRICS):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self.metrics = metrics
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # -- metric plumbing -------------------------------------------------------

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.metrics.enabled:
            self.metrics.counter(
                f"pdw_service_plan_cache_{name}",
                f"Parameterized plan cache {name}").inc(amount)

    def _set_size(self) -> None:
        if self.metrics.enabled:
            self.metrics.gauge(
                "pdw_service_plan_cache_size",
                "Entries currently cached").set(len(self._entries))

    # -- operations ------------------------------------------------------------

    def lookup(self, shape: QueryShape,
               schema_version: int) -> Optional[CacheEntry]:
        """The entry serving ``shape``, or ``None`` (counted as a miss).

        An entry compiled under an older ``schema_version`` is dropped
        (DDL invalidation) and reported as a miss.
        """
        with self._lock:
            entry = self._entries.get(shape.key)
            if entry is not None and entry.schema_version != schema_version:
                del self._entries[shape.key]
                self.invalidations += 1
                self._count("invalidations")
                self._set_size()
                entry = None
            if entry is None:
                self.misses += 1
                self._count("misses")
                return None
            self._entries.move_to_end(shape.key)
            entry.hits += 1
            self.hits += 1
            self._count("hits")
            return entry

    def peek(self, key: str) -> Optional[CacheEntry]:
        """Lookup without counting or LRU movement (single-flight
        re-checks and tests)."""
        with self._lock:
            return self._entries.get(key)

    def insert(self, entry: CacheEntry) -> CacheEntry:
        """Insert (or return the racing winner for) ``entry.shape``."""
        with self._lock:
            existing = self._entries.get(entry.shape.key)
            if existing is not None \
                    and existing.schema_version == entry.schema_version:
                return existing
            self._entries[entry.shape.key] = entry
            self._entries.move_to_end(entry.shape.key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                self._count("evictions")
            self._set_size()
            return entry

    def invalidate_all(self) -> int:
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += dropped
            self._count("invalidations", dropped)
            self._set_size()
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def entries(self) -> List[CacheEntry]:
        with self._lock:
            return list(self._entries.values())

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
