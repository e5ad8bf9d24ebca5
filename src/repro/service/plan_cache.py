"""Parameterized plan cache: compile once, execute with many constants.

Industrial optimizers treat plan caching as table stakes: the same query
template arrives thousands of times per second with different literals,
and compiling each arrival from scratch would melt the control node.
The cache here implements the classic recipe, and a hit is a lex (none
for a text seen before) plus a value bind — no parser, no binder:

1. **Normalize** (:func:`parameterize`): lift every predicate/select
   literal to a positional parameter marker and use the re-rendered SQL
   — markers instead of constants — as the cache key.  ``SELECT ...
   WHERE o_orderdate < DATE '1995-03-15'`` and the same query with
   ``'1997-06-01'`` share one key.  Only the first sight of a text's
   *skeleton* (its token stream with every literal a slot,
   :func:`repro.sql.lexer.skeleton`) runs the parser; it records which
   literal tokens became parameters — with a folded unary minus and a
   ``DATE`` prefix — and which are structural, and a bounded memo keyed
   on the skeleton and the structural tokens' values answers every
   later text from its literal tokens alone, converted exactly as the
   parser converts them (:func:`repro.sql.lexer.literal_value`).  A
   bounded front on that memo maps each exact text seen to its shape,
   so a repeated text is not even lexed.
2. **Compile with sniffed constants**: on a miss the *original* SQL
   (real literals) is compiled, so cardinality estimation sees honest
   constants, and the resulting :class:`~repro.pdw.engine.CompiledQuery`
   is cached as the template for its shape.
3. **Re-bind on hit** (:func:`bind_params` + :func:`instantiate_plan`):
   the template's DSQL steps are parsed and bound once, at its first
   execution (:mod:`repro.appliance.prepared`) — the paper's node DBMS
   keeps the compiled statement of a re-issued step (§2.4).  A hit maps
   each changed template value to the *slot* its literal bound to in
   the prepared trees (:func:`slot_literals`); the runtime runs a path
   copy of each tree the new values reach, so the cached plan *shape*
   executes with the new constants and returns exactly the rows a fresh
   compilation would.  The step SQL is still rendered (a string join
   over each step split once) for the reference executor, the one
   reader of an execution's step text: the DMVs show the client's
   text and the Query Store stamps the template.

**What is never folded to a marker** — ``TOP n`` / ``LIMIT`` (the limit
is part of the plan: the control-node merge and per-step SQL bake it
in), literals inside interval/structure functions (``DATEADD``,
``SUBSTRING``, ``EXTRACT``, ``YEAR``), and ``ORDER BY`` / ``GROUP BY``
literals (positional semantics).  Those constants stay in the cache key,
so ``TOP 10`` and ``TOP 1000`` are distinct entries.  When a new
parameter vector cannot be substituted unambiguously (two parameter
positions shared one template value but now diverge, a parameter value
collides with a structural constant in the template, or a changed value
has no slot because the optimizer folded its literal away), the lookup
reports a miss and the query recompiles privately — correctness never
depends on substitution being possible.

Entries are LRU-evicted beyond ``capacity`` and invalidated when the
appliance's ``schema_version`` moves (DDL or data loads change the
statistics the template was costed against).  Hints participate in the
key, so a hinted query never reuses an unhinted plan.  All counters land
on the service's :class:`~repro.obs.metrics.MetricsRegistry` as
``pdw_service_plan_cache_*`` series — ``shape_parses`` counts the
first-sight parses, once per shape.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.appliance.prepared import LeafKey, ParamValue, literal_key
from repro.common.errors import ReproError
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.pdw.dsql import DsqlPlan, PlanBinding, execution_temp_name
from repro.pdw.engine import CompiledQuery
from repro.sql import ast_nodes as ast
from repro.sql.lexer import TokenType, literal_value, skeleton
from repro.sql.parser import LiteralSources, parse_query

#: Functions whose literal arguments shape the plan structurally —
#: interval arithmetic and string-position arguments feed cardinality
#: and output schema in ways a marker must not hide.  Their literals
#: stay verbatim in the cache key.
STABLE_FUNCTIONS = frozenset({"DATEADD", "SUBSTRING", "EXTRACT", "YEAR"})


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
    """The normalized identity of a query: key + lifted parameters.

    ``key`` includes the hints; ``text_key`` is the key of the text
    alone (the Query Store's shape).  ``parsed`` says whether computing
    this shape ran the parser and taught the memo a shape it did not
    hold — the first sight of its skeleton and structural values."""

    key: str
    params: Tuple[ParamValue, ...]
    structural: FrozenSet[ParamValue]
    text_key: str = ""
    parsed: bool = field(default=False, compare=False)


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
        _transform_statement(expr.subquery, fn)
    elif isinstance(expr, ast.ExistsExpr):
        _transform_statement(expr.subquery, fn)
    elif isinstance(expr, ast.ScalarSubquery):
        _transform_statement(expr.subquery, fn)
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
        _transform_statement(item.subquery, fn)
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

#: Where a parameter comes from in a text's literal tokens: (ordinal of
#: its token among them, negated by folded unary minus, is a date).
_Role = Tuple[int, bool, bool]
#: One literal token as :func:`repro.sql.lexer.skeleton` returns it.
_Token = Tuple[TokenType, str]


@dataclass(frozen=True)
class _Lifted:
    """What the first parse of a skeleton learned: the hint-free key,
    the parameter roles in order, the structural set."""

    key: str
    roles: Tuple[_Role, ...]
    structural: FrozenSet[ParamValue]


def _token_param(token: _Token, negated: bool, is_date: bool
                 ) -> ParamValue:
    """A literal token as the parameter the parse would have lifted."""
    value = literal_value(*token)
    if negated:
        value = -value
    return (type(value).__name__, value, is_date)


def _lift(sql: str) -> Tuple[str, Tuple[ParamValue, ...],
                             FrozenSet[ParamValue], Optional[List[_Role]]]:
    """Parse ``sql``, lift its literals: (hint-free key, parameters,
    structural set, each parameter's role — ``None`` when one did not
    come from a literal token)."""
    sources: LiteralSources = {}
    statement = parse_query(sql, sources)
    params: List[ParamValue] = []
    roles: Optional[List[_Role]] = []
    structural: set = set()

    def lift(literal: ast.Literal, stable: bool) -> Optional[ast.Expr]:
        nonlocal roles
        if (literal.value is None or isinstance(literal.value, bool)
                or stable):
            # NULL / TRUE / FALSE are predicate structure, not data;
            # stable-context constants shape the plan.
            structural.add(_param_value(literal))
            return None
        params.append(_param_value(literal))
        source = sources.get(id(literal))
        if source is None or roles is None:
            roles = None
        else:
            roles.append((source[0], source[1], literal.is_date))
        return ast.Literal(_Marker(len(params) - 1), is_date=False)

    _transform_statement(statement, lift)
    return statement.to_sql(), tuple(params), frozenset(structural), roles


def _hinted(key: str, hints: Optional[Tuple[Tuple[str, str], ...]]) -> str:
    if not hints:
        return key
    return key + " /*hints:" + ",".join(
        f"{table}={strategy}" for table, strategy in hints) + "*/"


def parameterize_by_parse(sql: str,
                          hints: Optional[Tuple[Tuple[str, str], ...]]
                          = None) -> QueryShape:
    """:func:`parameterize` by the parser alone, every time: the
    reference the skeleton memo is held to."""
    key, params, structural, _roles = _lift(sql)
    return QueryShape(_hinted(key, hints), params, structural, key,
                      parsed=True)


#: Skeletons remembered, least recently seen evicted; per skeleton, the
#: structural-value combinations remembered (cleared when full).
SKELETON_LIMIT = 512
SHAPES_PER_SKELETON = 64
#: Exact texts remembered in front of the skeleton memo, first in first
#: out.  A front hit keeps its skeleton's recency, so the skeleton memo
#: still evicts the least recently seen.
TEXT_LIMIT = 1024

# skeleton → (ordinals of its structural literal tokens,
#             {their values: _Lifted},
#             the key itself: a handle that finds its entry by identity,
#             not by comparing a fresh lex token by token)
_SKELETONS: "OrderedDict[Tuple[str, ...], Tuple[Tuple[int, ...], Dict[tuple, _Lifted], Tuple[str, ...]]]" = OrderedDict()
# text → (its skeleton's handle, its hint-free shape with ``parsed``
# False): the memo's front, so a text seen before is not even lexed.
_TEXTS: "OrderedDict[str, Tuple[Tuple[str, ...], QueryShape]]" = OrderedDict()
_SKELETONS_LOCK = threading.Lock()


def clear_shape_memo() -> None:
    """Forget every skeleton and every text (tests)."""
    with _SKELETONS_LOCK:
        _SKELETONS.clear()
        _TEXTS.clear()


def _seen(handle: Tuple[str, ...], sql: Optional[str] = None,
          shape: Optional[QueryShape] = None) -> None:
    """Mark the skeleton keyed by ``handle`` the most recently seen
    and, given ``shape``, put text ``sql`` into the front; the caller
    holds ``_SKELETONS_LOCK``."""
    try:
        _SKELETONS.move_to_end(handle)
    except KeyError:  # evicted since; the front still answers its texts
        pass
    if shape is not None:
        _TEXTS[sql] = (handle, shape)
        while len(_TEXTS) > TEXT_LIMIT:
            _TEXTS.popitem(last=False)


def parameterize(sql: str,
                 hints: Optional[Tuple[Tuple[str, str], ...]] = None
                 ) -> QueryShape:
    """Lift literals to markers; return the query's cache identity.

    The text is lexed into its skeleton — the token stream with every
    literal a slot — and looked up in a bounded memo.  A memo entry
    says which literal tokens are parameters (in order, with a folded
    unary minus and a ``DATE`` prefix) and which are structural; the
    structural tokens' values are part of the lookup.  Only a text
    whose skeleton and structural values were never seen is parsed
    (:func:`parameterize_by_parse`); every other call converts its
    parameter tokens exactly as the parser converts literals.  In front
    of the memo, a bounded map from exact text to hint-free shape
    answers a text seen before without lexing it; hints extend the key
    after either lookup.

    ``TOP``/``LIMIT`` values are integer attributes of the statement
    (not literal nodes), so they survive into the key by construction;
    stable-context literals (see module docstring) are kept verbatim
    and recorded in ``structural`` so :func:`bind_params` can refuse
    ambiguous substitutions.
    """
    seen = _TEXTS.get(sql)
    if seen is not None:
        handle, shape = seen
        with _SKELETONS_LOCK:
            _seen(handle)
        return shape if not hints else replace(
            shape, key=_hinted(shape.key, hints))
    parts, tokens = skeleton(sql)
    entry = _SKELETONS.get(parts)
    lifted = None
    if entry is not None:
        fixed, shapes, handle = entry
        lifted = shapes.get(tuple(tokens[ordinal] for ordinal in fixed))
    if lifted is not None:
        params = tuple(_token_param(tokens[ordinal], negated, is_date)
                       for ordinal, negated, is_date in lifted.roles)
        shape = QueryShape(lifted.key, params, lifted.structural,
                           lifted.key)
        with _SKELETONS_LOCK:
            _seen(handle, sql, shape)
        return shape if not hints else replace(
            shape, key=_hinted(lifted.key, hints))
    key, params, structural, roles = _lift(sql)
    learned = True
    if roles is not None and params == tuple(
            _token_param(tokens[ordinal], negated, is_date)
            for ordinal, negated, is_date in roles):
        lifted_ordinals = {ordinal for ordinal, _, _ in roles}
        fixed = tuple(ordinal for ordinal in range(len(tokens))
                      if ordinal not in lifted_ordinals)
        values = tuple(tokens[ordinal] for ordinal in fixed)
        with _SKELETONS_LOCK:
            entry = _SKELETONS.get(parts)
            if entry is None or entry[0] != fixed:
                entry = _SKELETONS[parts] = (fixed, {}, parts)
            _seen(entry[2], sql, QueryShape(key, params, structural, key))
            while len(_SKELETONS) > SKELETON_LIMIT:
                _SKELETONS.popitem(last=False)
            shapes = entry[1]
            # A racing first sight of the same text parsed too, but
            # only one of them teaches the memo.
            learned = values not in shapes
            if len(shapes) >= SHAPES_PER_SKELETON:
                shapes.clear()
            shapes[values] = _Lifted(key, tuple(roles), structural)
    return QueryShape(_hinted(key, hints), params, structural, key,
                      parsed=learned)


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


@lru_cache(maxsize=4096)
def _slot_of(value: ParamValue) -> LeafKey:
    return literal_key(value)


def slot_literals(mapping: Optional[Dict[ParamValue, ParamValue]]
                  ) -> Optional[Dict[LeafKey, ParamValue]]:
    """``mapping`` keyed by the literal slot each template value binds
    to (:func:`repro.appliance.prepared.literal_key`), or ``None`` when
    two template values bind to one slot but map to different values
    (``DATE '1995-3-1'`` and ``DATE '1995-03-01'``)."""
    literals: Dict[LeafKey, ParamValue] = {}
    for old, new in (mapping or {}).items():
        key = _slot_of(old)
        if literals.setdefault(key, new) != new:
            return None
    return literals


def rewrite_literals(sql: str,
                     mapping: Dict[ParamValue, ParamValue]) -> str:
    """Re-render ``sql`` with every literal found in ``mapping``
    replaced by its new value.  The reference for what
    :func:`instantiate_plan` substitutes (the tests hold the two
    together); DSQL step SQL is always parseable."""
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

#: A template step's SQL split for rendering: plain ``str`` text, an
#: ``int`` (the plan's n-th destination temp table, renamed per
#: execution) or a ``(LeafKey, text)`` literal (re-rendered when the
#: execution swaps its slot, else ``text``).
StepText = Tuple[object, ...]


def _split_step(sql: str, temp_names: List[str]) -> StepText:
    """Parse ``sql`` once and split its rendering around every literal
    and every temp-table name."""
    statement = parse_query(sql)
    literals: List[Tuple[LeafKey, str]] = []

    def lift(literal: ast.Literal, stable: bool) -> ast.Expr:
        del stable  # every literal gets a slot; the execution decides
        literals.append((_slot_of(_param_value(literal)), literal.to_sql()))
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

    * **parameter substitution** — when ``mapping`` is non-empty, the
      execution swaps the new values into the template's literal slots
      (:func:`slot_literals`), and each step's SQL carries them;
    * **temp-table namespacing** — every destination temp table gets an
      execution-unique name (``TEMP_ID_1`` → ``TEMP_ID_1_E42``) and all
      step SQL referencing it is renamed, so concurrent executions of
      the same (or different) plans never collide on the appliance.

    Every step carries a :class:`~repro.pdw.dsql.PlanBinding` to the
    template, so the runtime runs the template's prepared steps and
    never this SQL; the text is for the reference executor, which
    parses and binds it on every node (the DMVs show the client's text
    and the Query Store stamps the template).  The template's steps
    are parsed and split once, on first use, and kept on ``compiled``;
    after that an execution is a string join per step.  Returns the new plan plus the temp names this
    execution owns; the caller drops exactly those afterwards.
    """
    template = compiled.dsql_plan
    split = compiled.step_text
    if split is None:
        # Racing first executions build equal tuples; last store wins.
        split = compiled.step_text = [
            _split_step(step.sql, list(template.temp_names))
            for step in template.steps]
    literals = slot_literals(mapping)
    if literals is None:
        raise ReproError("literal substitution binds one slot twice")
    names = [execution_temp_name(name, execution_id)
             for name in template.temp_names]
    binding = PlanBinding(template, literals, tuple(names))
    owned = iter(names)
    steps = []
    for step, parts in zip(template.steps, split):
        rendered = []
        for part in parts:
            if type(part) is str:
                rendered.append(part)
            elif type(part) is int:
                rendered.append(names[part])
            else:
                new = literals.get(part[0])
                if new is None:
                    rendered.append(part[1])
                else:
                    _type_name, value, is_date = new
                    rendered.append(
                        ast.Literal(value, is_date=is_date).to_sql())
        changes = {"sql": "".join(rendered), "binding": binding}
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
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.shape_parses = 0
        self.inserts = 0
        # Each series resolved once, here; the counts render from zero.
        self._counters = {
            name: metrics.counter(f"pdw_service_plan_cache_{name}",
                                  f"Parameterized plan cache {name}"
                                  ).labels()
            for name in ("hits", "misses", "evictions", "invalidations",
                         "shape_parses", "inserts")}
        self._size = metrics.gauge("pdw_service_plan_cache_size",
                                   "Entries currently cached").labels()

    # -- operations ------------------------------------------------------------

    def shape(self, sql: str,
              hints: Optional[Tuple[Tuple[str, str], ...]] = None
              ) -> QueryShape:
        """:func:`parameterize`, counting the first-sight parses
        (``pdw_service_plan_cache_shape_parses``): once per shape, not
        once per query."""
        shape = parameterize(sql, hints)
        if shape.parsed:
            with self._lock:
                self.shape_parses += 1
            self._counters["shape_parses"].inc()
        return shape

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
                self._counters["invalidations"].inc()
                self._size.set(len(self._entries))
                entry = None
            if entry is None:
                self.misses += 1
                self._counters["misses"].inc()
                return None
            self._entries.move_to_end(shape.key)
            entry.hits += 1
            self.hits += 1
            self._counters["hits"].inc()
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
            self.inserts += 1
            self._counters["inserts"].inc()
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                self._counters["evictions"].inc()
            self._size.set(len(self._entries))
            return entry

    def invalidate_all(self) -> int:
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += dropped
            self._counters["invalidations"].inc(dropped)
            self._size.set(len(self._entries))
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
                "shape_parses": self.shape_parses,
                "inserts": self.inserts,
            }
