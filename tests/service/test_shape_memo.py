"""Lex-only ``parameterize`` against the parser.

A text whose skeleton (its token stream with every literal a slot) and
structural literal values were seen before is normalized from its
literal tokens alone.  Whatever the text, the result must be the one
:func:`parameterize_by_parse` computes — key, parameters, structural
set — and only the first sight of a skeleton may parse.
"""

from __future__ import annotations

import random

import pytest

import repro.sql.parser as sql_parser
from repro.service import plan_cache
from repro.service.plan_cache import parameterize, parameterize_by_parse
from repro.service.traffic import DEFAULT_MIX
from repro.sql.lexer import TokenType, tokenize
from repro.workloads.tpch_queries import TPCH_QUERIES

ADVERSARIAL = [
    # A minus that is an operator, folded into the literal, or spaced.
    "SELECT a FROM t WHERE x - 5 > 1",
    "SELECT a FROM t WHERE x > -5",
    "SELECT a FROM t WHERE x > - 5",
    "SELECT a FROM t WHERE x > - -5 AND y < -1.5",
    "SELECT a FROM t WHERE -x > 5",
    "SELECT a FROM t WHERE x > +5",
    # Escaped quotes, empty strings, quotes and digits in comments.
    "SELECT a FROM t WHERE s = 'it''s' AND u = ''",
    "SELECT a -- it's 5 o'clock\nFROM t /* 'x' 7 */ WHERE b = 3",
    "SELECT a FROM t WHERE b = 3 /* 4 */ AND c = '/* 5 */'",
    # Quoted and digit-bearing identifiers, leading-dot decimals.
    "SELECT [col 1] FROM t WHERE [col 1] > 2",
    'SELECT "col 2" FROM t WHERE "col 2" > 2',
    "SELECT c0_lap3 FROM t WHERE c0_lap3 = 4",
    "SELECT a FROM t WHERE x < .5 AND y < 0.5 AND z < 5.25",
    "SELECT a FROM t1.t WHERE t.x = 1",
    # TOP / LIMIT, SUBSTRING / DATEADD / YEAR arguments, ordinals.
    "SELECT TOP 5 a FROM t WHERE b = 3",
    "SELECT a FROM t WHERE b = 3 ORDER BY a LIMIT 7",
    "SELECT SUBSTRING(s, 1, 3) AS p FROM t WHERE s = 'ab'",
    "SELECT a FROM t WHERE DATEADD(day, -30, d) > DATE '1995-01-01'",
    "SELECT a FROM t WHERE d < DATEADD(month, 3, DATE '1995-01-01') "
    "AND d >= DATE '1995-01-01'",
    "SELECT a FROM t WHERE YEAR(d) = 1995 AND b = 1995",
    "SELECT a, COUNT(*) AS n FROM t WHERE b > 2 GROUP BY 1 ORDER BY 2 DESC",
    # NULL / TRUE / FALSE, repeated values, IN lists of two lengths.
    "SELECT a FROM t WHERE a IS NULL AND b = TRUE AND c = 5",
    "SELECT a FROM t WHERE a = NULL OR b = FALSE",
    "SELECT a FROM t WHERE a = 5 AND b = 5 AND c = '5'",
    "SELECT a FROM t WHERE a IN (1, 2, 3)",
    "SELECT a FROM t WHERE a IN (1, 2)",
    "SELECT a FROM t WHERE s IN ('x', 'y') AND s NOT IN ('z')",
    # Everything else a literal can sit in.
    "SELECT a FROM t WHERE x BETWEEN 1 AND 5 AND s LIKE 'A%'",
    "SELECT CASE WHEN a > 1 THEN 'x' ELSE 'y' END AS c FROM t",
    "SELECT CAST(a AS DECIMAL(15, 2)) AS c FROM t WHERE a > 2.25",
    "SELECT a FROM t WHERE a IN (SELECT b FROM u WHERE c = 3)",
    "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.b = t.a)",
    "SELECT a FROM t WHERE b = 1 UNION ALL SELECT a FROM u WHERE b = 2 "
    "ORDER BY 1",
    "select a from t where b = 1 and s = 'x'",
    "SELECT a FROM t WHERE s = 'é' AND b = 2 AND c = '日本'",
    "SELECT a FROM t WHERE b = 2;",
]


def _corpus():
    rng = random.Random(26)
    texts = list(TPCH_QUERIES.values()) + ADVERSARIAL
    for template in DEFAULT_MIX:
        texts.extend(template.make_sql(rng) for _ in range(3))
    return texts


def _variants(sql: str, count: int = 3):
    """``sql`` with its literal tokens rewritten — integers, decimals
    and strings moved to other values of their kind, the text around
    them untouched — ``count`` ways."""
    starts = [0]
    for line in sql.split("\n"):
        starts.append(starts[-1] + len(line) + 1)
    spans = []
    for token in tokenize(sql):
        start = starts[token.line - 1] + token.column - 1
        if token.type is TokenType.NUMBER:
            spans.append((start, start + len(token.value), token))
        elif token.type is TokenType.STRING:
            raw = token.value.replace("'", "''")
            spans.append((start, start + len(raw) + 2, token))
    for shift in range(1, count + 1):
        text = sql
        for start, end, token in reversed(spans):
            if token.type is TokenType.STRING:
                new = "'" + (token.value + "'" * shift)[shift:].replace(
                    "'", "''") + "'"
            elif "." in token.value:
                new = f"{float(token.value) + shift / 4:.3f}"
            else:
                new = str(int(token.value) + shift)
            text = text[:start] + new + text[end:]
        yield text


@pytest.fixture(autouse=True)
def fresh_memo():
    plan_cache.clear_shape_memo()
    yield
    plan_cache.clear_shape_memo()


@pytest.mark.parametrize("sql", _corpus())
def test_lex_only_shape_is_the_parsed_shape(sql):
    first = parameterize(sql)
    assert first.parsed
    assert first == parameterize_by_parse(sql)
    again = parameterize(sql)
    assert not again.parsed and again == first
    for text in _variants(sql):
        shape = parameterize(text)
        reference = parameterize_by_parse(text)
        assert (shape.key, shape.params, shape.structural,
                shape.text_key) == (reference.key, reference.params,
                                    reference.structural,
                                    reference.text_key), text


def test_hints_extend_the_key_not_the_memo():
    sql = "SELECT c_name FROM customer, orders WHERE c_custkey = 4"
    hints = (("customer", "shuffle"),)
    plain = parameterize(sql)
    hinted = parameterize(sql, hints)
    assert not hinted.parsed  # one skeleton, one parse
    assert hinted == parameterize_by_parse(sql, hints)
    assert hinted.key != plain.key and hinted.text_key == plain.key


def test_only_first_sights_parse(monkeypatch):
    parses = []
    parse = sql_parser.parse
    monkeypatch.setattr(sql_parser, "parse",
                        lambda *args: parses.append(args) or parse(*args))
    template = "SELECT a FROM t WHERE b = {} AND s = '{}' LIMIT {}"
    for value in range(50):
        parameterize(template.format(value, f"v{value}", 10))
    assert len(parses) == 1
    # A structural value never seen before is a new shape: one parse.
    parameterize(template.format(3, "w", 11))
    assert len(parses) == 2
    shape = parameterize(template.format(7, "x", 11))
    assert len(parses) == 2
    assert shape == parameterize_by_parse(template.format(7, "x", 11))


def test_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(plan_cache, "SKELETON_LIMIT", 8)
    monkeypatch.setattr(plan_cache, "SHAPES_PER_SKELETON", 4)
    for column in range(20):
        for limit in range(10):
            parameterize(f"SELECT c{column} FROM t WHERE b = 1 "
                         f"LIMIT {limit}")
    assert len(plan_cache._SKELETONS) == 8
    assert all(len(shapes) <= 4
               for _fixed, shapes, _ in plan_cache._SKELETONS.values())


def test_syntax_errors_are_the_parsers():
    for sql in ("SELECT a FROM t WHERE s = 'open", "SELECT a FROM t WHERE",
                "SELECT a FROM t WHERE b = $1"):
        with pytest.raises(Exception) as lexed:
            parameterize(sql)
        with pytest.raises(Exception) as parsed:
            parameterize_by_parse(sql)
        assert str(lexed.value) == str(parsed.value)
        assert type(lexed.value) is type(parsed.value)


def test_moved_parameters_are_memo_hits():
    """The corpus's variants move every literal; those whose moved
    literals are all parameters must find the first sight's entry."""
    hits = parses = 0
    for sql in _corpus():
        first = parameterize(sql)
        for text in _variants(sql):
            shape = parameterize(text)
            if shape.structural == first.structural \
                    and shape.key == first.key:
                hits += not shape.parsed
                parses += shape.parsed
    assert hits > 100 and parses == 0


# -- the exact-text front -------------------------------------------------------

HINT_VARIANTS = (None, (("customer", "shuffle"),),
                 (("customer", "replicate"), ("orders", "shuffle")))


def _fields(shape):
    return (shape.key, shape.params, shape.structural, shape.text_key)


@pytest.mark.parametrize("sql", TPCH_QUERIES.values())
def test_a_front_hit_is_the_fresh_lex(sql, monkeypatch):
    lexes = []
    lex = plan_cache.skeleton
    monkeypatch.setattr(plan_cache, "skeleton",
                        lambda text: lexes.append(text) or lex(text))
    parameterize(sql)
    for text in [sql, *_variants(sql, 2)]:
        parameterize(text)  # into the front
        for hints in HINT_VARIANTS:
            lexed = len(lexes)
            hit = parameterize(text, hints)
            assert len(lexes) == lexed  # answered by the front
            assert not hit.parsed
            with plan_cache._SKELETONS_LOCK:
                plan_cache._TEXTS.clear()
            fresh = parameterize(text, hints)  # the skeleton memo's lex
            assert len(lexes) == lexed + 1 and not fresh.parsed
            assert _fields(hit) == _fields(fresh) \
                == _fields(parameterize_by_parse(text, hints))


def test_the_front_is_bounded_and_cleared(monkeypatch):
    monkeypatch.setattr(plan_cache, "TEXT_LIMIT", 8)
    texts = [f"SELECT a FROM t WHERE b = {value}" for value in range(20)]
    for text in texts:
        parameterize(text)
    assert list(plan_cache._TEXTS) == texts[-8:]  # first in, first out
    plan_cache.clear_shape_memo()
    assert not plan_cache._TEXTS and not plan_cache._SKELETONS


def test_a_never_seen_text_counts_one_shape_parse():
    from repro.obs.metrics import MetricsRegistry
    from repro.service.plan_cache import PlanCache

    cache = PlanCache(metrics=MetricsRegistry())
    template = "SELECT a FROM t WHERE b = {}"
    cache.shape(template.format(1))
    assert cache.stats()["shape_parses"] == 1
    for _ in range(3):  # the front
        cache.shape(template.format(1))
        cache.shape(template.format(1), (("t", "shuffle"),))
    cache.shape(template.format(2))  # the skeleton memo
    assert cache.stats()["shape_parses"] == 1
    cache.shape("SELECT a FROM u WHERE b = 1")
    assert cache.stats()["shape_parses"] == 2


def test_a_front_hit_keeps_its_skeleton_recent(monkeypatch):
    """A template served from the front stays in the skeleton memo
    however many other skeletons pass through it, so its next new
    literal is lexed, not parsed, and ``shape_parses`` still equals the
    plan cache's inserts."""
    from repro.obs.metrics import MetricsRegistry
    from repro.service.plan_cache import PlanCache

    monkeypatch.setattr(plan_cache, "SKELETON_LIMIT", 8)
    cache = PlanCache(metrics=MetricsRegistry())
    hot = "SELECT a FROM t WHERE b = {}"
    cache.shape(hot.format(1))
    for table in range(3 * plan_cache.SKELETON_LIMIT):
        cache.shape(hot.format(1))  # the front
        cache.shape(f"SELECT a FROM t{table} WHERE b = 1")
    parses = cache.stats()["shape_parses"]
    assert parses == 1 + 3 * plan_cache.SKELETON_LIMIT
    assert len(plan_cache._SKELETONS) == plan_cache.SKELETON_LIMIT
    assert not cache.shape(hot.format(2)).parsed  # the skeleton memo
    assert cache.stats()["shape_parses"] == parses
