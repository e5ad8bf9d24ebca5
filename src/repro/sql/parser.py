"""Recursive-descent SQL parser.

Grammar (informal)::

    statement   := select | create_table | insert
    select      := SELECT [DISTINCT] [TOP n] items FROM from_list
                   [WHERE expr] [GROUP BY exprs] [HAVING expr]
                   [ORDER BY order_items] [LIMIT n]
    from_list   := from_item ("," from_item)*
    from_item   := primary_from (join_clause)*
    expr        := precedence-climbing over OR / AND / NOT / comparisons /
                   additive / multiplicative / unary / primary

Expression parsing uses classic precedence climbing; subqueries appear as
``(SELECT ...)`` primaries, ``IN (SELECT ...)``, or ``EXISTS (...)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.errors import SqlSyntaxError
from repro.sql import ast_nodes as ast
from repro.sql.lexer import Token, TokenType, literal_value, tokenize

#: Where each literal node of a parse came from: ``id(literal)`` →
#: (ordinal of its NUMBER/STRING token among the text's literal tokens,
#: whether a unary minus was folded into it an odd number of times).
LiteralSources = Dict[int, Tuple[int, bool]]

_COMPARISON_OPS = ("=", "<>", "!=", "<", "<=", ">", ">=")
_TYPE_KEYWORDS = (
    "INTEGER", "INT", "BIGINT", "DOUBLE", "VARCHAR", "CHAR", "DECIMAL",
    "DATE", "BOOLEAN",
)


class Parser:
    """One-shot parser over a token stream; use :func:`parse`.

    With ``sources`` given, every literal node made from a NUMBER or
    STRING token is recorded there (:data:`LiteralSources`)."""

    def __init__(self, text: str,
                 sources: Optional[LiteralSources] = None):
        self._tokens = tokenize(text)
        self._pos = 0
        self._sources = sources
        if sources is not None:
            literal_positions = [
                position for position, token in enumerate(self._tokens)
                if token.type in (TokenType.NUMBER, TokenType.STRING)]
            self._ordinals = {position: ordinal for ordinal, position
                              in enumerate(literal_positions)}

    # -- token helpers ------------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _peek(self, offset: int = 1) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._current
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _error(self, message: str) -> SqlSyntaxError:
        token = self._current
        return SqlSyntaxError(
            f"{message}, found {token}", token.line, token.column
        )

    def _accept_keyword(self, *names: str) -> bool:
        if self._current.is_keyword(*names):
            self._advance()
            return True
        return False

    def _literal(self, value: object, position: int,
                 is_date: bool = False) -> ast.Literal:
        """A literal node for the token at ``position``."""
        literal = ast.Literal(value, is_date=is_date)
        if self._sources is not None:
            self._sources[id(literal)] = (self._ordinals[position], False)
        return literal

    def _expect_keyword(self, name: str) -> Token:
        if not self._current.is_keyword(name):
            raise self._error(f"expected {name}")
        return self._advance()

    def _accept_operator(self, op: str) -> bool:
        token = self._current
        if token.type is TokenType.OPERATOR and token.value == op:
            self._advance()
            return True
        return False

    def _expect_operator(self, op: str) -> Token:
        token = self._current
        if token.type is not TokenType.OPERATOR or token.value != op:
            raise self._error(f"expected {op!r}")
        return self._advance()

    def _expect_ident(self) -> str:
        token = self._current
        if token.type is TokenType.IDENT:
            return self._advance().value
        # Non-reserved keywords usable as identifiers (e.g. a column named
        # "year") — allow a small safe subset.
        if token.is_keyword("YEAR", "MONTH", "DAY", "DATE"):
            return self._advance().value.lower()
        raise self._error("expected identifier")

    # -- statements ---------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        if self._current.is_keyword("SELECT"):
            stmt: ast.Statement = self._parse_select_or_union()
        elif self._current.is_keyword("CREATE"):
            stmt = self._parse_create_table()
        elif self._current.is_keyword("INSERT"):
            stmt = self._parse_insert()
        else:
            raise self._error("expected SELECT, CREATE or INSERT")
        self._accept_operator(";")
        if self._current.type is not TokenType.EOF:
            raise self._error("unexpected trailing input")
        return stmt

    def _parse_select_or_union(self) -> ast.Statement:
        selects = [self.parse_select()]
        while self._current.is_keyword("UNION"):
            self._advance()
            self._expect_keyword("ALL")
            selects.append(self.parse_select())
        if len(selects) == 1:
            return selects[0]
        # ORDER BY / LIMIT bind to the whole union; they may only appear
        # on the textually-last branch, from which we lift them.
        for inner in selects[:-1]:
            if inner.order_by or inner.limit is not None:
                raise self._error(
                    "ORDER BY/LIMIT only allowed after the last UNION "
                    "branch")
        last = selects[-1]
        order_by, last.order_by = last.order_by, []
        limit, last.limit = last.limit, None
        return ast.UnionSelect(selects, order_by, limit)

    def _parse_create_table(self) -> ast.CreateTableStatement:
        self._expect_keyword("CREATE")
        self._expect_keyword("TABLE")
        name = self._expect_ident()
        self._expect_operator("(")
        columns = [self._parse_column_def()]
        while self._accept_operator(","):
            columns.append(self._parse_column_def())
        self._expect_operator(")")
        return ast.CreateTableStatement(name, columns)

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self._expect_ident()
        type_name = self._parse_type_name()
        return ast.ColumnDef(name, type_name)

    def _parse_type_name(self) -> str:
        token = self._current
        if not token.is_keyword(*_TYPE_KEYWORDS):
            raise self._error("expected type name")
        self._advance()
        base = token.value
        if base == "DOUBLE" and self._accept_keyword("PRECISION"):
            base = "DOUBLE PRECISION"
        if self._accept_operator("("):
            args = [self._expect_number_literal()]
            while self._accept_operator(","):
                args.append(self._expect_number_literal())
            self._expect_operator(")")
            rendered = ", ".join(str(int(a)) for a in args)
            return f"{base}({rendered})"
        return base

    def _expect_number_literal(self) -> float:
        token = self._current
        if token.type is not TokenType.NUMBER:
            raise self._error("expected numeric literal")
        self._advance()
        return float(token.value)

    def _parse_insert(self) -> ast.InsertStatement:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_ident()
        columns: List[str] = []
        if self._accept_operator("("):
            columns.append(self._expect_ident())
            while self._accept_operator(","):
                columns.append(self._expect_ident())
            self._expect_operator(")")
        if self._current.is_keyword("SELECT"):
            return ast.InsertStatement(table, columns, select=self.parse_select())
        self._expect_keyword("VALUES")
        rows = [self._parse_value_row()]
        while self._accept_operator(","):
            rows.append(self._parse_value_row())
        return ast.InsertStatement(table, columns, values=rows)

    def _parse_value_row(self) -> List[ast.Expr]:
        self._expect_operator("(")
        row = [self.parse_expression()]
        while self._accept_operator(","):
            row.append(self.parse_expression())
        self._expect_operator(")")
        return row

    # -- SELECT -------------------------------------------------------------

    def parse_select(self) -> ast.SelectStatement:
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT")
        limit: Optional[int] = None
        if self._accept_keyword("TOP"):
            limit = int(self._expect_number_literal())
        select_items = [self._parse_select_item()]
        while self._accept_operator(","):
            select_items.append(self._parse_select_item())

        from_items: List[ast.FromItem] = []
        if self._accept_keyword("FROM"):
            from_items.append(self._parse_from_item())
            while self._accept_operator(","):
                from_items.append(self._parse_from_item())

        where = self.parse_expression() if self._accept_keyword("WHERE") else None

        group_by: List[ast.Expr] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self.parse_expression())
            while self._accept_operator(","):
                group_by.append(self.parse_expression())

        having = self.parse_expression() if self._accept_keyword("HAVING") else None

        order_by: List[ast.OrderItem] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._accept_operator(","):
                order_by.append(self._parse_order_item())

        if self._accept_keyword("LIMIT"):
            limit = int(self._expect_number_literal())

        return ast.SelectStatement(
            select_items=select_items,
            from_items=from_items,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            distinct=distinct,
            limit=limit,
        )

    def _parse_select_item(self) -> ast.SelectItem:
        expr = self.parse_expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident()
        elif self._current.type is TokenType.IDENT:
            alias = self._advance().value
        return ast.SelectItem(expr, alias)

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expression()
        ascending = True
        if self._accept_keyword("DESC"):
            ascending = False
        else:
            self._accept_keyword("ASC")
        return ast.OrderItem(expr, ascending)

    # -- FROM ---------------------------------------------------------------

    def _parse_from_item(self) -> ast.FromItem:
        item = self._parse_primary_from()
        while True:
            kind = self._join_kind()
            if kind is None:
                return item
            right = self._parse_primary_from()
            condition = None
            if kind != "CROSS":
                self._expect_keyword("ON")
                condition = self.parse_expression()
            item = ast.JoinClause(kind, item, right, condition)

    def _join_kind(self) -> Optional[str]:
        token = self._current
        if token.is_keyword("JOIN"):
            self._advance()
            return "INNER"
        if token.is_keyword("INNER"):
            self._advance()
            self._expect_keyword("JOIN")
            return "INNER"
        if token.is_keyword("CROSS"):
            self._advance()
            self._expect_keyword("JOIN")
            return "CROSS"
        if token.is_keyword("LEFT", "RIGHT", "FULL"):
            kind = self._advance().value
            self._accept_keyword("OUTER")
            self._expect_keyword("JOIN")
            return kind
        return None

    def _parse_primary_from(self) -> ast.FromItem:
        if self._accept_operator("("):
            if self._current.is_keyword("SELECT"):
                subquery = self._parse_select_or_union()
                self._expect_operator(")")
                self._accept_keyword("AS")
                alias = self._expect_ident()
                return ast.DerivedTable(subquery, alias)
            # Parenthesized join tree.
            inner = self._parse_from_item()
            self._expect_operator(")")
            return inner
        name = self._parse_qualified_table_name()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident()
        elif self._current.type is TokenType.IDENT:
            alias = self._advance().value
        return ast.TableRef(name, alias)

    def _parse_qualified_table_name(self) -> str:
        # Accept db.schema.table / schema.table / table; only the last
        # component is meaningful in our single-database catalog.
        name = self._expect_ident()
        while self._accept_operator("."):
            name = self._expect_ident()
        return name

    # -- expressions --------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        expr = self._parse_and()
        while self._accept_keyword("OR"):
            expr = ast.BinaryOp("OR", expr, self._parse_and())
        return expr

    def _parse_and(self) -> ast.Expr:
        expr = self._parse_not()
        while self._accept_keyword("AND"):
            expr = ast.BinaryOp("AND", expr, self._parse_not())
        return expr

    def _parse_not(self) -> ast.Expr:
        if self._accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        expr = self._parse_additive()
        token = self._current

        if token.type is TokenType.OPERATOR and token.value in _COMPARISON_OPS:
            op = self._advance().value
            if op == "!=":
                op = "<>"
            right = self._parse_additive()
            return ast.BinaryOp(op, expr, right)

        negated = False
        if token.is_keyword("NOT"):
            follower = self._peek()
            if follower.is_keyword("IN", "BETWEEN", "LIKE"):
                self._advance()
                negated = True
                token = self._current

        if token.is_keyword("IN"):
            self._advance()
            self._expect_operator("(")
            if self._current.is_keyword("SELECT"):
                subquery = self._parse_select_or_union()
                self._expect_operator(")")
                return ast.InSubquery(expr, subquery, negated)
            values = [self.parse_expression()]
            while self._accept_operator(","):
                values.append(self.parse_expression())
            self._expect_operator(")")
            return ast.InList(expr, values, negated)

        if token.is_keyword("BETWEEN"):
            self._advance()
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return ast.Between(expr, low, high, negated)

        if token.is_keyword("LIKE"):
            self._advance()
            pattern = self._parse_additive()
            return ast.Like(expr, pattern, negated)

        if token.is_keyword("IS"):
            self._advance()
            is_negated = self._accept_keyword("NOT")
            self._expect_keyword("NULL")
            return ast.IsNull(expr, is_negated)

        return expr

    def _parse_additive(self) -> ast.Expr:
        expr = self._parse_multiplicative()
        while True:
            token = self._current
            if token.type is TokenType.OPERATOR and token.value in ("+", "-", "||"):
                op = self._advance().value
                expr = ast.BinaryOp(op, expr, self._parse_multiplicative())
            else:
                return expr

    def _parse_multiplicative(self) -> ast.Expr:
        expr = self._parse_unary()
        while True:
            token = self._current
            if token.type is TokenType.OPERATOR and token.value in ("*", "/", "%"):
                op = self._advance().value
                expr = ast.BinaryOp(op, expr, self._parse_unary())
            else:
                return expr

    def _parse_unary(self) -> ast.Expr:
        if self._accept_operator("-"):
            operand = self._parse_unary()
            if (isinstance(operand, ast.Literal)
                    and isinstance(operand.value, (int, float))
                    and not isinstance(operand.value, bool)):
                folded = ast.Literal(-operand.value)
                if self._sources is not None:
                    source = self._sources.pop(id(operand), None)
                    if source is not None:
                        self._sources[id(folded)] = (source[0],
                                                     not source[1])
                return folded
            return ast.UnaryOp("-", operand)
        if self._accept_operator("+"):
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self._current

        if token.type in (TokenType.NUMBER, TokenType.STRING):
            position = self._pos
            self._advance()
            return self._literal(literal_value(token.type, token.value),
                                 position)

        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None)

        if token.is_keyword("TRUE", "FALSE"):
            self._advance()
            return ast.Literal(token.value == "TRUE")

        if token.is_keyword("DATE") and self._peek().type is TokenType.STRING:
            self._advance()
            position = self._pos
            return self._literal(self._advance().value, position,
                                 is_date=True)

        if token.is_keyword("CAST"):
            return self._parse_cast()

        if token.is_keyword("CASE"):
            return self._parse_case()

        if token.is_keyword("EXISTS"):
            self._advance()
            self._expect_operator("(")
            subquery = self.parse_select()
            self._expect_operator(")")
            return ast.ExistsExpr(subquery)

        if token.is_keyword("SUM", "COUNT", "AVG", "MIN", "MAX",
                            "DATEADD", "SUBSTRING", "EXTRACT", "YEAR",
                            "MONTH", "DAY"):
            if self._peek().type is TokenType.OPERATOR and self._peek().value == "(":
                return self._parse_func_call()
            # A bare keyword like YEAR used as identifier.
            self._advance()
            return ast.ColumnRef(token.value.lower())

        if self._accept_operator("("):
            if self._current.is_keyword("SELECT"):
                subquery = self.parse_select()
                self._expect_operator(")")
                return ast.ScalarSubquery(subquery)
            expr = self.parse_expression()
            self._expect_operator(")")
            return expr

        if self._accept_operator("*"):
            return ast.Star()

        if token.type is TokenType.IDENT:
            name = self._advance().value
            if self._current.type is TokenType.OPERATOR and self._current.value == "(":
                return self._parse_call_args(name)
            if self._accept_operator("."):
                if self._accept_operator("*"):
                    return ast.Star(qualifier=name)
                column = self._expect_ident()
                return ast.ColumnRef(column, qualifier=name)
            return ast.ColumnRef(name)

        raise self._error("expected expression")

    def _parse_func_call(self) -> ast.Expr:
        name = self._advance().value
        return self._parse_call_args(name)

    def _parse_call_args(self, name: str) -> ast.Expr:
        self._expect_operator("(")
        if name.upper() == "COUNT" and self._accept_operator("*"):
            self._expect_operator(")")
            return ast.FuncCall("COUNT", [ast.Star()])
        distinct = self._accept_keyword("DISTINCT")
        args: List[ast.Expr] = []
        if not (self._current.type is TokenType.OPERATOR
                and self._current.value == ")"):
            if name.upper() == "DATEADD" and self._current.is_keyword(
                    "YEAR", "MONTH", "DAY"):
                args.append(ast.Literal(self._advance().value.lower()))
            else:
                args.append(self.parse_expression())
            while self._accept_operator(","):
                args.append(self.parse_expression())
        self._expect_operator(")")
        return ast.FuncCall(name.upper(), args, distinct=distinct)

    def _parse_case(self) -> ast.Expr:
        self._expect_keyword("CASE")
        whens = []
        while self._accept_keyword("WHEN"):
            condition = self.parse_expression()
            self._expect_keyword("THEN")
            result = self.parse_expression()
            whens.append((condition, result))
        if not whens:
            raise self._error("CASE requires at least one WHEN")
        else_result = None
        if self._accept_keyword("ELSE"):
            else_result = self.parse_expression()
        self._expect_keyword("END")
        return ast.CaseExpr(whens, else_result)

    def _parse_cast(self) -> ast.Expr:
        self._expect_keyword("CAST")
        self._expect_operator("(")
        operand = self.parse_expression()
        self._expect_keyword("AS")
        type_name = self._parse_type_name()
        self._expect_operator(")")
        return ast.Cast(operand, type_name)


def parse(text: str,
          sources: Optional[LiteralSources] = None) -> ast.Statement:
    """Parse one SQL statement (recording literal origins into
    ``sources`` when given)."""
    return Parser(text, sources).parse_statement()


def parse_select(text: str) -> ast.SelectStatement:
    """Parse a statement that must be a plain SELECT (no UNION)."""
    statement = parse(text)
    if not isinstance(statement, ast.SelectStatement):
        raise SqlSyntaxError("expected a SELECT statement")
    return statement


def parse_query(text: str, sources: Optional[LiteralSources] = None):
    """Parse a statement that must be a SELECT or a UNION of SELECTs."""
    statement = parse(text, sources)
    if not isinstance(statement, (ast.SelectStatement, ast.UnionSelect)):
        raise SqlSyntaxError("expected a query")
    return statement


def parse_expression(text: str) -> ast.Expr:
    """Parse a standalone scalar expression (useful in tests)."""
    parser = Parser(text)
    expr = parser.parse_expression()
    if parser._current.type is not TokenType.EOF:
        raise parser._error("unexpected trailing input")
    return expr
