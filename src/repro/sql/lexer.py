"""SQL lexer: one compiled regular expression.

Produces a flat list of :class:`Token` for the recursive-descent parser.
The dialect is the subset of T-SQL that PDW's examples and the TPC-H
workload need: identifiers (optionally ``[bracketed]`` or ``"quoted"``),
qualified names, numeric / string / date literals, and the operator set of
standard SQL expressions.

Every token kind is one alternative of :data:`_TOKEN`, tried in the order
a hand-written scanner would try them; a last catch-all alternative
matches the one character no token can start with, so a scan never skips
text and every error is reported where it starts.  :func:`skeleton` is
the same scan without positions or :class:`Token` objects — what the plan
cache keys a query's shape on.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.common.errors import SqlSyntaxError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "ASC",
    "DESC", "AS", "ON", "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "OUTER",
    "CROSS", "AND", "OR", "NOT", "IN", "EXISTS", "BETWEEN", "LIKE", "IS",
    "NULL", "DISTINCT", "TOP", "LIMIT", "UNION", "ALL", "CASE", "WHEN",
    "THEN", "ELSE", "END", "CAST", "TRUE", "FALSE", "SUM", "COUNT", "AVG",
    "MIN", "MAX", "DATE", "DATEADD", "YEAR", "MONTH", "DAY", "SUBSTRING",
    "INSERT", "INTO", "VALUES", "CREATE", "TABLE", "INTEGER", "INT",
    "BIGINT", "DOUBLE", "PRECISION", "VARCHAR", "CHAR", "DECIMAL",
    "BOOLEAN", "ANY", "SOME", "EXTRACT",
}


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    """One lexical token with its 1-based source position."""

    type: TokenType
    value: str
    line: int
    column: int

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in names

    def __str__(self) -> str:
        return f"{self.value!r}"


# Group numbers of _TOKEN's alternatives, in order.
(_SPACE, _NEWLINE, _COMMENT, _BLOCK, _NUMBER, _STRING, _QUOTED, _WORD,
 _OPERATOR, _OTHER) = range(1, 11)

_TOKEN = re.compile(r"""
    ([ \t\r]+)
  | (\n)
  | (--[^\n]*)
  | (/\*.*?\*/)
  | (\d+(?:\.\d+)?|\.\d+)
  | ('(?:[^']|'')*'(?!'))        # a quote followed by a quote is an escape
  | (\[[^\]]*\]|"[^"]*")
  | ([^\W\d]\w*)
  | (<=|>=|<>|!=|\|\||/(?!\*)|[-+*%(),.=<>;])
  | (.)
""", re.VERBOSE | re.DOTALL)


def _unicode_word_or_number(text: str, start: int) -> Tuple[int, int]:
    """(group, end) of the word or number at ``start`` by the character
    predicates themselves, for text that is not ASCII: ``\\d`` matches
    decimal digits only where a number may also hold other digits
    (``'²'.isdigit()``), and ``[^\\W\\d]`` starts a word on numeric
    characters no letter test accepts.  ``_OTHER`` when neither starts
    here, ``_OPERATOR`` for a lone dot."""
    n = len(text)
    ch = text[start]
    if ch.isdigit() or (ch == "." and start + 1 < n
                        and text[start + 1].isdigit()):
        i = start
        seen_dot = False
        while i < n and (text[i].isdigit() or (text[i] == "." and not seen_dot)):
            if text[i] == ".":
                # A trailing dot followed by a non-digit is a qualifier dot.
                if i + 1 >= n or not text[i + 1].isdigit():
                    break
                seen_dot = True
            i += 1
        return _NUMBER, i
    if ch.isalpha() or ch == "_":
        i = start + 1
        while i < n and (text[i].isalnum() or text[i] == "_"):
            i += 1
        return _WORD, i
    if ch == ".":
        return _OPERATOR, start + 1
    return _OTHER, start + 1


def _error(ch: str, text: str, start: int, line: int,
           column: int) -> SqlSyntaxError:
    if ch == "'":
        return SqlSyntaxError("unterminated string literal", line, column)
    if ch in '["':
        return SqlSyntaxError("unterminated quoted identifier", line, column)
    if text.startswith("/*", start):
        return SqlSyntaxError("unterminated block comment", line, column)
    return SqlSyntaxError(f"unexpected character {ch!r}", line, column)


def _scan(text: str) -> Iterator[Tuple[int, str, int, int]]:
    """``(group, token text, line, column)`` for every token of
    ``text`` (not whitespace or comments), then ``(0, "", line,
    column)`` for the end."""
    match = _TOKEN.match
    unicode = not text.isascii()
    n = len(text)
    pos = 0
    line = 1
    line_start = 0
    while pos < n:
        found = match(text, pos)
        group = found.lastindex
        end = found.end()
        if group <= _BLOCK:
            if group == _NEWLINE:
                line += 1
                line_start = end
            elif group == _BLOCK:
                # Lines advance; the column keeps counting from the line
                # the comment opened on.
                line += text.count("\n", pos, end)
            pos = end
            continue
        if unicode and (group in (_NUMBER, _WORD)
                        or (group == _OPERATOR and text[pos] == ".")):
            group, end = _unicode_word_or_number(text, pos)
        if group == _OTHER:
            raise _error(text[pos], text, pos, line, pos - line_start + 1)
        yield group, text[pos:end], line, pos - line_start + 1
        pos = end
    yield 0, "", line, pos - line_start + 1


def tokenize(text: str) -> List[Token]:
    """Split ``text`` into tokens, raising :class:`SqlSyntaxError` on any
    character that cannot start a token."""
    tokens: List[Token] = []
    append = tokens.append
    for group, token, line, column in _scan(text):
        if group == _WORD:
            upper = token.upper()
            if upper in KEYWORDS:
                append(Token(TokenType.KEYWORD, upper, line, column))
            else:
                append(Token(TokenType.IDENT, token, line, column))
        elif group == _NUMBER:
            append(Token(TokenType.NUMBER, token, line, column))
        elif group == _STRING:
            append(Token(TokenType.STRING, token[1:-1].replace("''", "'"),
                         line, column))
        elif group == _QUOTED:
            append(Token(TokenType.IDENT, token[1:-1], line, column))
        elif group:
            append(Token(TokenType.OPERATOR, token, line, column))
        else:
            append(Token(TokenType.EOF, "", line, column))
    return tokens


def literal_value(type_: TokenType, value: str) -> object:
    """The value a NUMBER or STRING token denotes (``value`` is the
    token's value): the parser's literal conversion, and the plan
    cache's for the literals it never parses."""
    if type_ is TokenType.NUMBER:
        return float(value) if "." in value else int(value)
    return value


#: What :func:`skeleton` puts where a NUMBER / STRING token was.
NUMBER_SLOT = "\x00n"
STRING_SLOT = "\x00s"

# The same token set as _TOKEN for ASCII text, shaped for findall: any
# run of whitespace and comments, then one of number / string / any
# other token / a character no token starts with.
_SKELETON = re.compile(r"""
    (?:[ \t\r\n]+|--[^\n]*|/\*.*?\*/)*
    (?: (\d+(?:\.\d+)?|\.\d+)
      | ('(?:[^']|'')*'(?!'))
      | ([A-Za-z_]\w*|\[[^\]]*\]|"[^"]*"
         |<=|>=|<>|!=|\|\||/(?!\*)|[-+*%(),.=<>;])
      | (.)
    )?""", re.VERBOSE | re.DOTALL)


def skeleton(text: str
             ) -> Tuple[Tuple[str, ...], List[Tuple[TokenType, str]]]:
    """``text``'s token stream with every literal replaced by a slot,
    and the literals, in order, as ``(type, token value)``.

    Every other token stands as its text, so two texts share a skeleton
    only if their token streams are equal but for literal values — the
    parser's decisions depend on nothing else.  (Two spellings of one
    stream, ``select`` and ``SELECT``, are two skeletons.)  Raises what
    :func:`tokenize` raises."""
    parts: List[str] = []
    literals: List[Tuple[TokenType, str]] = []
    if text.isascii():
        for number, string, token, other in _SKELETON.findall(text):
            if token:
                parts.append(token)
            elif number:
                parts.append(NUMBER_SLOT)
                literals.append((TokenType.NUMBER, number))
            elif string:
                parts.append(STRING_SLOT)
                literals.append((TokenType.STRING,
                                 string[1:-1].replace("''", "'")))
            elif other:
                break  # the scan below reports it
        else:
            return tuple(parts), literals
        parts.clear()
        literals.clear()
    for group, token, _line, _column in _scan(text):
        if group == _NUMBER:
            parts.append(NUMBER_SLOT)
            literals.append((TokenType.NUMBER, token))
        elif group == _STRING:
            parts.append(STRING_SLOT)
            literals.append((TokenType.STRING,
                             token[1:-1].replace("''", "'")))
        elif group:
            parts.append(token)
    return tuple(parts), literals
