"""SQL dialect parser for the minidb engine.

Supports the statement shapes the paper's queries use, plus enough DDL/DML
to build the examples:

* ``SELECT [DISTINCT] ... FROM t [alias], ... [WHERE ...] [GROUP BY ...]
  [HAVING ...] [ORDER BY ...] [LIMIT n]``
* the multiscript extension of paper Figure 3/5::

      expr LEXEQUAL expr [THRESHOLD <number>]
           [INLANGUAGES { english, hindi, tamil }]   -- or INLANGUAGES *

* ``CREATE TABLE t (col TYPE [NOT NULL], ...)`` with types INTEGER,
  REAL, TEXT, BOOLEAN;
* ``CREATE INDEX i ON t (col)``, ``DROP TABLE t``, ``DROP INDEX i``;
* ``INSERT INTO t VALUES (...), (...)`` with literals and ``:params``;
* ``EXPLAIN [ANALYZE] SELECT ...`` — the plan tree (ANALYZE also runs
  the query and reports per-operator rows/loops/time).

The grammar is classic recursive descent over a hand-rolled tokenizer;
precedence: OR < AND < NOT < comparison/predicates < additive <
multiplicative < unary < primary.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import SQLSyntaxError
from repro.minidb.expr import (
    Aggregate,
    Between,
    BinaryOp,
    BoolOp,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    LexEqual,
    Literal,
    Param,
    UnaryOp,
)
from repro.minidb.values import SqlType

_KEYWORDS = {
    "select", "distinct", "from", "where", "group", "by", "having",
    "order", "limit", "as", "and", "or", "not", "between", "in", "is",
    "null", "like", "asc", "desc", "create", "table", "index", "on",
    "drop", "insert", "into", "values", "integer", "real", "text",
    "boolean", "true", "false", "lexequal", "threshold", "inlanguages",
    "count", "sum", "min", "max", "avg", "explain", "analyze",
}

_AGGREGATES = {"count", "sum", "min", "max", "avg"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(\.\d+)?([eE][+-]?\d+)?)
  | (?P<string>'(?:[^']|'')*')
  | (?P<param>:[A-Za-z_][A-Za-z_0-9]*)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><>|<=|>=|\|\||[=<>(),.*{}+\-/;])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # 'number' | 'string' | 'param' | 'name' | 'keyword' | 'op' | 'eof'
    text: str
    pos: int


def tokenize(sql: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    n = len(sql)
    while pos < n:
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            raise SQLSyntaxError(
                f"unexpected character {sql[pos]!r}", position=pos
            )
        kind = match.lastgroup
        text = match.group()
        if kind != "ws":
            if kind == "name" and text.lower() in _KEYWORDS:
                tokens.append(Token("keyword", text.lower(), pos))
            else:
                tokens.append(Token(kind, text, pos))  # type: ignore[arg-type]
        pos = match.end()
    tokens.append(Token("eof", "", n))
    return tokens


# ------------------------------------------------------------------ AST

@dataclass
class SelectItem:
    expr: Expr | None  # None means '*'
    alias: str | None = None
    star_table: str | None = None  # for 'alias.*'


@dataclass
class TableRef:
    name: str
    alias: str


@dataclass
class SelectStmt:
    items: list[SelectItem]
    tables: list[TableRef]
    where: Expr | None = None
    group_by: list[Expr] = field(default_factory=list)
    having: Expr | None = None
    order_by: list[tuple[Expr, bool]] = field(default_factory=list)
    limit: int | None = None
    distinct: bool = False


@dataclass
class CreateTableStmt:
    name: str
    columns: list[tuple[str, SqlType, bool]]  # (name, type, nullable)


@dataclass
class CreateIndexStmt:
    name: str
    table: str
    column: str


@dataclass
class DropTableStmt:
    name: str


@dataclass
class DropIndexStmt:
    name: str


@dataclass
class InsertStmt:
    table: str
    rows: list[list[Expr]]


@dataclass
class ExplainStmt:
    """``EXPLAIN [ANALYZE] <select>`` — show (and optionally run) a plan."""

    query: SelectStmt
    analyze: bool = False


@dataclass
class AnalyzeStmt:
    """``ANALYZE [table]`` — refresh the planner's statistics catalog."""

    table: str | None = None


Statement = (
    SelectStmt
    | CreateTableStmt
    | CreateIndexStmt
    | DropTableStmt
    | DropIndexStmt
    | InsertStmt
    | ExplainStmt
    | AnalyzeStmt
)


class Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, sql: str):
        self._sql = sql
        self._tokens = tokenize(sql)
        self._pos = 0

    # --------------------------------------------------------- utilities

    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]

    def _next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def _at_keyword(self, *words: str) -> bool:
        tok = self._peek()
        return tok.kind == "keyword" and tok.text in words

    def _accept_keyword(self, *words: str) -> bool:
        if self._at_keyword(*words):
            self._next()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        tok = self._next()
        if tok.kind != "keyword" or tok.text != word:
            raise SQLSyntaxError(
                f"expected {word.upper()}, got {tok.text!r}", tok.pos
            )

    def _accept_op(self, op: str) -> bool:
        tok = self._peek()
        if tok.kind == "op" and tok.text == op:
            self._next()
            return True
        return False

    def _expect_op(self, op: str) -> None:
        tok = self._next()
        if tok.kind != "op" or tok.text != op:
            raise SQLSyntaxError(f"expected {op!r}, got {tok.text!r}", tok.pos)

    def _expect_name(self) -> str:
        tok = self._next()
        if tok.kind == "name":
            return tok.text
        # Allow non-reserved keywords as identifiers where unambiguous.
        if tok.kind == "keyword" and tok.text in ("text", "index", "count"):
            return tok.text
        raise SQLSyntaxError(f"expected identifier, got {tok.text!r}", tok.pos)

    # --------------------------------------------------------- statements

    def parse_statement(self) -> Statement:
        if self._at_keyword("explain"):
            stmt: Statement = self._parse_explain()
        elif self._at_keyword("select"):
            stmt = self._parse_select()
        elif self._at_keyword("create"):
            stmt = self._parse_create()
        elif self._at_keyword("drop"):
            stmt = self._parse_drop()
        elif self._at_keyword("insert"):
            stmt = self._parse_insert()
        elif self._at_keyword("analyze"):
            stmt = self._parse_analyze()
        else:
            tok = self._peek()
            raise SQLSyntaxError(
                f"expected a statement, got {tok.text!r}", tok.pos
            )
        self._accept_op(";")
        tok = self._peek()
        if tok.kind != "eof":
            raise SQLSyntaxError(
                f"unexpected trailing input {tok.text!r}", tok.pos
            )
        return stmt

    def _parse_explain(self) -> ExplainStmt:
        self._expect_keyword("explain")
        analyze = self._accept_keyword("analyze")
        if not self._at_keyword("select"):
            tok = self._peek()
            raise SQLSyntaxError(
                f"EXPLAIN supports only SELECT, got {tok.text!r}", tok.pos
            )
        return ExplainStmt(query=self._parse_select(), analyze=analyze)

    def _parse_analyze(self) -> AnalyzeStmt:
        self._expect_keyword("analyze")
        tok = self._peek()
        if tok.kind == "eof" or (tok.kind == "op" and tok.text == ";"):
            return AnalyzeStmt()
        return AnalyzeStmt(table=self._expect_name())

    def _parse_select(self) -> SelectStmt:
        self._expect_keyword("select")
        distinct = self._accept_keyword("distinct")
        items = [self._parse_select_item()]
        while self._accept_op(","):
            items.append(self._parse_select_item())
        self._expect_keyword("from")
        tables = [self._parse_table_ref()]
        while self._accept_op(","):
            tables.append(self._parse_table_ref())
        where = None
        if self._accept_keyword("where"):
            where = self.parse_expr()
        group_by: list[Expr] = []
        having = None
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by.append(self.parse_expr())
            while self._accept_op(","):
                group_by.append(self.parse_expr())
        if self._accept_keyword("having"):
            having = self.parse_expr()
        order_by: list[tuple[Expr, bool]] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by.append(self._parse_order_item())
            while self._accept_op(","):
                order_by.append(self._parse_order_item())
        limit = None
        if self._accept_keyword("limit"):
            tok = self._next()
            if tok.kind != "number" or "." in tok.text:
                raise SQLSyntaxError("LIMIT expects an integer", tok.pos)
            limit = int(tok.text)
        return SelectStmt(
            items=items,
            tables=tables,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )

    def _parse_select_item(self) -> SelectItem:
        if self._accept_op("*"):
            return SelectItem(expr=None)
        # 'alias.*'
        if (
            self._peek().kind == "name"
            and self._peek(1).kind == "op"
            and self._peek(1).text == "."
            and self._peek(2).kind == "op"
            and self._peek(2).text == "*"
        ):
            table = self._expect_name()
            self._expect_op(".")
            self._expect_op("*")
            return SelectItem(expr=None, star_table=table)
        expr = self.parse_expr()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_name()
        elif self._peek().kind == "name":
            alias = self._expect_name()
        return SelectItem(expr=expr, alias=alias)

    def _parse_order_item(self) -> tuple[Expr, bool]:
        expr = self.parse_expr()
        descending = False
        if self._accept_keyword("desc"):
            descending = True
        else:
            self._accept_keyword("asc")
        return expr, descending

    def _parse_table_ref(self) -> TableRef:
        name = self._expect_name()
        alias = name
        if self._accept_keyword("as"):
            alias = self._expect_name()
        elif self._peek().kind == "name":
            alias = self._expect_name()
        return TableRef(name=name, alias=alias)

    def _parse_create(self) -> Statement:
        self._expect_keyword("create")
        if self._accept_keyword("table"):
            name = self._expect_name()
            self._expect_op("(")
            columns: list[tuple[str, SqlType, bool]] = []
            while True:
                col_name = self._expect_name()
                col_type = self._parse_type()
                nullable = True
                if self._accept_keyword("not"):
                    self._expect_keyword("null")
                    nullable = False
                columns.append((col_name, col_type, nullable))
                if not self._accept_op(","):
                    break
            self._expect_op(")")
            return CreateTableStmt(name=name, columns=columns)
        if self._accept_keyword("index"):
            name = self._expect_name()
            self._expect_keyword("on")
            table = self._expect_name()
            self._expect_op("(")
            column = self._expect_name()
            self._expect_op(")")
            return CreateIndexStmt(name=name, table=table, column=column)
        tok = self._peek()
        raise SQLSyntaxError(
            f"expected TABLE or INDEX after CREATE, got {tok.text!r}", tok.pos
        )

    def _parse_type(self) -> SqlType:
        tok = self._next()
        mapping = {
            "integer": SqlType.INTEGER,
            "real": SqlType.REAL,
            "text": SqlType.TEXT,
            "boolean": SqlType.BOOLEAN,
        }
        if tok.kind == "keyword" and tok.text in mapping:
            return mapping[tok.text]
        raise SQLSyntaxError(f"unknown type {tok.text!r}", tok.pos)

    def _parse_drop(self) -> Statement:
        self._expect_keyword("drop")
        if self._accept_keyword("table"):
            return DropTableStmt(name=self._expect_name())
        if self._accept_keyword("index"):
            return DropIndexStmt(name=self._expect_name())
        tok = self._peek()
        raise SQLSyntaxError(
            f"expected TABLE or INDEX after DROP, got {tok.text!r}", tok.pos
        )

    def _parse_insert(self) -> InsertStmt:
        self._expect_keyword("insert")
        self._expect_keyword("into")
        table = self._expect_name()
        self._expect_keyword("values")
        rows: list[list[Expr]] = []
        while True:
            self._expect_op("(")
            row = [self.parse_expr()]
            while self._accept_op(","):
                row.append(self.parse_expr())
            self._expect_op(")")
            rows.append(row)
            if not self._accept_op(","):
                break
        return InsertStmt(table=table, rows=rows)

    # -------------------------------------------------------- expressions

    def parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        terms = [self._parse_and()]
        while self._accept_keyword("or"):
            terms.append(self._parse_and())
        if len(terms) == 1:
            return terms[0]
        return BoolOp("OR", tuple(terms))

    def _parse_and(self) -> Expr:
        terms = [self._parse_not()]
        while self._accept_keyword("and"):
            terms.append(self._parse_not())
        if len(terms) == 1:
            return terms[0]
        return BoolOp("AND", tuple(terms))

    def _parse_not(self) -> Expr:
        if self._accept_keyword("not"):
            return UnaryOp("NOT", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expr:
        left = self._parse_additive()
        tok = self._peek()
        if tok.kind == "op" and tok.text in ("=", "<>", "<", "<=", ">", ">="):
            self._next()
            right = self._parse_additive()
            return BinaryOp(tok.text, left, right)
        if self._accept_keyword("lexequal"):
            return self._parse_lexequal_tail(left)
        negated = False
        if self._at_keyword("not"):
            nxt = self._peek(1)
            if nxt.kind == "keyword" and nxt.text in ("between", "in"):
                self._next()
                negated = True
        if self._accept_keyword("between"):
            low = self._parse_additive()
            self._expect_keyword("and")
            high = self._parse_additive()
            return Between(left, low, high, negated=negated)
        if self._accept_keyword("in"):
            self._expect_op("(")
            items = [self.parse_expr()]
            while self._accept_op(","):
                items.append(self.parse_expr())
            self._expect_op(")")
            return InList(left, tuple(items), negated=negated)
        if self._accept_keyword("is"):
            negated = self._accept_keyword("not")
            self._expect_keyword("null")
            return IsNull(left, negated=negated)
        return left

    def _parse_lexequal_tail(self, left: Expr) -> Expr:
        right = self._parse_additive()
        # No THRESHOLD: NULL, which every plan reads as the configured
        # threshold.
        threshold: Expr = Literal(None)
        if self._accept_keyword("threshold"):
            threshold = self._parse_additive()
        languages: tuple[str, ...] = ()
        if self._accept_keyword("inlanguages"):
            if self._accept_op("*"):
                languages = ()
            else:
                self._expect_op("{")
                langs = [self._expect_name().lower()]
                while self._accept_op(","):
                    if self._accept_op("*"):
                        continue
                    langs.append(self._expect_name().lower())
                self._expect_op("}")
                languages = tuple(langs)
        return LexEqual(left, right, threshold, languages)

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            tok = self._peek()
            if tok.kind == "op" and tok.text in ("+", "-", "||"):
                self._next()
                right = self._parse_multiplicative()
                left = BinaryOp(tok.text, left, right)
            else:
                return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            tok = self._peek()
            if tok.kind == "op" and tok.text in ("*", "/"):
                self._next()
                right = self._parse_unary()
                left = BinaryOp(tok.text, left, right)
            else:
                return left

    def _parse_unary(self) -> Expr:
        if self._accept_op("-"):
            return UnaryOp("-", self._parse_unary())
        self._accept_op("+")  # unary plus is a no-op
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        tok = self._peek()
        if tok.kind == "number":
            self._next()
            if "." in tok.text or "e" in tok.text.lower():
                return Literal(float(tok.text))
            return Literal(int(tok.text))
        if tok.kind == "string":
            self._next()
            return Literal(tok.text[1:-1].replace("''", "'"))
        if tok.kind == "param":
            self._next()
            return Param(tok.text[1:])
        if tok.kind == "keyword" and tok.text in ("true", "false"):
            self._next()
            return Literal(tok.text == "true")
        if tok.kind == "keyword" and tok.text == "null":
            self._next()
            return Literal(None)
        if tok.kind == "keyword" and tok.text in _AGGREGATES:
            self._next()
            func = tok.text.upper()
            self._expect_op("(")
            if func == "COUNT" and self._accept_op("*"):
                self._expect_op(")")
                return Aggregate("COUNT", None)
            arg = self.parse_expr()
            self._expect_op(")")
            return Aggregate(func, arg)
        if self._accept_op("("):
            expr = self.parse_expr()
            self._expect_op(")")
            return expr
        # ``lexequal(...)`` may also be called directly as a function
        # (the raw UDF form), even though LEXEQUAL is a keyword.
        if (
            tok.kind == "keyword"
            and tok.text == "lexequal"
            and self._peek(1).kind == "op"
            and self._peek(1).text == "("
        ):
            self._next()
            self._expect_op("(")
            args = [self.parse_expr()]
            while self._accept_op(","):
                args.append(self.parse_expr())
            self._expect_op(")")
            return FuncCall("lexequal", tuple(args))
        if tok.kind == "name":
            name = self._expect_name()
            if self._accept_op("("):
                args: list[Expr] = []
                if not self._accept_op(")"):
                    args.append(self.parse_expr())
                    while self._accept_op(","):
                        args.append(self.parse_expr())
                    self._expect_op(")")
                return FuncCall(name, tuple(args))
            if self._accept_op("."):
                column = self._expect_name()
                return ColumnRef(name, column)
            return ColumnRef(None, name)
        raise SQLSyntaxError(
            f"expected an expression, got {tok.text!r}", tok.pos
        )


def parse(sql: str) -> Statement:
    """Parse one SQL statement."""
    return Parser(sql).parse_statement()
