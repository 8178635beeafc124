"""Tests for the SQL parser: statements, expressions and the
LexEQUAL grammar extension."""

import pytest

from repro.errors import SQLSyntaxError
from repro.minidb.expr import (
    Aggregate,
    Between,
    BinaryOp,
    BoolOp,
    ColumnRef,
    FuncCall,
    InList,
    IsNull,
    LexEqual,
    Literal,
    Param,
    UnaryOp,
)
from repro.minidb.sql import (
    CreateIndexStmt,
    CreateTableStmt,
    DropIndexStmt,
    DropTableStmt,
    InsertStmt,
    SelectStmt,
    parse,
)
from repro.minidb.values import SqlType


class TestSelectParsing:
    def test_simple_select(self):
        stmt = parse("SELECT a, b FROM t")
        assert isinstance(stmt, SelectStmt)
        assert len(stmt.items) == 2
        assert stmt.tables[0].name == "t"

    def test_star(self):
        stmt = parse("SELECT * FROM t")
        assert stmt.items[0].expr is None

    def test_qualified_star(self):
        stmt = parse("SELECT b1.* FROM books b1")
        assert stmt.items[0].star_table == "b1"

    def test_aliases(self):
        stmt = parse("SELECT a AS x, b y FROM t AS u")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"
        assert stmt.tables[0].alias == "u"

    def test_where_and_or_precedence(self):
        stmt = parse("SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3")
        assert isinstance(stmt.where, BoolOp)
        assert stmt.where.op == "OR"
        assert isinstance(stmt.where.terms[1], BoolOp)
        assert stmt.where.terms[1].op == "AND"

    def test_group_by_having(self):
        stmt = parse(
            "SELECT lang, COUNT(*) FROM t GROUP BY lang HAVING COUNT(*) > 2"
        )
        assert len(stmt.group_by) == 1
        assert isinstance(stmt.having, BinaryOp)

    def test_order_by_and_limit(self):
        stmt = parse("SELECT a FROM t ORDER BY a DESC, b LIMIT 10")
        assert stmt.order_by[0][1] is True
        assert stmt.order_by[1][1] is False
        assert stmt.limit == 10

    def test_distinct(self):
        assert parse("SELECT DISTINCT a FROM t").distinct

    def test_multiple_tables(self):
        stmt = parse("SELECT a FROM t1 x, t2 y WHERE x.id = y.id")
        assert [t.alias for t in stmt.tables] == ["x", "y"]


class TestExpressionParsing:
    def _where(self, text: str):
        return parse(f"SELECT a FROM t WHERE {text}").where

    def test_comparisons(self):
        for op in ["=", "<>", "<", "<=", ">", ">="]:
            expr = self._where(f"a {op} 1")
            assert isinstance(expr, BinaryOp)
            assert expr.op == op

    def test_arithmetic_precedence(self):
        expr = self._where("a = 1 + 2 * 3")
        assert isinstance(expr.right, BinaryOp)
        assert expr.right.op == "+"
        assert isinstance(expr.right.right, BinaryOp)
        assert expr.right.right.op == "*"

    def test_parens(self):
        expr = self._where("a = (1 + 2) * 3")
        assert expr.right.op == "*"

    def test_between(self):
        expr = self._where("a BETWEEN 1 AND 5")
        assert isinstance(expr, Between)

    def test_not_between(self):
        expr = self._where("a NOT BETWEEN 1 AND 5")
        assert isinstance(expr, Between)
        assert expr.negated

    def test_in_list(self):
        expr = self._where("a IN (1, 2, 3)")
        assert isinstance(expr, InList)
        assert len(expr.items) == 3

    def test_is_null(self):
        assert isinstance(self._where("a IS NULL"), IsNull)
        expr = self._where("a IS NOT NULL")
        assert isinstance(expr, IsNull) and expr.negated

    def test_string_literal_with_escape(self):
        expr = self._where("a = 'O''Brien'")
        assert expr.right == Literal("O'Brien")

    def test_unicode_string_literal(self):
        expr = self._where("a = 'नेहरु'")
        assert expr.right == Literal("नेहरु")

    def test_params(self):
        expr = self._where("a = :name")
        assert expr.right == Param("name")

    def test_function_call(self):
        expr = self._where("length(a) > 3")
        assert isinstance(expr.left, FuncCall)
        assert expr.left.name == "length"

    def test_aggregates(self):
        stmt = parse("SELECT COUNT(*), SUM(x), AVG(y) FROM t")
        assert stmt.items[0].expr == Aggregate("COUNT", None)
        assert stmt.items[1].expr == Aggregate("SUM", ColumnRef(None, "x"))

    def test_not_operator(self):
        expr = self._where("NOT a = 1")
        assert isinstance(expr, UnaryOp)
        assert expr.op == "NOT"

    def test_unary_minus(self):
        expr = self._where("a = -1")
        assert isinstance(expr.right, UnaryOp)

    def test_booleans_and_null(self):
        assert self._where("a = true").right == Literal(True)
        assert self._where("a = null").right == Literal(None)

    def test_concat(self):
        expr = self._where("a || b = 'ab'")
        assert expr.left.op == "||"


class TestLexEqualGrammar:
    def test_paper_figure_3_query(self):
        stmt = parse(
            "select Author, Title from Books "
            "where Author LexEQUAL 'Nehru' Threshold 0.25 "
            "inlanguages { English, Hindi, Tamil, Greek }"
        )
        expr = stmt.where
        assert isinstance(expr, LexEqual)
        assert expr.threshold == Literal(0.25)
        assert expr.languages == ("english", "hindi", "tamil", "greek")

    def test_paper_figure_5_join_query(self):
        stmt = parse(
            "select Author from Books B1, Books B2 "
            "where B1.Author LexEQUAL B2.Author Threshold 0.25 "
            "and B1.Language <> B2.Language"
        )
        assert isinstance(stmt.where, BoolOp)
        lex = stmt.where.terms[0]
        assert isinstance(lex, LexEqual)
        assert lex.left == ColumnRef("B1", "Author")

    def test_wildcard_languages(self):
        stmt = parse("SELECT a FROM t WHERE a LEXEQUAL 'x' INLANGUAGES *")
        assert stmt.where.languages == ()

    def test_threshold_optional(self):
        stmt = parse("SELECT a FROM t WHERE a LEXEQUAL 'x'")
        assert stmt.where.threshold == Literal(None)

    def test_threshold_param(self):
        stmt = parse("SELECT a FROM t WHERE a LEXEQUAL 'x' THRESHOLD :e")
        assert stmt.where.threshold == Param("e")


class TestDdlDml:
    def test_create_table(self):
        stmt = parse(
            "CREATE TABLE books (author TEXT NOT NULL, price REAL, n INTEGER)"
        )
        assert isinstance(stmt, CreateTableStmt)
        assert stmt.columns[0] == ("author", SqlType.TEXT, False)
        assert stmt.columns[1] == ("price", SqlType.REAL, True)

    def test_create_index(self):
        stmt = parse("CREATE INDEX idx ON books (author)")
        assert isinstance(stmt, CreateIndexStmt)
        assert (stmt.name, stmt.table, stmt.column) == (
            "idx",
            "books",
            "author",
        )

    def test_drop(self):
        assert isinstance(parse("DROP TABLE t"), DropTableStmt)
        assert isinstance(parse("DROP INDEX i"), DropIndexStmt)

    def test_insert_multi_row(self):
        stmt = parse("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        assert isinstance(stmt, InsertStmt)
        assert len(stmt.rows) == 2


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "SELECT",
            "SELECT a",
            "SELECT a FROM",
            "SELECT a FROM t WHERE",
            "FOO BAR",
            "SELECT a FROM t LIMIT 1.5",
            "SELECT a FROM t; garbage",
            "CREATE VIEW v",
            "SELECT a FROM t WHERE a = 'unterminated",
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(SQLSyntaxError):
            parse(bad)

    def test_error_carries_position(self):
        try:
            parse("SELECT a FROM t WHERE ^")
        except SQLSyntaxError as exc:
            assert exc.position is not None
        else:  # pragma: no cover
            pytest.fail("expected SQLSyntaxError")
