"""The AST-to-SQL printer: ``parse_statement(render_sql(s)) == s``."""

import pytest

from repro.ordb import Database
from repro.ordb.sql.parser import parse_statement
from repro.ordb.sql.render import quote_identifier, quote_string, render_sql

#: one statement per printer branch, written the way people write SQL
STATEMENTS = [
    "select a+b*c from t where x='O''Brien'",
    "SELECT (a+b)*c, -(-x), a-(b-c), a-b-c, a||'z' FROM t",
    "SELECT * FROM t WHERE NOT a = 1 AND (b = 2 OR c = 3) OR d IS NULL",
    "SELECT t.* FROM t WHERE (a = b) = c AND NOT (x AND y)",
    "SELECT COUNT(*), COUNT(DISTINCT a) n FROM t, TABLE(t.c) u,"
    " (SELECT * FROM v) w GROUP BY a HAVING COUNT(*) > 1"
    " ORDER BY 1 DESC, 2 FETCH FIRST 3 ROWS ONLY",
    "SELECT DISTINCT CASE WHEN a BETWEEN 1 AND 2 THEN 'x' ELSE NULL END"
    " FROM t WHERE a NOT BETWEEN 3 AND 4",
    "SELECT CAST(a AS NUMBER(10,2)), CAST(b AS REF T), CAST(c AS Typ),"
    " CAST(MULTISET(SELECT b FROM s) AS TypeVA), DEREF(r).name,"
    " DATE '2002-01-01', 1.50 FROM t",
    "SELECT a FROM t WHERE a NOT IN (1, 2) AND b IN (SELECT c FROM d)"
    " AND EXISTS (SELECT * FROM e) AND f NOT LIKE '%x' ESCAPE '!'"
    " AND g LIKE 'a%' AND h IS NOT NULL",
    "SELECT \"ORDER\".x, \"weird name\" FROM \"ORDER\"",
    "INSERT INTO t VALUES(1, 'a', NULL, Type_A('b', TypeVA_B()))",
    "INSERT INTO t (a, b) SELECT a, b FROM s",
    "UPDATE t x SET x.a = 1, b = (SELECT REF(y) FROM s y) WHERE x.c <> 3",
    "UPDATE t SET a = a + 1",
    "DELETE FROM t x WHERE x.a - (x.b - 1) > 0",
    "DELETE t",
]


@pytest.mark.parametrize("sql", STATEMENTS)
def test_printed_statement_parses_to_the_same_tree(sql):
    statement = parse_statement(sql)
    printed = render_sql(statement)
    assert parse_statement(printed) == statement, printed
    assert render_sql(parse_statement(printed)) == printed


def test_parentheses_only_where_precedence_needs_them():
    assert (render_sql(parse_statement("SELECT (a+b)*c, a+(b*c) FROM t"))
            == "SELECT (a + b) * c, a + b * c FROM t")


def test_expressions_print_on_their_own():
    where = parse_statement("SELECT * FROM t WHERE a = 'x' OR b < 2").where
    assert render_sql(where) == "a = 'x' OR b < 2"


def test_quoting():
    assert quote_string("O'Brien") == "'O''Brien'"
    assert quote_identifier("TabUniversity") == "TabUniversity"
    assert quote_identifier("ORDER") == '"ORDER"'
    assert quote_identifier("two words") == '"two words"'


@pytest.mark.parametrize("sql", ["CREATE TABLE t(a NUMBER)", "COMMIT"])
def test_other_statements_have_no_printer(sql):
    statement = parse_statement(sql)
    with pytest.raises(TypeError, match=type(statement).__name__):
        render_sql(statement)


def test_explain_plan_lines_escape_quotes():
    db = Database()
    db.execute("CREATE TABLE p(name VARCHAR2(40))")
    plan = db.explain("SELECT * FROM p WHERE p.name = 'O''Brien'").render()
    assert "p.name = 'O''Brien'" in plan
    assert "'O'Brien'" not in plan

