"""AST-to-SQL printer: the one way statements become text.

:func:`render_sql` prints expressions, SELECT, INSERT, UPDATE and
DELETE in the dialect :mod:`.parser` reads, so
``parse_statement(render_sql(s)) == s`` for every such statement the
parser can produce.  Operands are parenthesized only where the
parser's precedence would otherwise regroup them.

Nothing on the execution path needs text: the loader hands ASTs to
the engine and the WAL logs them as they are.  SQL is printed on
demand — for people (``LoadResult.sql``, the CLI, trace labels).

>>> from repro.ordb.sql.parser import parse_statement
>>> render_sql(parse_statement("select a+b*c from t where x='O''Brien'"))
"SELECT a + b * c FROM t WHERE x = 'O''Brien'"
"""

from __future__ import annotations

import re
from decimal import Decimal

from ..identifiers import is_reserved
from . import ast

_PLAIN_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_$#]*\Z")

# binding strength of each expression level, loosest first; an operand
# printed where a tighter level is required gets parentheses
_OR, _AND, _NOT, _PREDICATE, _ADDITIVE, _MULTIPLICATIVE, _UNARY, \
    _PRIMARY = range(1, 9)

_BINARY_LEVELS = {
    "OR": _OR, "AND": _AND,
    "=": _PREDICATE, "<>": _PREDICATE, "<": _PREDICATE,
    ">": _PREDICATE, "<=": _PREDICATE, ">=": _PREDICATE,
    "+": _ADDITIVE, "-": _ADDITIVE, "||": _ADDITIVE,
    "*": _MULTIPLICATIVE, "/": _MULTIPLICATIVE,
}


def quote_string(text: str) -> str:
    """A SQL string literal: ``O'Brien`` -> ``'O''Brien'``."""
    return "'" + text.replace("'", "''") + "'"


def quote_identifier(name: str) -> str:
    """*name* as written when it lexes as one plain identifier,
    double-quoted otherwise (reserved words, odd characters)."""
    if _PLAIN_IDENTIFIER.match(name) and not is_reserved(name):
        return name
    return f'"{name}"'


def render_sql(node) -> str:
    """Print an expression, SELECT, INSERT, UPDATE or DELETE AST as
    SQL text; any other statement raises :class:`TypeError` (DDL text
    comes from the schema generator)."""
    if isinstance(node, ast.Expr):
        return _expr(node, _OR)
    printer = _STATEMENTS.get(type(node))
    if printer is None:
        raise TypeError(f"render_sql cannot print {type(node).__name__}")
    return printer(node)


# -- expressions ---------------------------------------------------------------------


def _expr(node: ast.Expr, level: int) -> str:
    """Print *node* where the grammar expects *level* or tighter."""
    own, text = _EXPRESSIONS[type(node)](node)
    return f"({text})" if own < level else text


def _literal(node: ast.Literal):
    value = node.value
    if value is None:
        return _PRIMARY, "NULL"
    if isinstance(value, str):
        return _PRIMARY, quote_string(value)
    if isinstance(value, Decimal):
        return _PRIMARY, format(value, "f")
    return _PRIMARY, str(value)


def _date(node: ast.DateLiteral):
    return _PRIMARY, f"DATE {quote_string(node.text)}"


def _path(node: ast.ColumnPath):
    return _PRIMARY, ".".join(quote_identifier(p) for p in node.parts)


def _star(node: ast.Star):
    if node.qualifier is None:
        return _PRIMARY, "*"
    return _PRIMARY, f"{quote_identifier(node.qualifier)}.*"


def _call(node: ast.FunctionCall):
    arguments = ", ".join(_expr(a, _OR) for a in node.arguments)
    distinct = "DISTINCT " if node.distinct else ""
    return _PRIMARY, f"{node.name}({distinct}{arguments})"


def _attribute(node: ast.AttributeAccess):
    return _PRIMARY, (f"{_expr(node.base, _PRIMARY)}"
                      f".{quote_identifier(node.attribute)}")


def _binary(node: ast.BinaryOp):
    level = _BINARY_LEVELS[node.operator]
    if level == _PREDICATE:  # comparisons do not chain
        left, right = _ADDITIVE, _ADDITIVE
    else:  # left-associative
        left, right = level, level + 1
    return level, (f"{_expr(node.left, left)} {node.operator}"
                   f" {_expr(node.right, right)}")


def _unary(node: ast.UnaryOp):
    level = _NOT if node.operator == "NOT" else _UNARY
    # the space keeps "- -x" from lexing as a "--" comment
    return level, f"{node.operator} {_expr(node.operand, level)}"


def _not(negated: bool) -> str:
    return "NOT " if negated else ""


def _is_null(node: ast.IsNull):
    return _PREDICATE, (f"{_expr(node.operand, _ADDITIVE)} IS"
                        f" {_not(node.negated)}NULL")


def _like(node: ast.Like):
    text = (f"{_expr(node.operand, _ADDITIVE)} {_not(node.negated)}LIKE"
            f" {_expr(node.pattern, _ADDITIVE)}")
    if node.escape is not None:
        text += f" ESCAPE {_expr(node.escape, _ADDITIVE)}"
    return _PREDICATE, text


def _between(node: ast.Between):
    return _PREDICATE, (
        f"{_expr(node.operand, _ADDITIVE)} {_not(node.negated)}BETWEEN"
        f" {_expr(node.low, _ADDITIVE)} AND {_expr(node.high, _ADDITIVE)}")


def _in_list(node: ast.InList):
    items = ", ".join(_expr(item, _OR) for item in node.items)
    return _PREDICATE, (f"{_expr(node.operand, _ADDITIVE)}"
                        f" {_not(node.negated)}IN ({items})")


def _in_subquery(node: ast.InSubquery):
    return _PREDICATE, (f"{_expr(node.operand, _ADDITIVE)}"
                        f" {_not(node.negated)}IN ({_select(node.query)})")


def _exists(node: ast.Exists):
    return _PRIMARY, f"EXISTS ({_select(node.query)})"


def _scalar_subquery(node: ast.ScalarSubquery):
    return _PRIMARY, f"({_select(node.query)})"


def _cast_multiset(node: ast.CastMultiset):
    return _PRIMARY, (f"CAST(MULTISET({_select(node.query)})"
                      f" AS {quote_identifier(node.type_name)})")


def _cast(node: ast.Cast):
    return _PRIMARY, (f"CAST({_expr(node.operand, _OR)}"
                      f" AS {_type_ref(node.type_ref)})")


def _case(node: ast.CaseWhen):
    parts = ["CASE"]
    for condition, value in node.branches:
        parts.append(f"WHEN {_expr(condition, _OR)}"
                     f" THEN {_expr(value, _OR)}")
    if node.default is not None:
        parts.append(f"ELSE {_expr(node.default, _OR)}")
    parts.append("END")
    return _PRIMARY, " ".join(parts)


def _type_ref(node: ast.TypeRef) -> str:
    if isinstance(node, ast.ScalarTypeRef):
        if not node.parameters:
            return node.keyword
        return f"{node.keyword}({', '.join(map(str, node.parameters))})"
    if isinstance(node, ast.RefTypeRef):
        return f"REF {quote_identifier(node.target)}"
    return quote_identifier(node.name)


_EXPRESSIONS = {
    ast.Literal: _literal,
    ast.DateLiteral: _date,
    ast.ColumnPath: _path,
    ast.Star: _star,
    ast.FunctionCall: _call,
    ast.AttributeAccess: _attribute,
    ast.BinaryOp: _binary,
    ast.UnaryOp: _unary,
    ast.IsNull: _is_null,
    ast.Like: _like,
    ast.Between: _between,
    ast.InList: _in_list,
    ast.InSubquery: _in_subquery,
    ast.Exists: _exists,
    ast.ScalarSubquery: _scalar_subquery,
    ast.CastMultiset: _cast_multiset,
    ast.Cast: _cast,
    ast.CaseWhen: _case,
}


# -- statements ----------------------------------------------------------------------


def _aliased(text: str, alias: str | None) -> str:
    return text if alias is None else f"{text} {quote_identifier(alias)}"


def _select_item(item: ast.SelectItem) -> str:
    text = _expr(item.expression, _OR)
    if item.alias is None:
        return text
    return f"{text} AS {quote_identifier(item.alias)}"


def _from_item(item: ast.FromItem) -> str:
    if isinstance(item, ast.TableRef):
        return _aliased(quote_identifier(item.name), item.alias)
    if isinstance(item, ast.SubqueryRef):
        return _aliased(f"({_select(item.query)})", item.alias)
    return _aliased(f"TABLE({_expr(item.expression, _OR)})", item.alias)


def _select(node: ast.SelectStmt) -> str:
    parts = ["SELECT"]
    if node.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_select_item(item) for item in node.items))
    parts.append("FROM")
    parts.append(", ".join(_from_item(item) for item in node.from_items))
    if node.where is not None:
        parts.append(f"WHERE {_expr(node.where, _OR)}")
    if node.group_by:
        parts.append("GROUP BY " + ", ".join(
            _expr(e, _OR) for e in node.group_by))
    if node.having is not None:
        parts.append(f"HAVING {_expr(node.having, _OR)}")
    if node.order_by:
        parts.append("ORDER BY " + ", ".join(
            _expr(item.expression, _OR) + ("" if item.ascending
                                            else " DESC")
            for item in node.order_by))
    if node.fetch_first is not None:
        parts.append(f"FETCH FIRST {node.fetch_first} ROWS ONLY")
    return " ".join(parts)


def _insert(node: ast.Insert) -> str:
    text = f"INSERT INTO {quote_identifier(node.table)}"
    if node.columns:
        text += f" ({', '.join(map(quote_identifier, node.columns))})"
    if node.query is not None:
        return f"{text} {_select(node.query)}"
    values = ", ".join(_expr(value, _OR) for value in node.values)
    return f"{text} VALUES({values})"


def _update(node: ast.Update) -> str:
    assignments = ", ".join(
        f"{_path(target)[1]} = {_expr(value, _OR)}"
        for target, value in node.assignments)
    text = (f"UPDATE {_aliased(quote_identifier(node.table), node.alias)}"
            f" SET {assignments}")
    if node.where is not None:
        text += f" WHERE {_expr(node.where, _OR)}"
    return text


def _delete(node: ast.Delete) -> str:
    text = f"DELETE FROM {_aliased(quote_identifier(node.table), node.alias)}"
    if node.where is not None:
        text += f" WHERE {_expr(node.where, _OR)}"
    return text


_STATEMENTS = {
    ast.SelectStmt: _select,
    ast.Insert: _insert,
    ast.Update: _update,
    ast.Delete: _delete,
}
