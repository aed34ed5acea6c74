"""A SQL-style front end for the paper's query notation (Section III).

The paper writes preference queries as::

    select top-k from R
    where A1 = a1 and ... and Ai = ai
    order by f(N1, N2, ..., Nj)

    select skylines from R
    where A1 = a1 and ... and Ai = ai
    preference by N1, N2, ..., Nj

This module parses exactly that surface (case-insensitive, whitespace
tolerant) and executes it on a :class:`~repro.query.session.QuerySession`.
``ORDER BY`` accepts any sum of per-dimension terms — ``price``,
``0.5 * mileage``, ``(price - 15000)^2``, ``0.3*(mileage - 30000)^2`` —
covering the paper's Example 1 and Figure 13 function families; the mix is
compiled to a :class:`~repro.query.ranking.SeparableFunction` with exact
MBR lower bounds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any

from repro.query.session import QueryResult, QuerySession
from repro.query.predicates import BooleanPredicate
from repro.query.ranking import SeparableFunction


class SQLSyntaxError(ValueError):
    """Raised when a query string does not match the supported grammar."""


@dataclass
class ParsedQuery:
    """The structured form of one query string."""

    kind: str  # "topk" | "skyline"
    k: int | None = None
    where: dict[str, Any] = field(default_factory=dict)
    order_terms: list[tuple[str, str, float, float]] = field(
        default_factory=list
    )  # (dim_name, kind, coeff, target)
    preference_by: tuple[str, ...] | None = None


# --------------------------------------------------------------------------- #
# tokenizer helpers
# --------------------------------------------------------------------------- #

_NUMBER = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_IDENT = r"[A-Za-z_][A-Za-z_0-9]*"
_VALUE = rf"(?:'[^']*'|\"[^\"]*\"|{_NUMBER}|{_IDENT})"

_HEAD = re.compile(
    r"^\s*select\s+(?:(top)[\s-]*(\d+)|(skylines?))\s+from\s+(\w+)\s*(.*)$",
    re.IGNORECASE | re.DOTALL,
)
_WHERE = re.compile(
    r"^where\s+(.*?)(?=(?:\s+order\s+by\s)|(?:\s+preference\s+by\s)|$)",
    re.IGNORECASE | re.DOTALL,
)
_ORDER = re.compile(r"\border\s+by\s+(.*)$", re.IGNORECASE | re.DOTALL)
_PREFERENCE = re.compile(
    r"\bpreference\s+by\b\s*(.*)$", re.IGNORECASE | re.DOTALL
)
_CONJUNCT = re.compile(
    rf"^\s*({_IDENT})\s*=\s*({_VALUE})\s*$", re.DOTALL
)
_SQUARED_TERM = re.compile(
    rf"^\s*(?:({_NUMBER})\s*\*\s*)?\(\s*({_IDENT})\s*-\s*({_NUMBER})\s*\)\s*"
    rf"(?:\^\s*2|\*\*\s*2)\s*$",
    re.DOTALL,
)
_LINEAR_TERM = re.compile(
    rf"^\s*(?:({_NUMBER})\s*\*\s*)?({_IDENT})\s*$", re.DOTALL
)


def _parse_value(raw: str) -> Any:
    raw = raw.strip()
    if raw[0] in "'\"" and raw[-1] == raw[0]:
        return raw[1:-1]
    try:
        as_float = float(raw)
    except ValueError:
        return raw  # a bare identifier: treat as a string value (a1, b2...)
    if as_float.is_integer() and "." not in raw and "e" not in raw.lower():
        return int(raw)
    return as_float


def _split_top_level_plus(expression: str) -> list[str]:
    """Split on '+' outside parentheses."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for char in expression:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth < 0:
                raise SQLSyntaxError("unbalanced parentheses in ORDER BY")
        if char == "+" and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    if depth != 0:
        raise SQLSyntaxError("unbalanced parentheses in ORDER BY")
    parts.append("".join(current))
    return parts


def parse_query(text: str) -> ParsedQuery:
    """Parse one query string into its structured form.

    Raises:
        SQLSyntaxError: with a description of what failed to parse.
    """
    head = _HEAD.match(text)
    if head is None:
        raise SQLSyntaxError(
            "query must start with 'SELECT TOP k FROM R' or "
            "'SELECT SKYLINES FROM R'"
        )
    top, k_raw, _skyline, _table, tail = head.groups()
    parsed = ParsedQuery(kind="topk" if top else "skyline")
    if top:
        parsed.k = int(k_raw)
        if parsed.k < 1:
            raise SQLSyntaxError("TOP k needs k >= 1")
    tail = tail.strip()

    where = _WHERE.match(tail)
    if where is not None:
        for conjunct in re.split(r"\s+and\s+", where.group(1), flags=re.IGNORECASE):
            match = _CONJUNCT.match(conjunct)
            if match is None:
                raise SQLSyntaxError(
                    f"cannot parse WHERE conjunct {conjunct.strip()!r} "
                    "(expected 'dim = value')"
                )
            dim, value = match.group(1), _parse_value(match.group(2))
            if dim in parsed.where:
                raise SQLSyntaxError(f"dimension {dim!r} constrained twice")
            parsed.where[dim] = value

    order = _ORDER.search(tail)
    preference = _PREFERENCE.search(tail)
    if parsed.kind == "topk":
        if order is None:
            raise SQLSyntaxError("TOP-k queries need an ORDER BY clause")
        if preference is not None:
            raise SQLSyntaxError("TOP-k queries take ORDER BY, not PREFERENCE BY")
        for raw_term in _split_top_level_plus(order.group(1).strip()):
            squared = _SQUARED_TERM.match(raw_term)
            if squared is not None:
                coeff, dim, target = squared.groups()
                parsed.order_terms.append(
                    (dim, "squared", float(coeff or 1.0), float(target))
                )
                continue
            linear = _LINEAR_TERM.match(raw_term)
            if linear is not None:
                coeff, dim = linear.groups()
                parsed.order_terms.append(
                    (dim, "linear", float(coeff or 1.0), 0.0)
                )
                continue
            raise SQLSyntaxError(
                f"cannot parse ORDER BY term {raw_term.strip()!r} (expected "
                "'[c *] dim' or '[c *] (dim - t)^2')"
            )
    else:
        if order is not None:
            raise SQLSyntaxError(
                "skyline queries take PREFERENCE BY, not ORDER BY"
            )
        if preference is not None:
            names = [
                name.strip()
                for name in preference.group(1).split(",")
                if name.strip()
            ]
            if not names:
                raise SQLSyntaxError("PREFERENCE BY needs dimension names")
            if len(set(names)) != len(names):
                raise SQLSyntaxError("PREFERENCE BY repeats a dimension")
            parsed.preference_by = tuple(names)
    return parsed


def execute(engine: QuerySession, text: str) -> QueryResult:
    """Parse and run a query against a built system."""
    parsed = parse_query(text)
    schema = engine.relation.schema

    for dim in parsed.where:
        schema.boolean_position(dim)  # raises KeyError on unknown dims
    predicate = BooleanPredicate(parsed.where)

    if parsed.kind == "skyline":
        return engine.skyline(predicate, preference_by=parsed.preference_by)

    terms = [
        (schema.preference_position(dim), kind, coeff, target)
        for dim, kind, coeff, target in parsed.order_terms
    ]
    fn = SeparableFunction(terms)
    assert parsed.k is not None
    return engine.topk(fn, parsed.k, predicate)
