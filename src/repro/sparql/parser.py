"""Recursive-descent parser for the SPARQL subset."""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.kg.triples import IRI, Literal, RDF, Term, XSD
from repro.sparql import algebra as alg
from repro.sparql.lexer import SparqlLexError, Token, tokenize


class SparqlParseError(ValueError):
    """Raised when the query text is not valid in the supported subset."""


class _Parser:
    def __init__(self, tokens: List[Token], text: str):
        self.tokens = tokens
        self.text = text
        self.index = 0
        #: ``tokens[index]``, kept in step by :meth:`advance`; the list
        #: always ends with an EOF token, which is never advanced past.
        self.current: Token = tokens[0]
        self.prefixes: Dict[str, str] = {}

    # -- token plumbing -------------------------------------------------
    def advance(self) -> Token:
        token = self.current
        if token.kind != "EOF":
            self.index += 1
            self.current = self.tokens[self.index]
        return token

    def accept(self, *kinds: str) -> Optional[Token]:
        if self.current.kind in kinds:
            return self.advance()
        return None

    def expect(self, *kinds: str) -> Token:
        if self.current.kind in kinds:
            return self.advance()
        raise SparqlParseError(
            f"expected {' or '.join(kinds)} but found {self.current.kind} "
            f"({self.current.text!r}) at offset {self.current.position}"
        )

    # -- entry point -----------------------------------------------------
    def parse(self) -> alg.Query:
        while self.accept("PREFIX"):
            ns = self.expect("PNAME_NS").text[:-1]
            iri = self.expect("IRIREF").text[1:-1]
            self.prefixes[ns] = iri
        if self.accept("SELECT"):
            query = self._select_query()
        elif self.accept("ASK"):
            query = alg.AskQuery(where=self._group_pattern())
        else:
            raise SparqlParseError(
                f"expected SELECT or ASK at offset {self.current.position}"
            )
        self.expect("EOF")
        return query

    # -- SELECT ----------------------------------------------------------
    def _select_query(self) -> alg.SelectQuery:
        distinct = bool(self.accept("DISTINCT"))
        variables: List[alg.Var] = []
        count: Optional[alg.CountAggregate] = None
        if self.accept("STAR"):
            pass
        else:
            while True:
                if self.current.kind == "VAR":
                    variables.append(self._var(self.advance()))
                elif self.current.kind == "LPAREN":
                    if count is not None:
                        raise SparqlParseError("only one COUNT aggregate is supported")
                    count = self._count_aggregate()
                else:
                    break
            if not variables and count is None:
                raise SparqlParseError(
                    f"expected projection at offset {self.current.position}"
                )
        self.accept("WHERE")
        where = self._group_pattern()
        group_by: List[alg.Var] = []
        if self.accept("GROUP"):
            self.expect("BY")
            while self.current.kind == "VAR":
                group_by.append(self._var(self.advance()))
            if not group_by:
                raise SparqlParseError("GROUP BY requires at least one variable")
        order_by: List[alg.OrderCondition] = []
        if self.accept("ORDER"):
            self.expect("BY")
            while True:
                if self.accept("ASC"):
                    self.expect("LPAREN")
                    order_by.append(alg.OrderCondition(self._var(self.expect("VAR"))))
                    self.expect("RPAREN")
                elif self.accept("DESC"):
                    self.expect("LPAREN")
                    order_by.append(
                        alg.OrderCondition(self._var(self.expect("VAR")), descending=True)
                    )
                    self.expect("RPAREN")
                elif self.current.kind == "VAR":
                    order_by.append(alg.OrderCondition(self._var(self.advance())))
                else:
                    break
            if not order_by:
                raise SparqlParseError("ORDER BY requires at least one condition")
        limit = None
        offset = 0
        # LIMIT and OFFSET may appear in either order.
        for _ in range(2):
            if self.accept("LIMIT"):
                limit = int(self.expect("NUMBER").text)
            elif self.accept("OFFSET"):
                offset = int(self.expect("NUMBER").text)
        return alg.SelectQuery(
            variables=variables, where=where, distinct=distinct,
            order_by=order_by, limit=limit, offset=offset, count=count,
            group_by=group_by,
        )

    def _count_aggregate(self) -> alg.CountAggregate:
        self.expect("LPAREN")
        self.expect("COUNT")
        self.expect("LPAREN")
        distinct = bool(self.accept("DISTINCT"))
        if self.accept("STAR"):
            var = None
        else:
            var = self._var(self.expect("VAR"))
        self.expect("RPAREN")
        self.expect("AS")
        alias = self._var(self.expect("VAR"))
        self.expect("RPAREN")
        return alg.CountAggregate(var=var, alias=alias, distinct=distinct)

    # -- patterns ----------------------------------------------------------
    def _group_pattern(self) -> alg.GroupPattern:
        self.expect("LBRACE")
        group = alg.GroupPattern()
        bgp = alg.BGP()
        while self.current.kind != "RBRACE":
            if self.accept("FILTER"):
                group.elements.append(alg.Filter(self._constraint()))
            elif self.accept("OPTIONAL"):
                if bgp.patterns:
                    # Flush so the left side of the left-join evaluates first.
                    group.elements.append(bgp)
                    bgp = alg.BGP()
                group.elements.append(alg.OptionalPattern(self._group_pattern()))
            elif self.current.kind == "LBRACE":
                if bgp.patterns:
                    group.elements.append(bgp)
                    bgp = alg.BGP()
                first = self._group_pattern()
                alternatives = [first]
                while self.accept("UNION"):
                    alternatives.append(self._group_pattern())
                if len(alternatives) == 1:
                    group.elements.append(first)
                else:
                    group.elements.append(alg.UnionPattern(alternatives))
            else:
                for pattern in self._triples_same_subject():
                    bgp.patterns.append(pattern)
                if not self.accept("DOT") and self.current.kind not in (
                    "RBRACE", "FILTER", "OPTIONAL", "LBRACE",
                ):
                    raise SparqlParseError(
                        f"expected '.' or '}}' at offset {self.current.position}"
                    )
        self.expect("RBRACE")
        if bgp.patterns:
            group.elements.append(bgp)
        return group

    def _triples_same_subject(self) -> List[alg.TriplePattern]:
        subject = self._var_or_term()
        patterns: List[alg.TriplePattern] = []
        while True:
            predicate = self._verb()
            while True:
                obj = self._var_or_term()
                patterns.append(alg.TriplePattern(subject, predicate, obj))
                if not self.accept("COMMA"):
                    break
            if not self.accept("SEMICOLON"):
                break
            if self.current.kind in ("DOT", "RBRACE"):
                break  # dangling ';' is tolerated, as in full SPARQL
        return patterns

    def _verb(self):
        if self.current.kind == "VAR":
            return self._var(self.advance())
        return self._path()

    # -- property paths (subset: iri, a, ^p, p1/p2, p+, p*) ---------------
    def _path(self):
        parts = [self._path_elt()]
        while self.accept("SLASH"):
            parts.append(self._path_elt())
        if len(parts) == 1:
            return parts[0]
        return alg.SequencePath(tuple(parts))

    def _path_elt(self):
        primary = self._path_primary()
        if self.accept("PLUS"):
            return alg.OneOrMorePath(primary)
        if self.current.kind == "STAR":
            # '*' is also SELECT-star; in verb position it is a path modifier.
            self.advance()
            return alg.ZeroOrMorePath(primary)
        return primary

    def _path_primary(self):
        if self.accept("A"):
            return RDF.type
        if self.accept("CARET"):
            return alg.InversePath(self._path_primary())
        if self.accept("LPAREN"):
            inner = self._path()
            self.expect("RPAREN")
            return inner
        term = self._term()
        if not isinstance(term, IRI):
            raise SparqlParseError("property paths must be built from IRIs")
        return term

    def _var_or_term(self) -> alg.PatternTerm:
        token = self.current
        if token.kind == "VAR":
            self.advance()
            return self._var(token)
        return self._term()

    @staticmethod
    def _var(token: Token) -> alg.Var:
        return alg.Var(token.text[1:])

    def _term(self) -> Term:
        token = self.current
        if token.kind == "IRIREF":
            self.advance()
            return IRI(token.text[1:-1])
        if token.kind == "PNAME":
            self.advance()
            prefix, local = token.text.split(":", 1)
            if prefix not in self.prefixes:
                raise SparqlParseError(f"undeclared prefix {prefix!r}")
            return IRI(self.prefixes[prefix] + local)
        if token.kind == "STRING":
            self.advance()
            lexical = _unescape(token.text[1:-1])
            if self.accept("DTYPE"):
                dtype = self._term()
                if not isinstance(dtype, IRI):
                    raise SparqlParseError("datatype must be an IRI")
                return Literal(lexical, datatype=dtype.value)
            lang = self.accept("LANGTAG")
            if lang:
                return Literal(lexical, language=lang.text[1:])
            return Literal(lexical)
        if token.kind == "NUMBER":
            self.advance()
            if any(ch in token.text for ch in ".eE"):
                return Literal(token.text, datatype=XSD.double)
            return Literal(token.text, datatype=XSD.integer)
        raise SparqlParseError(
            f"expected a term but found {token.kind} ({token.text!r}) "
            f"at offset {token.position}"
        )

    # -- expressions -------------------------------------------------------
    def _constraint(self) -> alg.Expression:
        if self.current.kind == "LPAREN":
            self.advance()
            expr = self._expression()
            self.expect("RPAREN")
            return expr
        return self._primary_expression()

    def _expression(self) -> alg.Expression:
        return self._or_expression()

    def _or_expression(self) -> alg.Expression:
        left = self._and_expression()
        while self.accept("OROR"):
            left = alg.BoolOp("||", left, self._and_expression())
        return left

    def _and_expression(self) -> alg.Expression:
        left = self._relational_expression()
        while self.accept("ANDAND"):
            left = alg.BoolOp("&&", left, self._relational_expression())
        return left

    def _relational_expression(self) -> alg.Expression:
        left = self._unary_expression()
        op_token = self.accept("EQ", "NEQ", "LT", "LE", "GT", "GE")
        if op_token is None:
            return left
        ops = {"EQ": "=", "NEQ": "!=", "LT": "<", "LE": "<=", "GT": ">", "GE": ">="}
        return alg.Comparison(ops[op_token.kind], left, self._unary_expression())

    def _unary_expression(self) -> alg.Expression:
        if self.accept("BANG"):
            return alg.NotOp(self._unary_expression())
        return self._primary_expression()

    _FUNCTIONS = {"BOUND", "STR", "LANG", "REGEX", "CONTAINS", "STRSTARTS",
                  "STRENDS", "LCASE", "UCASE", "ISIRI", "ISLITERAL", "XSD"}

    def _primary_expression(self) -> alg.Expression:
        token = self.current
        if token.kind == "LPAREN":
            self.advance()
            expr = self._expression()
            self.expect("RPAREN")
            return expr
        if token.kind == "VAR":
            self.advance()
            return alg.VarExpr(self._var(token))
        if token.kind == "NAME" and token.text.upper() in self._FUNCTIONS:
            self.advance()
            return self._function_call(token.text.upper())
        if token.kind in ("IRIREF", "PNAME", "STRING", "NUMBER"):
            return alg.TermExpr(self._term())
        raise SparqlParseError(
            f"unexpected token {token.kind} ({token.text!r}) in expression "
            f"at offset {token.position}"
        )

    def _function_call(self, name: str) -> alg.FunctionCall:
        self.expect("LPAREN")
        args: List[alg.Expression] = []
        if self.current.kind != "RPAREN":
            args.append(self._expression())
            while self.accept("COMMA"):
                args.append(self._expression())
        self.expect("RPAREN")
        return alg.FunctionCall(name, tuple(args))


def _unescape(text: str) -> str:
    return (
        text.replace("\\n", "\n")
        .replace("\\t", "\t")
        .replace('\\"', '"')
        .replace("\\\\", "\\")
    )


def parse_query(text: str) -> alg.Query:
    """Parse a SPARQL query string into the algebra.

    Raises :class:`SparqlParseError` (including for lexical errors) so
    callers — notably the text-to-SPARQL evaluation harness, which must
    count malformed LLM output as a failure, not a crash — have a single
    exception type to catch.
    """
    try:
        tokens = tokenize(text)
    except SparqlLexError as exc:
        raise SparqlParseError(str(exc)) from exc
    return _Parser(tokens, text).parse()
