r"""The map-definition text format.

Grammar (UTF-8 text, ``#`` comments to end of line)::

    map NAME: (R|C)^m -> (R|C)^n {
        local = EXPR;        # let-style binding, inlined at parse time
        NAME1 = EXPR;        # components, named after the map
        ...
        NAMEn = EXPR;
        guard EXPR;          # EXPR must be > 0 on the valid domain
    }

Operator precedence: ``^`` binds tightest, then unary minus, then ``*`` and
``/``, then ``+`` and ``-``.  Real maps use variables ``x1..xm``; complex maps
use ``z1..zm`` (``zb1..zbm`` for formal conjugates), the reserved constant
``i`` and the function ``conj``.  Complex syntax inside a declared-real map is
an error.  Maps whose components are all polynomial parse to the exact
representations; otherwise (division, sqrt, or any guard) the result is a
:class:`~morphlift.expr.SmoothMap`.

Canonical text, the subset that :func:`~morphlift.poly.render` and
:func:`render_map_source` write when every coefficient is rational, is read
straight into term dicts:

* a polynomial is one summand or more, each ``[INT[/INT]*]NAME[^INT]`` then
  any number of ``*NAME[^INT]``, or ``INT[/INT]`` alone, joined by ``+`` or
  ``-``, with at most one ``-`` in front of the first.  INT is a run of
  ASCII digits (a denominator not 0), and NAME an ASCII name that is a
  variable of the ring.  Whitespace is ``[ \t\r\n]``, at either end and
  around each sign, never inside a summand;
* a map is ``map NAME: K^m -> K^n {`` with K both R or both C and m, n
  without leading zeros, then ``NAME1 = POLY;`` to ``NAMEn = POLY;`` in
  that order, then ``}``, with whitespace between tokens except inside
  ``K^m`` and ``K^n``: no comments, bindings or guards, no reserved NAME,
  and no component named like a variable.

:func:`parse_map` and :func:`parse_poly` try that reader on the whole input
first.  On anything outside the subset they run the tokenizer, the parser
and :func:`~morphlift.expr.lower_to_poly` on the whole input, so every other
input, and every error, takes the general path.  Both paths give the same
terms, in the same order, with the same coefficient types.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .exact import GaussianRational, Scalar
from .expr import (
    Conj,
    Const,
    Expr,
    Pow,
    PowerTooLarge,
    SmoothMap,
    Sqrt,
    Var,
    accumulate_term,
    add,
    div,
    is_polynomial,
    lower_to_poly,
    mul,
    neg,
    power,
    sub,
)
from .maps import ComplexPolyMap, RealPolyMap
from .poly import MultiPoly, default_names


class MapSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{line}:{column}: {message}")


# One alternative per token kind, tried in this order.  ``\d`` is a run of
# str.isdecimal() characters, what int() reads, and ``\w`` is str.isalnum()
# or "_".  ``[^\W\d]`` also admits numeric characters such as "²" or
# "¼" that str.isalpha() rejects; those are unexpected characters.
_TOKEN = re.compile(r"""
    (?P<skip>[ \t\r\n]+ | \#[^\n]*)
  | (?P<number>\d+) (?P<decimal>\.)?
  | (?P<ident>[^\W\d]\w*)
  | (?P<symbol>-> | [-+*/^(){}:;=,])
  | (?P<unexpected>.)
""", re.VERBOSE | re.DOTALL)


def _position(source: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``offset``; columns count code points."""
    line_start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, line_start) + 1, offset - line_start + 1


def _syntax_error(message: str, source: str, offset: int) -> MapSyntaxError:
    return MapSyntaxError(message, *_position(source, offset))


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, text, offset) with kind ident, number, symbol or end.

    The end token sits at the end of the source, or at the ``#`` of a comment
    that runs to the end of it.
    """
    tokens = []
    append = tokens.append
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        if kind == "skip":
            continue
        text, offset = match.group(), match.start()
        if kind == "decimal":
            raise _syntax_error("decimal literals are not supported; "
                                "use exact fractions like 1/2", source, offset)
        if kind == "unexpected" or (kind == "ident" and not
                                    (text[0].isalpha() or text[0] == "_")):
            raise _syntax_error(f"unexpected character {text[0]!r}", source, offset)
        append((kind, text, offset))
    last_line = source.rfind("\n") + 1
    comment = source.find("#", last_line)
    append(("end", "", len(source) if comment < 0 else comment))
    return tokens


class _Parser:
    """Recursive-descent expression parser over a binding environment."""

    def __init__(self, source: str, env: dict[str, Expr], is_complex: bool):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.env = env
        self.is_complex = is_complex
        self.carets = {}        # Pow node -> its "^" token

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def advance(self) -> tuple:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def error(self, message: str, token: tuple = None) -> MapSyntaxError:
        """The error at ``token``, or at the next token, for the caller to
        raise."""
        token = token or self.peek()
        return _syntax_error(message, self.source, token[2])

    def expect(self, kind: str, text: str = None) -> tuple:
        token = self.peek()
        if token[0] != kind or (text is not None and token[1] != text):
            expected = text or kind
            raise self.error(f"expected {expected!r}, found {token[1] or 'end of input'!r}")
        return self.advance()

    def number(self) -> int:
        """The next token, which must be a number, as an int."""
        token = self.expect("number")
        try:
            return int(token[1])
        except ValueError:      # longer than int() reads from a string
            raise self.error(f"number of {len(token[1])} digits is too long",
                             token) from None

    def at_symbol(self, text: str) -> bool:
        # no ident, number or end token has a symbol's text
        return self.tokens[self.pos][1] == text

    def lower(self, node: Expr, num_vars: int, num_complex: int) -> MultiPoly:
        """``lower_to_poly``, with a power too large to expand reported at
        its "^"."""
        try:
            return lower_to_poly(node, num_vars, num_complex)
        except PowerTooLarge as error:
            raise self.error(str(error), self.carets.get(error.node)) from None

    # -- grammar ------------------------------------------------------------

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            right = self.parse_term()
            node = add(node, right) if op == "+" else sub(node, right)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.peek()[1] in ("*", "/"):
            op = self.advance()[1]
            right = self.parse_factor()
            node = mul(node, right) if op == "*" else div(node, right)
        return node

    def parse_factor(self) -> Expr:
        # a loop, not a call per sign; the innermost minus applies first
        minus_signs = 0
        while self.peek()[1] in ("+", "-"):
            minus_signs += self.advance()[1] == "-"
        node = self.parse_power()
        for _ in range(minus_signs):
            node = neg(node)
        return node

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.at_symbol("^"):
            caret = self.advance()
            try:
                node = power(base, self.number())
            except PowerTooLarge as error:
                raise self.error(str(error), caret) from None
            if type(node) is Pow:
                self.carets[node] = caret
            return node
        return base

    def parse_atom(self) -> Expr:
        token = self.peek()
        kind, name, _ = token
        if kind == "number":
            return Const(self.number())
        if self.at_symbol("("):
            self.advance()
            node = self.parse_expr()
            self.expect("symbol", ")")
            return node
        if kind == "ident":
            self.advance()
            if self.at_symbol("("):
                self.advance()
                arg = self.parse_expr()
                self.expect("symbol", ")")
                return self.apply_function(name, arg, token)
            return self.lookup(name, token)
        raise self.error(f"expected an expression, found {name or 'end of input'!r}")

    def apply_function(self, name: str, arg: Expr, token: tuple) -> Expr:
        if name == "sqrt":
            return Sqrt(arg)
        if name == "conj":
            if not self.is_complex:
                raise self.error(f"{name!r} is complex syntax in a declared-real map",
                                 token)
            return Conj(arg)
        raise self.error(f"unknown function {name!r}", token)

    def lookup(self, name: str, token: tuple) -> Expr:
        if name in self.env:
            return self.env[name]
        if name == "i":
            if not self.is_complex:
                raise self.error("'i' is complex syntax in a declared-real map", token)
            return Const(GaussianRational(0, 1))
        head = "zb" if name.startswith("zb") else name[0]
        tail = name[len(head):]
        if head in ("x", "z", "zb") and tail.isdigit():
            if head in ("z", "zb") and not self.is_complex:
                raise self.error(f"variable {name!r} is complex syntax in a "
                                 "declared-real map", token)
            if head == "x" and self.is_complex:
                raise self.error(f"variable {name!r} is real syntax in a "
                                 "declared-complex map (use z variables)", token)
            raise self.error(f"variable {name!r} exceeds the declared arity", token)
        raise self.error(f"unknown identifier {name!r}", token)


def _parse_space(parser: _Parser) -> tuple[str, int]:
    token = parser.expect("ident")
    if token[1] not in ("R", "C"):
        raise parser.error("expected a space like R^4 or C^2", token)
    parser.expect("symbol", "^")
    dim = parser.number()
    if dim <= 0:
        raise parser.error("dimension must be positive", token)
    return token[1], dim


def parse_map(source: str):
    """Parse a map definition; returns RealPolyMap, ComplexPolyMap or SmoothMap."""
    canonical = _read_canonical_map(source)
    if canonical is not None:
        return canonical
    parser = _Parser(source, {}, is_complex=False)
    parser.expect("ident", "map")
    name_token = parser.expect("ident")
    map_name = name_token[1]
    if map_name in _RESERVED_MAP_NAMES:
        raise parser.error(f"{map_name!r} is reserved and cannot name a map",
                           name_token)
    parser.expect("symbol", ":")
    domain_kind, domain_dim = _parse_space(parser)
    parser.expect("symbol", "->")
    codomain_kind, codomain_dim = _parse_space(parser)
    if domain_kind != codomain_kind:
        raise parser.error("domain and codomain must both be real or both complex",
                           name_token)
    is_complex = domain_kind == "C"
    parser.is_complex = is_complex
    kind = ComplexPolyMap if is_complex else RealPolyMap
    num_vars, num_complex = kind.ring(domain_dim)
    for index, name in enumerate(default_names(num_vars, num_complex)):
        parser.env[name] = Var(index)

    variable_names = frozenset(parser.env)
    component_names = [f"{map_name}{k + 1}" for k in range(codomain_dim)]
    components: dict[str, Expr] = {}
    guards: list[Expr] = []
    parser.expect("symbol", "{")
    while not parser.at_symbol("}"):
        if parser.peek()[:2] == ("ident", "guard"):
            parser.advance()
            guards.append(parser.parse_expr())
            parser.expect("symbol", ";")
            continue
        binding_token = parser.expect("ident")
        binding = binding_token[1]
        parser.expect("symbol", "=")
        value = parser.parse_expr()
        parser.expect("symbol", ";")
        if binding in variable_names:
            raise parser.error(f"{binding!r} shadows a variable", binding_token)
        if binding in components or binding in parser.env:
            raise parser.error(f"{binding!r} is defined twice", binding_token)
        if binding in component_names:
            components[binding] = value
        else:
            parser.env[binding] = value
    parser.expect("symbol", "}")
    parser.expect("end")

    missing = [c for c in component_names if c not in components]
    if missing:
        raise parser.error(f"missing component definitions: {', '.join(missing)}",
                           name_token)
    ordered = [components[c] for c in component_names]

    all_poly = not guards and all(is_polynomial(c, allow_conj=is_complex)
                                  for c in ordered)
    if is_complex and not all_poly:
        raise parser.error(
            "non-polynomial complex maps are not supported; only real "
            "maps may use sqrt, division or guards", name_token)
    if all_poly:
        polys = [parser.lower(c, num_vars, num_complex) for c in ordered]
        return kind(domain_dim, codomain_dim, tuple(polys))
    return SmoothMap(domain_dim, tuple(ordered), tuple(guards))


# ---------------------------------------------------------------------------
# Polynomial expressions and Gaussian-rational literals
# ---------------------------------------------------------------------------

def parse_poly(source: str, num_vars: int, num_complex: int = 0,
               names=None) -> MultiPoly:
    """Parse one polynomial in canonical variables (round-trips ``render``)."""
    env: dict[str, Expr] = {}
    if names is None:
        names = default_names(num_vars, num_complex)
    if not num_complex or num_vars == 2 * num_complex:
        canonical = _read_canonical_poly(
            source, {name: index for index, name in enumerate(names)},
            num_vars, num_complex)
        if canonical is not None:
            return canonical
    for index, name in enumerate(names):
        env[name] = Var(index)
    parser = _Parser(source, env, is_complex=num_complex > 0)
    node = parser.parse_expr()
    parser.expect("end")
    return parser.lower(node, num_vars, num_complex)


# ---------------------------------------------------------------------------
# Canonical text, read straight into terms
# ---------------------------------------------------------------------------

_RESERVED_MAP_NAMES = ("guard", "sqrt", "conj", "re", "im", "i")

# ``[ \t\r\n]`` is the tokenizer's whitespace; ``\s`` would also take "\f",
# "\v" and non-ASCII spaces, which the tokenizer rejects.
_BLANK = r"[ \t\r\n]"
_SEPARATOR = re.compile(rf"{_BLANK}*([+-]){_BLANK}*")
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_FACTOR = rf"{_NAME}(?:\^[0-9]+)?"
_SUMMAND = re.compile(rf"(?:([0-9]+)(?:/([0-9]+))?\*)?({_FACTOR}(?:\*{_FACTOR})*)"
                      r"|([0-9]+)(?:/([0-9]+))?")
_MAP_HEADER = re.compile(
    rf"{_BLANK}*map{_BLANK}+({_NAME}){_BLANK}*:{_BLANK}*([RC])\^([1-9][0-9]*)"
    rf"{_BLANK}*->{_BLANK}*([RC])\^([1-9][0-9]*){_BLANK}*\{{")
_COMPONENT = re.compile(rf"{_BLANK}*({_NAME}){_BLANK}*=([^;]*);")
_MAP_END = re.compile(rf"{_BLANK}*\}}{_BLANK}*")


def _read_canonical_poly(text: str, index: dict, num_vars: int,
                         num_complex: int):
    """The polynomial that ``text`` in the canonical subset (see the module
    docstring) denotes, over the variables ``index`` maps to their
    positions; None for any other text.

    Each summand's (exponents, coefficient) goes into one term dict through
    :func:`~morphlift.expr.accumulate_term`, in the order in which
    :func:`~morphlift.expr.lower_to_poly` adds them, so the terms, their
    order and their coefficient types are the general path's."""
    parts = _SEPARATOR.split(text.strip(" \t\r\n"))
    # summand, then (sign, summand) pairs; a leading "-" leaves "" first
    if parts[0]:
        signs, summands = ["+", *parts[1::2]], parts[::2]
    elif parts[1:2] == ["-"]:
        signs, summands = parts[1::2], parts[2::2]
    else:
        return None
    terms: dict = {}
    try:
        for sign, summand in zip(signs, summands):
            match = _SUMMAND.fullmatch(summand)
            if match is None:
                return None
            numerator, denominator, factors, constant, constant_denominator = \
                match.groups()
            exponents = [0] * num_vars
            if factors is None:
                numerator, denominator = constant, constant_denominator
            else:
                for factor in factors.split("*"):
                    name, _, power = factor.partition("^")
                    position = index.get(name)
                    if position is None or position >= num_vars:
                        return None
                    exponents[position] += int(power) if power else 1
            coeff = int(numerator) if numerator else 1
            if denominator:
                divisor = int(denominator)
                if not divisor:
                    return None
                coeff = Fraction(coeff, divisor)
                if coeff.denominator == 1:
                    coeff = coeff.numerator
            accumulate_term(terms, tuple(exponents), coeff, 1 if sign == "+" else -1)
    except ValueError:      # a literal longer than int() reads from a string
        return None
    return MultiPoly._trusted(num_vars, terms, num_complex)


def _read_canonical_map(source: str):
    """The polynomial map that ``source`` in the canonical subset (see the
    module docstring) defines; None for any other source."""
    header = _MAP_HEADER.match(source)
    if header is None:
        return None
    map_name, domain_kind, domain, codomain_kind, codomain = header.groups()
    if domain_kind != codomain_kind or map_name in _RESERVED_MAP_NAMES:
        return None
    try:
        domain_dim, codomain_dim = int(domain), int(codomain)
    except ValueError:      # too long for int()
        return None
    kind = ComplexPolyMap if domain_kind == "C" else RealPolyMap
    num_vars, num_complex = kind.ring(domain_dim)
    index = {name: position for position, name
             in enumerate(default_names(num_vars, num_complex))}
    polys = []
    end = header.end()
    for k in range(1, codomain_dim + 1):
        component = _COMPONENT.match(source, end)
        if (component is None or component[1] != f"{map_name}{k}"
                or component[1] in index):
            return None
        poly = _read_canonical_poly(component[2], index, num_vars, num_complex)
        if poly is None:
            return None
        polys.append(poly)
        end = component.end()
    if _MAP_END.fullmatch(source, end) is None:
        return None
    return kind(domain_dim, codomain_dim, tuple(polys))


def parse_gaussian(source: str) -> Scalar:
    """Parse an exact Gaussian-rational literal such as ``1-1*i`` or ``3/2``."""
    from .expr import NotPolynomial

    parser = _Parser(source, {}, is_complex=True)
    node = parser.parse_expr()
    parser.expect("end")
    try:
        constant = parser.lower(node, 0, 0)
    except NotPolynomial as error:
        raise MapSyntaxError(f"not an exact literal: {error}", 1, 1) from error
    if constant.is_zero:
        return 0
    return constant.terms[()]


def parse_points(source: str, expected_length: int) -> list[tuple]:
    """Parse a points file: one complex point per line, comma-separated."""
    points = []
    for line_number, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        cells = [cell.strip() for cell in line.split(",")]
        if len(cells) != expected_length:
            raise MapSyntaxError(
                f"point has {len(cells)} coordinates, expected {expected_length}",
                line_number, 1)
        try:
            points.append(tuple(parse_gaussian(cell) for cell in cells))
        except MapSyntaxError as error:
            raise MapSyntaxError(f"bad coordinate: {error}", line_number, 1) from error
    return points


def render_map_source(the_map, name: str = "f") -> str:
    """Render a parsed map back to the text format (a parse fixed point).

    Always uses the grammar's canonical variable names, regardless of any
    display names the map carries.
    """
    from .expr import render_expr
    from .poly import render

    if isinstance(the_map, SmoothMap):
        names = default_names(the_map.domain_dim)
        kind, domain_dim = "R", the_map.domain_dim
        bodies = [render_expr(c, names) for c in the_map.components]
        guards = [render_expr(g, names) for g in the_map.guards]
    elif isinstance(the_map, ComplexPolyMap):
        names = default_names(2 * the_map.domain_dim, the_map.domain_dim)
        kind, domain_dim = "C", the_map.domain_dim
        bodies = [render(c, names) for c in the_map.components]
        guards = []
    elif isinstance(the_map, RealPolyMap):
        names = default_names(the_map.domain_dim)
        kind, domain_dim = "R", the_map.domain_dim
        bodies = [render(c, names) for c in the_map.components]
        guards = []
    else:
        raise TypeError(f"cannot render {the_map!r} as a map source")
    header = f"map {name}: {kind}^{domain_dim} -> {kind}^{len(bodies)} {{"
    body = [f"    {name}{k + 1} = {text};" for k, text in enumerate(bodies)]
    body.extend(f"    guard {text};" for text in guards)
    return "\n".join([header, *body, "}"])
