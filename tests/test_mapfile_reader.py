"""The reader of canonical text against the general parser.

``parse_poly`` and ``parse_map`` read canonical text (see the ``mapfile``
docstring) straight into terms, and hand any other input, whole, to the
tokenizer, the parser and ``lower_to_poly``.  Here the general path is the
same function with the reader switched off.  On every source both must give
the same terms, in the same order, with the same coefficient types, or
raise the same exception type with the same message.  The sources are
canonical sums over 0 to 8 variables and perturbations of them, some inside
the reader's subset and most outside it.
"""

import contextlib
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from morphlift import mapfile
from morphlift.expr import SmoothMap
from morphlift.poly import MultiPoly, default_names

SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])

NINES = "9" * 4300      # as many digits as int() reads
TOO_LONG = "9" * 4301


@contextlib.contextmanager
def general_path():
    """parse_poly and parse_map with the reader of canonical text off."""
    saved = mapfile._read_canonical_poly, mapfile._read_canonical_map
    mapfile._read_canonical_poly = lambda *args: None
    mapfile._read_canonical_map = lambda source: None
    try:
        yield
    finally:
        mapfile._read_canonical_poly, mapfile._read_canonical_map = saved


def _terms(poly: MultiPoly) -> tuple:
    return (poly.num_vars, poly.num_complex,
            [(exponents, coeff, type(coeff)) for exponents, coeff in poly.terms.items()])


def _outcome(parse, *args):
    """What a parse gives, in a form that compares term order and types."""
    try:
        result = parse(*args)
    except Exception as error:      # the error must match too
        return "raises", type(error), str(error)
    if isinstance(result, MultiPoly):
        return "poly", _terms(result)
    if isinstance(result, SmoothMap):   # expression trees compare by identity
        return "smooth", mapfile.render_map_source(result)
    return (type(result), result.domain_dim, result.codomain_dim,
            [_terms(c) for c in result.components])


def assert_same_poly(source, num_vars, num_complex=0, names=None):
    read = _outcome(mapfile.parse_poly, source, num_vars, num_complex, names)
    with general_path():
        general = _outcome(mapfile.parse_poly, source, num_vars, num_complex, names)
    assert read == general, source


def assert_same_map(source):
    read = _outcome(mapfile.parse_map, source)
    with general_path():
        general = _outcome(mapfile.parse_map, source)
    assert read == general, source


def _reads(source, num_vars, num_complex=0, names=None) -> bool:
    names = default_names(num_vars, num_complex) if names is None else names
    index = {name: position for position, name in enumerate(names)}
    return mapfile._read_canonical_poly(source, index, num_vars,
                                        num_complex) is not None


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------

@st.composite
def canonical_sums(draw, names):
    """A sum in the reader's subset over ``names``: coefficients with and
    without denominators, repeated factors, exponents 0 and 1, and a small
    pool of monomials, so that terms repeat, cancel and come back."""
    monomials = draw(st.lists(
        st.lists(st.tuples(st.sampled_from(names), st.integers(0, 4)),
                 max_size=3) if names else st.just([]),
        min_size=1, max_size=4))
    summands = []
    for _ in range(draw(st.integers(1, 8))):
        factors = draw(st.sampled_from(monomials))
        numerator = draw(st.sampled_from([0, 1, 1, 2, 3, 4, 12]))
        denominator = draw(st.sampled_from([None, None, 1, 2, 3, 6]))
        coeff = str(numerator) + (f"/{denominator}" if denominator else "")
        text = "*".join(name if e == 1 and draw(st.booleans()) else f"{name}^{e}"
                        for name, e in factors)
        if not text:
            summands.append(coeff)
        elif coeff == "1" and draw(st.booleans()):
            summands.append(text)
        else:
            summands.append(f"{coeff}*{text}")
    text = draw(st.sampled_from(["", "-", "- ", "\n-\t"])) + summands[0]
    for summand in summands[1:]:
        text += draw(st.sampled_from([" + ", " - ", "+", "-", "\r\n+ ", " -\t"]))
        text += summand
    return draw(st.sampled_from(["", " ", "\n"])) + text + draw(
        st.sampled_from(["", " ", "\t\n"]))


# what the reader must refuse, and what it must read alike
INSERTS = [
    " ", "\t", "\r", "\n", "\f", "\v", " ", " ",
    "+", "-", "--", "*", "/", "^", "(", ")", ";", "#", "# comment\n",
    "x1^0", "0*x1", "4/2*x1", "1/1*x1", "3/0*x1", "2^3*x1", "x1*2", "x1/2",
    "x1*x1", " + x1", " - x1", "x9", "y1", "z1", "zb1", "t", "i", "guard",
    f"{NINES}*x1", f"{TOO_LONG}*x1", f"x1^{TOO_LONG}", "١", "x١",
    "é", "x1é", "²", "0", "07", "1.5",
]


@st.composite
def perturbed(draw, text):
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(INSERTS)) + text[at:]
    return text


@st.composite
def rings(draw):
    """(num_vars, num_complex, names): real rings of 0 to 8 variables,
    complex rings, and the x/y names of a lift's output."""
    num_vars = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["real", "complex", "lift"]))
    if kind == "complex" and num_vars % 2 == 0 and num_vars:
        return num_vars, num_vars // 2, None
    if kind == "lift" and num_vars % 2 == 0:
        half = num_vars // 2
        return num_vars, 0, tuple([f"x{j}" for j in range(1, half + 1)]
                                  + [f"y{j}" for j in range(1, half + 1)])
    return num_vars, 0, None


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

@SETTINGS
@given(ring=rings(), data=st.data())
def test_reader_reads_canonical_sums_as_the_general_parser(ring, data):
    num_vars, num_complex, names = ring
    ring_names = default_names(num_vars, num_complex) if names is None else names
    source = data.draw(canonical_sums(list(ring_names)))
    assert _reads(source, *ring)
    assert_same_poly(source, *ring)


@SETTINGS
@given(ring=rings(), data=st.data())
def test_reader_and_general_parser_agree_on_perturbed_sums(ring, data):
    num_vars, num_complex, names = ring
    ring_names = default_names(num_vars, num_complex) if names is None else names
    source = data.draw(perturbed(data.draw(canonical_sums(list(ring_names)))))
    assert_same_poly(source, *ring)


@pytest.mark.parametrize("source", [
    "x1\f", "x1 +\vx2", " x1", "x1 - x2",      # not the tokenizer's blanks
    "--x1", "x2 --x1", "x2 - -x1", "+x1", "x2 + +x1", "-",  # sign runs and a lone sign
    "3/0*x1", "0/0", "2^3*x1", "x1*2", "x1/2", "3 * x1", "(x1)", "x1^-1",
    "x3", "t", "i", "x١", "١*x1", "x1é", "1.5*x1",
    f"{TOO_LONG}*x1", f"x1^{TOO_LONG}", "", " ", "x1 # c", "x1;",
])
def test_reader_refuses_what_is_outside_its_subset(source):
    assert not _reads(source, 2)
    assert_same_poly(source, 2)


@pytest.mark.parametrize("source", [
    "x1^0", "0*x1", "4/2*x1", "1/1*x1", "x1*x1*x2^0", "02*x1", "0", "-0",
    f"{NINES}*x1", f"x1^{NINES}", "- 1/2*x1\t+\r\nx2", "7/3",
])
def test_reader_reads_the_edges_of_its_subset_as_the_general_parser(source):
    assert _reads(source, 2)
    assert_same_poly(source, 2)


def test_reader_drops_a_cancelled_term_and_puts_it_back_last():
    source = "x1 + x2 - x1 + 1/2*x1 + 1/2*x1"
    assert _reads(source, 2)
    poly = mapfile.parse_poly(source, 2)
    assert list(poly.terms.items()) == [((0, 1), 1), ((1, 0), 1)]
    assert type(poly.terms[1, 0]) is int
    assert_same_poly(source, 2)
    assert mapfile.parse_poly("x1 - x1", 2).terms == {}


@pytest.mark.parametrize("num_vars, num_complex, names", [
    (3, 2, None),                   # not a complex ring
    (1, 0, ("x1", "x1")),           # the last x1 is out of range
    (2, 0, ("x1", "x2", "x3")),     # x3 is out of range
    (-1, 0, ()),
])
def test_reader_leaves_bad_rings_to_the_general_path(num_vars, num_complex, names):
    for source in ("x1", "3", "x3 + 1"):
        assert_same_poly(source, num_vars, num_complex, names)


# ---------------------------------------------------------------------------
# Maps
# ---------------------------------------------------------------------------

@st.composite
def canonical_maps(draw):
    """(source, header parts) of a map in the reader's subset."""
    kind = draw(st.sampled_from("RC"))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    name = draw(st.sampled_from(["f", "g", "phi", "p_2", "map", "zz"]))
    num_vars, num_complex = (2 * m, m) if kind == "C" else (m, 0)
    names = list(default_names(num_vars, num_complex))
    blank = st.sampled_from(["", " ", "\n", "\r\n    ", "\t"])
    lines = [f"{draw(blank)}map {name}{draw(blank)}:{draw(blank)}{kind}^{m}"
             f"{draw(blank)}->{draw(blank)}{kind}^{n}{draw(blank)}{{"]
    for k in range(1, n + 1):
        body = draw(canonical_sums(names))
        lines.append(f"{draw(blank)}{name}{k}{draw(blank)}={body};")
    lines.append(f"{draw(blank)}}}{draw(blank)}")
    return draw(st.sampled_from(["\n", "\r\n", " "])).join(lines)


MAP_EDITS = [
    ("map f:", "map guard:"), ("map f:", "map i:"), ("map f:", "map re:"),
    ("R^2", "R^0"), ("R^2", "R^02"), ("R^2 ->", "C^2 ->"), ("-> R^1", "-> R^01"),
    ("{", "{ # a comment\n"), ("{", "{ t = x1; "), ("f1 =", "f2 ="),
    ("}", "} trailing"), ("}", "} # end"), ("map f:", "map x:"), ("map f:", "mapf:"),
    (";", "; f2 = x1;"), ("f1", "f1é"), ("R^2", "R^ 2"), ("x1", "t"),
    ("map", "﻿map"), ("}", ""), ("= ", "= sqrt(x1) + "), ("x1", "x1/2"),
]


@SETTINGS
@given(source=canonical_maps())
def test_reader_reads_canonical_maps_as_the_general_parser(source):
    assert mapfile._read_canonical_map(source) is not None
    assert_same_map(source)


@SETTINGS
@given(source=canonical_maps(), data=st.data())
def test_reader_and_general_parser_agree_on_perturbed_maps(source, data):
    assert_same_map(data.draw(perturbed(source)))


@pytest.mark.parametrize("old, new", MAP_EDITS)
def test_reader_and_general_parser_agree_on_edited_maps(old, new):
    source = "map f: R^2 -> R^1 {\n    f1 = -1/2*x1^2 + x1*x2 - 3;\n}\n"
    assert mapfile._read_canonical_map(source) is not None
    assert_same_map(source.replace(old, new, 1))


@pytest.mark.parametrize("source", [
    "map x: R^2 -> R^1 { x1 = x2; }",           # a component named like a variable
    "map z: C^1 -> C^1 { z1 = z1; }",
    "map f: R^2 -> R^1 { f1 = x1; f1 = x2; }",
    "map f: R^2 -> R^2 { f2 = x1; f1 = x2; }",   # components out of order
    "map f: C^1 -> C^1 { f1 = i*z1; }",
    "map f: R^2 -> C^1 { f1 = x1; }",
    f"map f: R^{TOO_LONG} -> R^1 {{ f1 = x1; }}",
])
def test_reader_refuses_maps_outside_its_subset(source):
    assert mapfile._read_canonical_map(source) is None
    assert_same_map(source)


def test_reader_keeps_fraction_coefficients_exact():
    poly = mapfile.parse_poly("-3/2*x1 + 6/4*x1 + 2/3", 1)
    assert list(poly.terms.items()) == [((0,), Fraction(2, 3))]
