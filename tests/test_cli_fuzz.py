"""Bounded grammar fuzz of ``cli_main``: whatever the map file says, ``lift
--real`` and ``check`` end with exit status 0, 1 or 2 and no traceback, and
``antilift`` and ``check --orthogonal-multiplication --blocks P`` with 0 or 2.

Map files come from the grammar of ``mapfile`` (nesting depth at most 6,
exponents at most 3, at most 40 summands in a sum), with junk characters
spliced in; one header in eight declares a dimension above the bound.  A bound on the terms and the degree a subtree can expand to
keeps every lift and check small; depth, degree and term-count limits for
arbitrary input are not part of the CLI yet.
"""

import contextlib
import io
from math import comb

from hypothesis import HealthCheck, given, settings, strategies as st

from morphlift.cli import cli_main
from morphlift.mapfile import MAX_DIMENSION

MAX_DEPTH = 6
MAX_EXPONENT = 3
MAX_SUMMANDS = 40
MAX_TERMS = 150      # bound on the terms a subtree expands to
MAX_DEGREE = 12

# dimensions past the bound, up to one too long for int() to read
WIDE_DIMENSIONS = st.sampled_from([str(MAX_DIMENSION + 1), "100000", "20000000",
                                   "9" * 20, "9" * 4301])

JUNK = st.sampled_from(list("?@$!&|~`[]<>%.\"'\\#;{},:=^()*/+-_0x9é")
                       + ["\u00b2", "\u00bd", "\u0661", "\u00a0", "\x00", "\r",
                          "\t", "\n", "->", "zb", "sqrt(", "//", "1.5"])


@st.composite
def expressions(draw, names, functions, depth=0):
    """(text, term bound, degree bound) of an expression in ``names`` and
    ``functions``; division only where ``sqrt`` is allowed too."""
    choice = draw(st.integers(0, 18 if depth < MAX_DEPTH else 4))
    if choice <= 1:
        return str(draw(st.integers(0, 12))), 1, 0
    if choice <= 4:
        return draw(st.sampled_from(names)), 1, 1
    if choice <= 7:
        count = draw(st.integers(2, MAX_SUMMANDS if depth == 0 else 3))
        parts = [draw(expressions(names, functions, depth + 1)) for _ in range(count)]
        text = parts[0][0]
        for part in parts[1:]:
            text += draw(st.sampled_from([" + ", " - ", "+", "-"])) + part[0]
        return (text, min(MAX_TERMS, sum(p[1] for p in parts)),
                max(p[2] for p in parts))
    if choice <= 11:
        left = draw(expressions(names, functions, depth + 1))
        right = draw(expressions(names, functions, depth + 1))
        op = draw(st.sampled_from(["*", "*", "*", "/"] if "sqrt" in functions
                                  else ["*"]))
        terms, degree = left[1] * right[1], left[2] + right[2]
        if terms > MAX_TERMS or degree > MAX_DEGREE:
            return left
        return f"{left[0]}{op}{right[0]}", terms, degree
    if choice <= 14:
        base = draw(expressions(names, functions, depth + 1))
        exponent = draw(st.integers(0, MAX_EXPONENT))
        terms = comb(base[1] + exponent - 1, exponent)
        if terms > MAX_TERMS or base[2] * exponent > MAX_DEGREE:
            return base
        return f"({base[0]})^{exponent}", terms, base[2] * exponent
    inner = draw(expressions(names, functions, depth + 1))
    if choice <= 16:
        return f"({inner[0]})", inner[1], inner[2]
    if choice == 17:
        return f"-{inner[0]}", inner[1], inner[2]
    function = draw(st.sampled_from(functions))
    return f"{function}({inner[0]})", inner[1], inner[2]


@st.composite
def map_sources(draw):
    """(source, n): a map file, and the n real variables its header declares."""
    complex_map = draw(st.booleans())
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 2))
    kind = "C" if complex_map else "R"
    if complex_map:
        names = [f"z{j}" for j in range(1, m + 1)] + [f"zb{j}" for j in range(1, m + 1)]
        names.append("i")
        functions = ["conj"]
    else:
        names = [f"x{j}" for j in range(1, m + 1)]
        functions = ["sqrt"]
    mistakes = draw(st.integers(0, 3)) == 0
    if mistakes:
        # names and functions the map does not define, or in the wrong kind
        names.extend(["x9", "z1", "zb9", "y1", "i"])
        functions.extend(["conj", "sqrt", "re", "im", "frob"])
    dims = [str(m), str(n)]
    if draw(st.integers(0, 7)) == 0:
        dims[draw(st.integers(0, 1))] = draw(WIDE_DIMENSIONS)
    lines = [f"map f: {kind}^{dims[0]} -> {kind}^{dims[1]} {{"]
    if draw(st.booleans()):
        lines.append(f"  t = {draw(expressions(names, functions))[0]};")
        names = [*names, "t"]
    for k in range(1, n + 1):
        lines.append(f"  f{k} = {draw(expressions(names, functions))[0]};")
    if draw(st.integers(0, 5)) == 0 and (mistakes or not complex_map):
        lines.append(f"  guard {draw(expressions(names, functions))[0]};")
    if draw(st.booleans()):
        lines.append("  # a comment")
    lines.append("}")
    source = draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(source)))
        source = source[:at] + draw(JUNK) + source[at:]
    return source, 2 * m if complex_map else m


def _assert_exit_contract(argv, statuses):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli_main(argv, out=io.StringIO())
    assert code in statuses, (argv, code)
    assert "Traceback" not in stderr.getvalue()
    assert (code == 2) == stderr.getvalue().startswith("error: ")


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(sized=map_sources())
def test_lift_and_check_keep_the_exit_contract(tmp_path_factory, sized):
    path = tmp_path_factory.mktemp("fuzz") / "f.map"
    path.write_text(sized[0], encoding="utf-8")
    for argv in (["lift", "--real", str(path)], ["check", str(path)],
                 ["--json", "check", str(path)]):
        _assert_exit_contract(argv, (0, 1, 2))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(sized=map_sources(), data=st.data())
def test_antilift_and_blocks_keep_the_exit_contract(tmp_path_factory, sized, data):
    # real maps declare an odd or an even number of variables, complex maps
    # an even one; P runs over -1..n+1, so it lies outside 1..n-1 on either side
    source, n = sized
    path = tmp_path_factory.mktemp("fuzz") / "f.map"
    path.write_text(source, encoding="utf-8")
    first_block = data.draw(st.integers(-1, n + 1), label="P")
    for argv in (["antilift", str(path)], ["--json", "antilift", str(path)],
                 ["check", "--orthogonal-multiplication", "--blocks",
                  str(first_block), str(path)]):
        _assert_exit_contract(argv, (0, 2))
