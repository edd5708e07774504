import json
import random
import sys

import pytest

from lbisim.cli import main
from lbisim.corpus import random_term
from lbisim.errors import ParseError
from lbisim.syntax import (MAX_DEPTH, is_name, parse_label, parse_term,
                           print_label, print_term)
from lbisim.terms import (Amb, Calculus, Cap, Msg, NameVar, Nil, Par, Prefix,
                          ProcVar, Recv, Restrict, Send, Sum, Tau)

CCS, ACCS, MA = Calculus.CCS, Calculus.ACCS, Calculus.MA


def test_precedence_prefix_sum_par():
    t = parse_term("a.0 + b.0 | c.0", CCS)
    assert isinstance(t.node, Par)
    left, right = t.node.children
    assert isinstance(left, Sum)
    assert right == Prefix(Recv("c"), Nil())


def test_restriction_scopes_maximally_right():
    t = parse_term("(nu a) a.0 | b.0", CCS)
    assert isinstance(t.node, Restrict)
    assert isinstance(t.node.body, Par)


def test_prefix_binds_tighter_than_sum():
    t = parse_term("tau.a.0 + 'b.0", CCS)
    assert t.node == Sum((Prefix(Tau(), Prefix(Recv("a"), Nil())),
                          Prefix(Send("b"), Nil())))


def test_ma_shapes():
    t = parse_term("open n.(n[0] | m[in k.out k.0])", MA)
    assert isinstance(t.node, Prefix)
    assert t.node.action == Cap("open", "n")
    t = parse_term("?x[@X1]", MA)
    assert t.node == Amb(NameVar("x"), ProcVar("X1"))


def test_accs_particles_and_prefixes():
    t = parse_term("'a | a.'b", ACCS)
    assert t.node == Par((Msg("a"), Prefix(Recv("a"), Msg("b"))))
    with pytest.raises(ParseError):
        parse_term("'a.0", ACCS)        # output prefix is CCS syntax
    with pytest.raises(ParseError):
        parse_term("'a", CCS)           # particle is ACCS syntax


def test_keywords_are_reserved():
    for bad, calc in [("in.0", CCS), ("nu.0", CCS), ("tau[0]", MA),
                      ("open.0", CCS)]:
        with pytest.raises(ParseError):
            parse_term(bad, calc)


def test_calculus_specific_rejections():
    with pytest.raises(ParseError):
        parse_term("a.0 + b.0", MA)     # sums are CCS/ACCS-only
    with pytest.raises(ParseError):
        parse_term("n[0]", CCS)
    with pytest.raises(ParseError):
        parse_term("in n.0", ACCS)
    with pytest.raises(ParseError):
        parse_term("tau.0", MA)


def test_holes_only_in_labels():
    with pytest.raises(ParseError):
        parse_term("- | a.0", CCS)
    lab = parse_label("- | a.0", CCS)
    assert isinstance(lab.body, Par)
    with pytest.raises(ParseError):
        parse_label("- | -", CCS)       # exactly one hole
    with pytest.raises(ParseError):
        parse_label("a.0", CCS)         # at least one hole


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_term("a.0 |", CCS)
    assert "1:6" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_term("a.0 |\n b.% ", CCS)
    assert "2:4" in str(exc.value)


@pytest.mark.parametrize("parse, text, calc, where, why", [
    (parse_term, "n[0] + m[0]", MA, "1:6", "MA has no summation"),
    (parse_term, "?x[0]", CCS, "1:1", "ambient-name variables are MA"),
    (parse_term, "a", CCS, "1:1", "name 'a' is not a process"),
    (parse_term, "a.0 )", CCS, "1:5", "trailing input ')'"),
    (parse_label, "a.0 )", CCS, "1:5", "trailing input ')'"),
    (parse_term, "a.0 + (b.0 | c.0)", CCS, "1:5", "unguarded summand"),
    (parse_term, "(a.0 | b.0) + c.0", ACCS, "1:13", "unguarded summand"),
    (parse_term, "in ?x.0 | open ?x.0", MA, "1:16",
     "variable 'x' occurs twice"),
    (parse_label, "- | ?x[@X] | @X", MA, "1:14", "variable 'X' occurs twice"),
    (parse_term, "'a", CCS, "1:1", "output particles exist only in ACCS"),
    (parse_term, "a.b.0", MA, "1:1", "channel prefixes do not exist in MA"),
    (parse_term, "b.0 | - ", CCS, "1:7", "the hole '-' is label syntax"),
    (parse_label, "- | -", CCS, "1:1", "a label needs exactly one hole"),
    # the scanner: a tab and a carriage return take one column each
    (parse_term, "a.0 |\t%", CCS, "1:7", "unexpected character '%'"),
    (parse_term, "a.0 |\r\n b.%", CCS, "2:4", "unexpected character '%'"),
    (parse_term, "\t\r\ta", CCS, "1:4", "name 'a' is not a process"),
    # a name starts with a letter (by `str.isalpha`) or `_`
    (parse_term, "a.²", CCS, "1:3", "unexpected character '²'"),
    (parse_term, "a.1", CCS, "1:3", "unexpected character '1'"),
    (parse_term, "a.0 | ²b.0", CCS, "1:7", "unexpected character '²'"),
    (parse_term, "0a", CCS, "1:2", "trailing input 'a'"),
    (parse_term, "a0", CCS, "1:1", "name 'a0' is not a process"),
    # the end of input sits just after the last token, not after blanks
    (parse_term, "a.0 |\n\n\n", CCS, "1:6",
     "expected a process, found 'end of input'"),
    (parse_term, "\n\n", CCS, "1:1",
     "expected a process, found 'end of input'"),
])
def test_every_refusal_is_positioned(parse, text, calc, where, why):
    with pytest.raises(ParseError) as exc:
        parse(text, calc)
    assert str(exc.value).startswith(f"{where}: {why}")


def test_names_are_words_that_start_with_a_letter():
    assert print_term(parse_term("é.0", CCS)) == "é.0"
    assert print_term(parse_term("a².0 | _b1.0", CCS)) == "a².0 | _b1.0"
    for text, want in (("a", True), ("_x1", True), ("é", True),
                       ("tau", False), ("a ", False), ("²", False),
                       ("", False)):
        assert is_name(text) is want, text


@pytest.mark.parametrize("calc, text", [
    (CCS, "a." * (MAX_DEPTH - 3) + "0"),
    (CCS, "(nu a) " * (MAX_DEPTH - 4) + "a.0"),
    (MA, "in a." * 790 + "0"),
], ids=["prefixes", "restrictions", "capabilities"])
def test_chains_take_no_stack(calc, text):
    """The parser and the printer walk a chain of prefixes or
    restrictions in a loop: the deepest chains they accept parse and
    print back within a recursion limit of 200 frames."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        assert print_term(parse_term(text, calc)) == text
    finally:
        sys.setrecursionlimit(limit)


def test_budget_report_sizes_chains_without_recursing(capsys):
    """A game over two 791-deep chains that runs out of budget reports
    its largest state, the longer chain, within 300 frames."""
    chain = "a." * 790
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        code = main(["check", "--format", "json", "--calculus", "ccs",
                     "--rel", "semi-sat", "--max-pairs", "1",
                     chain + "0", chain + "b.0"])
    finally:
        sys.setrecursionlimit(limit)
    assert code == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert f"largest state of {len(chain + 'b.0')} characters" in error


def test_print_parenthesization_is_minimal_but_sufficient():
    cases = [
        ("(a.0 + b.0) | c.0", CCS, "a.0 + b.0 | c.0"),
        ("a.(b.0 | c.0)", CCS, "a.(b.0 | c.0)"),
        ("((nu a) a.0) | b.0", CCS, "((nu a) a.0) | b.0"),
        ("n[m[0] | 0]", MA, "n[m[0] | 0]"),
        ("(nu n) (n[0] | m[0])", MA, "(nu n) (n[0] | m[0])"),
    ]
    for text, calc, want in cases:
        assert print_term(parse_term(text, calc)) == want


def test_roundtrip_on_random_terms():
    rng = random.Random(42)
    for calc, names in ((CCS, ("a", "b", "c")), (ACCS, ("a", "b", "c")),
                        (MA, ("n", "m", "k"))):
        for i in range(80):
            t = random_term(calc, names, rng, allow_vars=(i % 4 == 0))
            text = print_term(t)
            assert parse_term(text, calc).node == t.node
            assert print_term(parse_term(text, calc)) == text


def test_label_roundtrip():
    for text, calc in [("- | 'a.@X1", CCS), ("- | m[@X1]", MA),
                       ("?x[- | @X1] | m[@X2]", MA), ("- | a.@X1", ACCS),
                       ("m[?x[- | @X1] | @X2]", MA)]:
        lab = parse_label(text, calc)
        assert print_label(lab) == text
        assert parse_label(print_label(lab), calc).body == lab.body


def test_capabilities_on_name_variables():
    label = parse_label("- | in ?x.@X1 | open ?y.out ?z.0", MA)
    caps = {(p.action.op, p.action.amb) for p in label.body.children
            if isinstance(p, Prefix)}
    assert caps == {("in", NameVar("x")), ("open", NameVar("y"))}
    assert print_label(label) == "- | in ?x.@X1 | open ?y.out ?z.0"
    assert parse_term("in ?x.0", MA).node \
        == Prefix(Cap("in", NameVar("x")), Nil())
    with pytest.raises(ParseError, match="expected a name"):
        parse_label("- | in ?.0", MA)
    with pytest.raises(ParseError, match="capability prefixes are MA"):
        parse_label("- | in ?x.0", CCS)


def test_whitespace_insensitive():
    a = parse_term("a.0|b.0+c.0", CCS)
    b = parse_term(" a.0 | b.0 + c.0 ", CCS)
    assert a.node == b.node
