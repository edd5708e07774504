import hashlib
import random

import pytest

from lbisim.congruence import canonical_term, node_key
from lbisim.corpus import congruent_shuffle, enumerate_terms, random_term
from lbisim.lts import its_transitions, ordinary_transitions
from lbisim.reduction import barbs, reduct_terms, reducts
from lbisim.syntax import parse_term, print_label, print_term
from lbisim.terms import Calculus

CCS, ACCS, MA = Calculus.CCS, Calculus.ACCS, Calculus.MA


def targets(text, calc):
    return sorted(print_term(t) for t in reduct_terms(parse_term(text, calc)))


def test_ma_in_axiom():
    assert targets("n[in m.p[0] | q[0]] | m[r[0]]", MA) \
        == ["m[n[p[0] | q[0]] | r[0]]"]


def test_ma_out_axiom():
    assert targets("m[n[out m.p[0] | q[0]] | r[0]]", MA) \
        == ["m[r[0]] | n[p[0] | q[0]]"]


def test_ma_open_axiom():
    assert targets("open n.p[0] | n[q[0]]", MA) == ["p[0] | q[0]"]


def test_ma_axioms_in_closure_contexts():
    axioms = [
        ("n[in m.p[0] | q[0]] | m[r[0]]", "m[n[p[0] | q[0]] | r[0]]"),
        ("m[n[out m.p[0] | q[0]] | r[0]]", "m[r[0]] | n[p[0] | q[0]]"),
        ("open n.p[0] | n[q[0]]", "p[0] | q[0]"),
    ]
    contexts = ["(nu n) (-)", "(nu k) (-)", "k[-]", "- | k[0]",
                "- | open k.0", "k[- | w[0]]"]
    for lhs, rhs in axioms:
        for ctx in contexts:
            src = parse_term(ctx.replace("-", f"({lhs})"), MA)
            want = canonical_term(parse_term(ctx.replace("-", f"({rhs})"),
                                             MA))
            assert want.node in {t.node for t in reduct_terms(src)}, \
                (ctx, lhs)


def test_ma_reduction_inside_ambient_only_for_ambient_rules():
    # capabilities do not fire under a prefix
    assert targets("in k.(open n.0 | n[0])", MA) == []
    # but they do inside an ambient body
    assert targets("k[open n.0 | n[0]]", MA) == ["k[0]"]


def test_ma_out_requires_matching_parent():
    assert targets("k[n[out m.0]]", MA) == []
    assert targets("m[n[out m.0]]", MA) == ["m[0] | n[0]"]


def test_ccs_communication_and_tau():
    assert targets("a.p.0 | 'a.q.0", CCS) == ["p.0 | q.0"]
    assert targets("tau.p.0 + a.0", CCS) == ["p.0"]
    # communication consumes both sums entirely
    assert targets("(a.p.0 + b.0) | ('a.q.0 + c.0)", CCS) == ["p.0 | q.0"]


def test_ccs_no_reduction_without_partner():
    assert targets("a.0 | a.0", CCS) == []
    assert targets("a.0 | 'b.0", CCS) == []


def test_ccs_restriction_blocks_nothing_internal():
    assert targets("(nu a)(a.0 | 'a.0)", CCS) == ["0"]


def test_accs_communication_consumes_particle():
    assert targets("a.p.0 | 'a", ACCS) == ["p.0"]
    assert targets("(a.p.0 + b.0) | 'a | 'b", ACCS) \
        == sorted(["'b | p.0", "'a"])


def test_accs_tau():
    assert targets("tau.'a + a.0", ACCS) == ["'a"]


def test_reducts_deterministic_and_canonical():
    t = parse_term("b.0 | a.0 | 'a.0 | 'b.0", CCS)
    once = [print_term(s.target) for s in reducts(t)]
    again = [print_term(s.target) for s in reducts(parse_term(
        "'b.0 | 'a.0 | a.0 | b.0", CCS))]
    assert once == again
    assert once == sorted(once, key=lambda x: node_key(
        canonical_term(parse_term(x, CCS)).node))


def test_reducts_invariant_under_congruent_shuffle():
    rng = random.Random(31)
    for calc, names in ((CCS, ("a", "b", "c")), (ACCS, ("a", "b", "c")),
                        (MA, ("n", "m", "k"))):
        for _ in range(60):
            t = random_term(calc, names, rng)
            s = congruent_shuffle(t, rng)
            r1 = sorted(node_key(x.node) for x in reduct_terms(t))
            r2 = sorted(node_key(x.node) for x in reduct_terms(s))
            assert r1 == r2, (print_term(t), print_term(s))


def test_barbs_ma_top_level_unrestricted_ambients():
    assert barbs(parse_term("n[m[0]] | open k.0", MA)) == {"n"}
    assert barbs(parse_term("(nu n)(n[0] | m[0])", MA)) == {"m"}


def test_barbs_ccs_prefixes():
    assert barbs(parse_term("a.0 + 'b.0 | tau.c.0", CCS)) == {"a", "'b"}
    assert barbs(parse_term("(nu a)(a.0 | 'a.0 | b.0)", CCS)) == {"b"}


def test_barbs_accs_only_outputs():
    assert barbs(parse_term("'a | b.0", ACCS)) == {"'a"}
    assert barbs(parse_term("(nu a)('a | 'b)", ACCS)) == {"'b"}


def test_process_variables_are_inert():
    from lbisim.terms import Term, ProcVar, Par, Msg
    t = Term(ACCS, Par((ProcVar("X1"), Msg("a"))))
    assert reduct_terms(t) == ()


def test_channel_positions_name_their_components():
    # positions count the components of the canonical form, as MA's do
    def positions(text, calc):
        return [(s.rule, s.position) for s in reducts(parse_term(text, calc))]
    assert positions("a.0 | 'a.0 | tau.b.0", CCS) \
        == [("Comm", (("comm", 1, 2),)), ("Tau", (("tau", 0),))]
    assert positions("tau.0 | tau.b.0", CCS) \
        == [("Tau", (("tau", 0),)), ("Tau", (("tau", 1),))]
    assert positions("a.0 | 'a | tau.0", ACCS) \
        == [("Comm", (("comm", 2, 0),)), ("Tau", (("tau", 1),))]
    assert positions("open n.0 | n[0]", MA) == [("Open", (("open", 0, 1),))]


# The rule layer's outputs, pinned: for each term, every reduct's rule,
# position and target, every ITS transition's rule, label and target, the
# sorted barbs and (CCS, ACCS) every ordinary transition.  The terms are
# the first 300 enumerated over a and b, then 200 seeded random terms.
_RULE_DIGESTS = {
    CCS: "815556f465bf5ea67f61234bb0efa471088d9aaf24addf8d685c580a38d7ce0a",
    ACCS: "9eb74e8794f60cd3823fdc239c2f4997efb2e0ae5e64855056f76d842e59dbff",
    MA: "c1409e7db325b78f6a162a90a6973b8109738e15c077d7e465a09bcc56cfa7aa",
}
_RANDOM_NAMES = {CCS: ("a", "b", "c"), ACCS: ("a", "b", "c"),
                 MA: ("n", "m", "k")}


@pytest.mark.parametrize("calc", [CCS, ACCS, MA], ids=lambda c: c.value)
def test_rule_outputs_are_pinned(calc):
    rng = random.Random(7)
    terms = enumerate_terms(calc, ("a", "b"), count=300)
    terms += [random_term(calc, _RANDOM_NAMES[calc], rng) for _ in range(200)]
    h = hashlib.sha256()
    for t in terms:
        lines = [print_term(t)]
        lines += [f"{s.rule} {s.position!r} {print_term(s.target)}"
                  for s in reducts(t)]
        lines += [f"{tr.rule} {print_label(tr.label)} {print_term(tr.target)}"
                  for tr in its_transitions(t)]
        lines.append(" ".join(sorted(barbs(t))))
        if calc is not MA:
            lines += [f"{tr.rule} {tr.action} {print_term(tr.target)}"
                      for tr in ordinary_transitions(t)]
        h.update("\n".join(lines).encode() + b"\n\n")
    assert h.hexdigest() == _RULE_DIGESTS[calc]
