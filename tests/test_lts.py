import itertools
import random

import pytest

from lbisim.corpus import check_lts_correspondence, enumerate_terms
from lbisim.errors import DivergenceBudgetExceededError, MAUnsupportedError
from lbisim.lts import (instantiate, its_transitions, lts_to_dot,
                        lts_to_json, ordinary_transitions, reachable)
from lbisim.reduction import reduct_terms
from lbisim.syntax import parse_term, print_label, print_term
from lbisim.terms import Calculus, Substitution, plug

CCS, ACCS, MA = Calculus.CCS, Calculus.ACCS, Calculus.MA


def its(text, calc):
    return sorted((print_label(tr.label), print_term(tr.target), tr.rule)
                  for tr in its_transitions(parse_term(text, calc)))


def ordinary(text, calc):
    return sorted((tr.action, print_term(tr.target), tr.rule)
                  for tr in ordinary_transitions(parse_term(text, calc)))


# --- one golden per contextual rule ---------------------------------------

def test_ma_open_rule():
    assert its("open n.p[0]", MA) == [("- | n[@X1]", "@X1 | p[0]", "Open")]


def test_ma_coopen_rule():
    assert ("- | open n.@X1", "@X1 | p[0]", "CoOpen") in its("n[p[0]]", MA)


def test_ma_inamb_rule():
    got = its("n[in m.p[0]]", MA)
    assert ("- | m[@X1]", "m[@X1 | n[p[0]]]", "InAmb") in got


def test_ma_in_rule():
    got = its("in m.p[0]", MA)
    assert ("m[@X2] | ?x[- | @X1]", "m[@X2 | ?x[@X1 | p[0]]]", "In") in got


def test_ma_coin_rule():
    got = its("m[p[0]]", MA)
    assert ("- | ?x[@X2 | in m.@X1]", "m[p[0] | ?x[@X1 | @X2]]", "CoIn") in got


def test_ma_outamb_rule():
    got = its("n[out m.p[0]]", MA)
    assert ("m[- | @X1]", "m[@X1] | n[p[0]]", "OutAmb") in got


def test_ma_out_rule():
    got = its("out m.p[0]", MA)
    assert ("m[@X2 | ?x[- | @X1]]", "m[@X2] | ?x[@X1 | p[0]]", "Out") in got


def test_ma_tau_rule():
    got = its("open n.0 | n[p[0]]", MA)
    assert ("-", "p[0]", "Tau") in got


def test_ma_restricted_names_produce_no_moves():
    names = {print_label(tr.label) for tr
             in its_transitions(parse_term("(nu n) n[0]", MA))}
    assert all("open" not in lab for lab in names)


def test_ccs_rcv_and_snd_rules():
    assert its("a.p.0", CCS) == [("- | 'a.@X1", "@X1 | p.0", "Rcv")]
    assert its("'a.p.0", CCS) == [("- | a.@X1", "@X1 | p.0", "Snd")]
    assert ("-", "p.0 | q.0", "Tau") in its("a.p.0 | 'a.q.0", CCS)


def test_accs_rcv_has_no_continuation_variable():
    assert its("a.p.0", ACCS) == [("- | 'a", "p.0", "Rcv")]
    assert its("'a", ACCS) == [("- | a.@X1", "@X1", "Snd")]


def test_ordinary_ccs():
    assert ordinary("a.0 + 'b.c.0", CCS) \
        == [("'b", "c.0", "send"), ("a", "0", "recv")]
    assert ("tau", "0", "tau") in ordinary("a.0 | 'a.0", CCS)


def test_ordinary_accs_send_is_particle():
    assert ordinary("'a | a.0", ACCS) == sorted(
        [("'a", "a.0", "send"), ("a", "'a", "recv"), ("tau", "0", "tau")])


def test_ordinary_rejects_ma():
    with pytest.raises(MAUnsupportedError):
        ordinary_transitions(parse_term("n[0]", MA))


def test_correspondence_on_corpora():
    for calc in (CCS, ACCS):
        corpus = enumerate_terms(calc, ("a", "b"), count=120)
        out = check_lts_correspondence(calc, corpus)
        assert out.ok, out.failures[:3]


def test_transitions_deterministic():
    t = parse_term("n[in m.0] | m[0] | open n.0", MA)
    a = [(print_label(tr.label), print_term(tr.target))
         for tr in its_transitions(t)]
    b = [(print_label(tr.label), print_term(tr.target))
         for tr in its_transitions(parse_term(
             "open n.0 | m[0] | n[in m.0]", MA))]
    assert a == b


def test_instantiated_transitions_are_reductions():
    """Closing a contextual transition must yield a real reduction of
    the plugged term: C[P] has the instantiated target among its
    reducts."""
    rng = random.Random(13)
    pool = {
        MA: [parse_term(s, MA) for s in ("0", "k[0]", "open w.0")],
        CCS: [parse_term(s, CCS) for s in ("0", "c.0")],
        ACCS: [parse_term(s, ACCS) for s in ("0", "'c")],
    }
    names = {MA: ("n", "m"), CCS: ("a", "b"), ACCS: ("a", "b")}
    checked = 0
    for calc in (MA, CCS, ACCS):
        corpus = enumerate_terms(calc, names[calc], count=60)
        for t in corpus:
            for tr in its_transitions(t):
                pvars = [v for v in tr.label.variables if v.startswith("X")]
                nvars = [v for v in tr.label.variables if not v.startswith("X")]
                for procs in itertools.product(pool[calc], repeat=len(pvars)):
                    subst = Substitution.make(
                        calc,
                        procs=dict(zip(pvars, procs)),
                        names={v: "z" for v in nvars})
                    inst = instantiate(tr, subst)
                    plugged = plug(inst.label, t)
                    assert inst.target.node in \
                        {r.node for r in reduct_terms(plugged)}, \
                        (print_term(t), print_label(inst.label))
                    checked += 1
    assert checked > 400


def test_reachable_budget():
    with pytest.raises(DivergenceBudgetExceededError) as info:
        reachable(parse_term("n[in n.0]", MA), "its", max_states=6)
    assert (info.value.budget, info.value.explored) == (6, 7)
    assert info.value.unexpanded is info.value.largest_state is None
    with pytest.raises(ValueError):
        reachable(parse_term("a.0", CCS), "sideways")


def test_reachable_and_dumps():
    states, edges = reachable(parse_term("a.b.0 | 'a.0", CCS), "ordinary")
    data = lts_to_json(states, edges)
    assert data["states"][0] == "a.b.0 | 'a.0"
    assert any(tr["label"] == "tau" for tr in data["transitions"])
    dot = lts_to_dot(states, edges)
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")
    assert '"a.b.0 | \'a.0"' in dot


def test_congruent_terms_give_same_transitions():
    t = parse_term("a.0", CCS)
    assert its_transitions(t) == its_transitions(parse_term("a.0 | 0", CCS))
    assert its_transitions(t)


def _no_variable_twice(node):
    return len(node.vars) == len(set(node.vars))


def test_labels_take_variables_the_source_does_not_hold():
    # a.'b.0 moves to @X1 | 'b.0, whose own move names its variable X2
    states, edges = reachable(parse_term("a.'b.0", Calculus.CCS))
    assert all(_no_variable_twice(s.node) for s in states)
    assert "@X1 | @X2" in {print_term(s) for s in states}
    got = {(tr.rule, print_label(tr.label), print_term(tr.target))
           for tr in its_transitions(parse_term("?x[0] | in m.0", Calculus.MA))}
    assert ("CoIn", "- | ?x1[@X2 | in ?x.@X1]",
            "in m.0 | ?x[?x1[@X1 | @X2]]") in got
    got = its_transitions(parse_term("open n.@X1", Calculus.MA))
    assert [(print_label(tr.label), print_term(tr.target)) for tr in got] \
        == [("- | n[@X2]", "@X1 | @X2")]
    for tr in got:
        assert _no_variable_twice(tr.target.node)
    # a pure source keeps X1, X2 and x
    got = its_transitions(parse_term("n[0] | in m.0", Calculus.MA))
    assert "- | ?x[@X2 | in n.@X1]" in {print_label(tr.label) for tr in got}
