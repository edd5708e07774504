"""Checks for the equivalence solvers and the label-set machinery.

The game solver is compared against an independent partition refinement
over the reachable ordinary LTS, the flagship asynchronous pair is pinned
as a golden, and inequivalence witnesses are replayed move by move.
"""

import dataclasses
import hashlib
import json
import random
import re

import pytest

from lbisim import (
    ALL,
    BUILTIN_LABEL_SETS,
    EMPTY,
    LA,
    LCCS,
    LM,
    Calculus,
    DivergenceBudgetExceededError,
    LbisimError,
    MalformedTermError,
    MAUnsupportedError,
    ProcVar,
    RELATIONS,
    Substitution,
    Term,
    canonical_term,
    check,
    enumerate_terms,
    instantiate,
    is_capturing,
    its_transitions,
    node_key,
    ordinary_transitions,
    parse_label,
    parse_term,
    pattern_label_set,
    pred,
    pred_targets,
    print_label,
    print_term,
    reduct_terms,
    term_pairs,
    verify_witness,
)
from lbisim.equivalence import (
    DEFAULT_MAX_PAIRS, GameResult, _class_named, _Game, _game,
    _label_variables, _solve,
)
from lbisim import equivalence, syntax
from lbisim.congruence import components
from lbisim.corpus import (
    check_axiom_soundness, check_barb_capturing, check_coincidence,
    check_congruence, check_endpoints, check_idempotence,
    check_lts_correspondence, check_pred, check_reducts_invariance,
    check_roundtrip, check_shuffle_equiv,
)
from lbisim.terms import (Amb, Hole, Label, NameVar, Nil, Par, Prefix, Recv,
                          par)

CCS = Calculus.CCS
ACCS = Calculus.ACCS
MA = Calculus.MA


# --- independent oracle: partition refinement on the ordinary LTS ----------

def _reachable(corpus):
    seen = set()
    todo = list(corpus)
    while todo:
        t = todo.pop()
        if t in seen:
            continue
        seen.add(t)
        todo.extend(canonical_term(tr.target)
                    for tr in ordinary_transitions(t))
    return seen


def _refine(states):
    """Partition states by strong bisimilarity (signature refinement)."""
    states = sorted(states, key=lambda t: node_key(t.node))
    block = {t: 0 for t in states}
    while True:
        sig = {}
        for t in states:
            moves = frozenset((tr.action, block[canonical_term(tr.target)])
                              for tr in ordinary_transitions(t))
            sig[t] = (block[t], moves)
        fresh = {}
        new = {t: fresh.setdefault(sig[t], len(fresh)) for t in states}
        if new == block:
            return block
        block = new


@pytest.mark.parametrize("calc,pairs", [(CCS, 200), (ACCS, 150)])
def test_strong_bisim_matches_partition_refinement(calc, pairs):
    corpus = enumerate_terms(calc, ("a", "b"), count=40)
    block = _refine(_reachable(corpus))
    for p, q in term_pairs(corpus, pairs):
        got = check("strong", p, q).verdict
        want = block[canonical_term(p)] == block[canonical_term(q)]
        assert got is want, (print_term(p), print_term(q))


# --- the flagship asynchronous pair ----------------------------------------

def test_flagship_pair_relations():
    p = parse_term("a.'a + tau.0", ACCS)
    q = parse_term("tau.0", ACCS)
    assert check("async", p, q).verdict is True
    assert check("l-bisim", p, q, labels=LA).verdict is True
    assert check("strong", p, q).verdict is False
    r = check("ipo", p, q)
    assert r.verdict is False
    assert any(m.kind == "move" and m.move == "- | 'a" for m in r.witness)
    assert verify_witness(p, q, r, "ipo") is True
    d = r.to_dict()
    assert d["verdict"] == "inequivalent"
    assert d["stats"]["pairs"] >= 1
    assert isinstance(d["witness"], list) and d["witness"]


def test_endpoint_identities_on_samples():
    """Verdicts (IPO, L, semi-saturated) for the calculus's L; the
    flagship pair separates IPO from the rest."""
    labels = {CCS: LCCS, ACCS: LA, MA: LM}
    table = [
        (ACCS, "a.'a + tau.0", "tau.0", (False, True, True)),
        (ACCS, "'a", "0", (False, False, False)),
        (ACCS, "a.0", "a.0 + a.0", (True, True, True)),
        (CCS, "a.0 | b.0", "a.b.0 + b.a.0", (True, True, True)),
        (CCS, "a.b.0", "a.0", (False, False, False)),
        (MA, "n[0]", "0", (False, False, False)),
        (MA, "n[in m.0]", "n[0]", (False, False, False)),
        (MA, "open n.0", "open n.0", (True, True, True)),
    ]
    for calc, s1, s2, want in table:
        p, q = parse_term(s1, calc), parse_term(s2, calc)
        got = (check("ipo", p, q).verdict,
               check("l-bisim", p, q, labels=labels[calc]).verdict,
               check("semi-sat", p, q).verdict)
        assert got == want, (calc, s1, s2)


# --- label sets ------------------------------------------------------------

def test_label_set_membership():
    assert LM.contains(parse_label("- | open n.@X1", MA)) is True
    assert LM.contains(parse_label("- | n[@X1]", MA)) is False
    assert LM.contains(parse_label("- | ?x[@X2 | in n.@X1]", MA)) is False
    assert LM.contains(parse_label("-", MA)) is False
    assert LA.contains(parse_label("-", ACCS)) is True
    assert LA.contains(parse_label("- | a.@X1", ACCS)) is True
    assert LA.contains(parse_label("- | 'a", ACCS)) is False
    assert LCCS.contains(parse_label("-", CCS)) is True
    assert LCCS.contains(parse_label("- | a.@X1", CCS)) is True
    assert LCCS.contains(parse_label("- | 'a.@X1", CCS)) is True
    assert LCCS.contains(parse_label("- | open n.@X1", MA)) is False
    assert ALL.contains(parse_label("- | 'a", ACCS)) is True
    assert EMPTY.contains(parse_label("-", CCS)) is False


def test_pattern_label_sets():
    exact = pattern_label_set("onlya", [parse_label("- | a.@X1", CCS)])
    assert exact.name == "onlya"
    assert exact.contains(parse_label("- | a.@X1", CCS)) is True
    assert exact.contains(parse_label("- | b.@X1", CCS)) is False
    assert exact.contains(parse_label("- | 'a.@X1", CCS)) is False
    wild = pattern_label_set("anyamb", [parse_label("- | ?z[@X1]", MA)])
    assert wild.contains(parse_label("- | n[@X1]", MA)) is True
    assert wild.contains(parse_label("- | m[@X1]", MA)) is True
    assert wild.contains(parse_label("- | open n.@X1", MA)) is False
    # patterns never match across calculi
    cross = pattern_label_set("cross", [parse_label("- | open n.@X1", MA)])
    assert cross.contains(parse_label("- | a.@X1", CCS)) is False


def test_open_pattern_agrees_with_lm_on_corpus_labels():
    opens = pattern_label_set("opens", [parse_label("- | open ?n.@X1", MA)])
    labels = {tr.label
              for t in enumerate_terms(MA, ("n", "m"), count=80)
              for tr in its_transitions(t)}
    assert any(LM.contains(l) for l in labels)
    assert any(not LM.contains(l) for l in labels)
    for l in labels:
        assert opens.contains(l) is LM.contains(l), print_label(l)


@pytest.mark.parametrize("calc, pattern, label, want", [
    # capabilities: op and ambient name, concrete or a variable
    (MA, "- | in ?x.@X1", "- | in n.0", True),
    (MA, "- | in ?x.@X1", "- | out n.0", False),
    (MA, "- | in n.@X1", "- | in m.0", False),
    (CCS, "- | a.@X1", "- | 'a.0", False),
    (MA, "- | n[@X1]", "- | m[0]", False),
    # arity and shape under | and +
    (CCS, "- | a.@X1 | b.@X2", "- | a.0", False),
    (CCS, "- | (a.@X1 + b.@X2)", "- | (a.0 + b.0 + c.0)", False),
    (CCS, "- | (a.@X1 + b.@X2)", "- | (b.0 + a.c.0)", True),
    (CCS, "- | @X1", "- | (a.0 + b.0)", True),
    (CCS, "a.- + b.@X1", "- | a.0", False),
    (CCS, "c.- | a.@X1", "c.0 | a.-", False),
    # 0 and particles match only themselves
    (CCS, "- | a.0", "- | a.0", True),
    (CCS, "- | a.0", "- | a.b.0", False),
    (ACCS, "- | 'a", "- | 'a", True),
    (ACCS, "- | 'a", "- | 'b", False),
    # a restriction is compared as it stands
    (CCS, "(nu c) (- | c.0)", "(nu c) (- | c.0)", True),
])
def test_pattern_label_set_matching(calc, pattern, label, want):
    patterns = pattern_label_set("one", [parse_label(pattern, calc)])
    assert patterns.contains(parse_label(label, calc)) is want


def test_pattern_variable_bound_twice_matches_equal_parts():
    # the parser refuses a repeated variable, so these are built by hand
    x, m0 = NameVar("x"), Amb("m", Nil())
    ambs = pattern_label_set("ambs", [
        Label(MA, Par((Hole(), Amb(x, Nil()), Amb(x, m0))))])
    assert ambs.contains(parse_label("- | k[0] | k[m[0]]", MA)) is True
    assert ambs.contains(parse_label("- | k[0] | n[m[0]]", MA)) is False
    procs = pattern_label_set("procs", [
        Label(MA, Par((Hole(), ProcVar("X"), Amb("n", ProcVar("X")))))])
    assert procs.contains(parse_label("- | m[0] | n[m[0]]", MA)) is True
    assert procs.contains(parse_label("- | m[0] | n[k[0]]", MA)) is False


def test_two_parts_finds_the_hole_on_either_side():
    t = Prefix(Recv("a"), Nil())
    assert equivalence._two_parts(Par((Hole(), t))) is t
    assert equivalence._two_parts(Par((t, Hole()))) is t
    assert equivalence._two_parts(Par((t, t))) is None
    assert equivalence._two_parts(Hole()) is None


def test_barb_candidates():
    got = [print_label(l) for l in LM.barb_candidates("n", MA)]
    assert got == ["- | open n.@X1"]
    both = [print_label(l) for l in ALL.barb_candidates("n", MA)]
    assert "- | open n.@X1" in both and len(both) == 2
    out = [print_label(l) for l in LA.barb_candidates("'a", ACCS)]
    assert out == ["- | a.@X1"]
    assert EMPTY.barb_candidates("n", MA) == []


def test_barb_candidates_are_labels_of_the_barbs_own_process():
    """Every candidate of every built-in set is an ITS label of the least
    process showing the barb; a string that is no barb of the calculus
    has none."""
    shows = {(MA, "n"): "n[0]", (MA, "?x"): "?x[0]", (CCS, "a"): "a.0",
             (CCS, "'a"): "'a.0", (ACCS, "'a"): "'a"}
    for (calc, barb), text in shows.items():
        its = [tr.label for tr in its_transitions(parse_term(text, calc))]
        assert ALL.barb_candidates(barb, calc) == its
        for labels in BUILTIN_LABEL_SETS.values():
            for cand in labels.barb_candidates(barb, calc):
                assert cand in its, (barb, labels.name, print_label(cand))
    # the ITS keeps the label's variable apart from the barb's own ?x
    assert [print_label(l) for l in ALL.barb_candidates("?x", MA)] \
        == ["- | open ?x.@X1", "- | ?x1[@X2 | in ?x.@X1]"]
    for calc, text in ((ACCS, "a"), (CCS, "tau"), (MA, "'a"), (CCS, "a b")):
        assert ALL.barb_candidates(text, calc) == [], text


def test_capturing_reports_each_barb_once():
    # ACCS: the barb 'a and the free name a are one output barb
    accs = [parse_term(s, ACCS) for s in ("'a", "a.0", "0", "'b | a.0")]
    rep = is_capturing(LA, ACCS, accs)
    assert [e.barb for e in rep.entries] == ["'a", "'b"]
    assert rep.ok is True
    # CCS: each name as an output and an input barb, name by name
    ccs = [parse_term(s, CCS) for s in ("'a.0", "b.0")]
    assert [e.barb for e in is_capturing(LCCS, CCS, ccs).entries] \
        == ["'a", "a", "'b", "b"]
    ma = [parse_term(s, MA) for s in ("n[0]", "open m.0")]
    assert [e.barb for e in is_capturing(LM, MA, ma).entries] == ["m", "n"]


def test_capturing_reports():
    ma = enumerate_terms(MA, ("n", "m"), count=60)
    rep = is_capturing(LM, MA, ma)
    assert rep.ok is True and rep.entries
    assert all(e.label_text is not None for e in rep.entries)
    assert is_capturing(EMPTY, MA, ma).ok is False
    accs = enumerate_terms(ACCS, ("a", "b"), count=60)
    assert is_capturing(LA, ACCS, accs).ok is True
    # a set captures every barb of a corpus that shows none
    assert is_capturing(LM, MA, [parse_term("0", MA)]).ok is True
    assert is_capturing(LM, MA, []).ok is True


def test_barb_check_names_the_term_and_the_barb(monkeypatch):
    corpus = [parse_term(s, MA) for s in ("n[0]", "0", "open n.0")]
    assert check_barb_capturing(corpus).failures == []
    its = equivalence.its_transitions
    monkeypatch.setattr(
        equivalence, "its_transitions",
        lambda t: tuple(tr for tr in its(t) if tr.rule != "CoOpen"))
    assert check_barb_capturing(corpus).failures == ["n[0] barb n"]


def _fault(monkeypatch, check):
    """Break the layer `check` guards, fix its inputs, and run it.  The
    random checks draw `tau.a.0 | b.0`, and shuffle it to
    `b.0 | tau.a.0`."""
    t, s = parse_term("tau.a.0 | b.0", CCS), parse_term("b.0 | tau.a.0", CCS)
    monkeypatch.setattr("lbisim.corpus.random_term", lambda *a, **k: t)
    monkeypatch.setattr("lbisim.corpus.congruent_shuffle", lambda *a: s)
    rng = random.Random(0)
    if check == "roundtrip":
        # the parser drops the last parallel component
        monkeypatch.setattr("lbisim.corpus.parse_term", lambda text, calc:
                            parse_term(text.rsplit(" | ", 1)[0], calc))
        return check_roundtrip(CCS, 1, rng)
    if check == "idempotence":
        # canonical forms flip their components instead of sorting them
        monkeypatch.setattr("lbisim.corpus.canonical_term", lambda u: Term(
            u.calculus, par(*reversed(components(u.node)))))
        return check_idempotence(CCS, 1, rng)
    if check == "axioms":
        # canonical forms are the terms as written
        monkeypatch.setattr("lbisim.corpus.canonical_term", lambda u: u)
        return check_axiom_soundness(CCS, 1, rng)
    if check == "shuffle":
        # congruence is syntactic equality
        monkeypatch.setattr("lbisim.corpus.equiv",
                            lambda u, v: u.node == v.node)
        return check_shuffle_equiv(CCS, 1, rng)
    if check == "reducts":
        # only the first parallel component reduces
        monkeypatch.setattr("lbisim.corpus.reduct_terms", lambda u:
                            reduct_terms(Term(u.calculus,
                                              components(u.node)[0])))
        return check_reducts_invariance(CCS, 1, rng)
    if check == "lts":
        # the ITS loses its tau steps
        monkeypatch.setattr("lbisim.corpus.its_transitions", lambda u: tuple(
            tr for tr in its_transitions(u) if tr.rule != "Tau"))
        return check_lts_correspondence(CCS, [parse_term("a.0 | 'a.0", CCS)])
    if check == "pred":
        # no state shows a barb, so no marker is ever seen
        monkeypatch.setattr(equivalence, "barbs", lambda u: frozenset())
        return check_pred(MA, [parse_term("n[0]", MA)], [parse_term("0", MA)])
    if check == "coincidence":
        # strong bisimilarity lets only the left side attack: the
        # ordinary game drops the right side's actions, the ITS game
        # keeps both sides' labels
        attacks = _Game.attacks
        monkeypatch.setattr(_Game, "attacks", lambda self, p, q: [
            a for a in attacks(self, p, q)
            if a.side == 0 or isinstance(a.label, Label)])
        pair = (parse_term("a.0", CCS), parse_term("a.0 + b.0", CCS))
        return check_coincidence(CCS, [pair], max_pairs=100)
    # congruence: every label set takes in every label, so l-bisim(LA)
    # is IPO bisimilarity, which the flagship law fails
    monkeypatch.setattr(equivalence.LabelSet, "contains",
                        lambda self, label: True)
    return check_congruence(ACCS, 1, max_pairs=100)


_FAULT_FAILURES = {
    "roundtrip": ["tau.a.0 | b.0"],
    "idempotence": ["tau.a.0 | b.0"],
    "axioms": ["tau.a.0 | b.0"],
    "shuffle": ["tau.a.0 | b.0  vs  b.0 | tau.a.0"],
    "reducts": ["tau.a.0 | b.0  vs  b.0 | tau.a.0"],
    "lts": ["a.0 | 'a.0"],
    "pred": ["n[0] open n T1=0"],
    "coincidence": ["a.0  vs  a.0 + b.0"],
    "congruence": ["a.'a + tau.0 ~ tau.0 under - | a.0"],
}


@pytest.mark.parametrize("check", list(_FAULT_FAILURES))
def test_corpus_check_names_the_case_a_fault_breaks(monkeypatch, check):
    """Each corpus check fails, naming its case, once the layer it
    guards is broken."""
    assert _fault(monkeypatch, check).failures == _FAULT_FAILURES[check]


# --- reduction predicates --------------------------------------------------

def test_pred_open_golden():
    p = parse_term("n[k[0]]", MA)
    t1 = parse_term("w[0]", MA)
    target = canonical_term(parse_term("k[0] | w[0]", MA))
    assert pred("open", p, target, "n", t1) is True
    assert pred("open", p, target, "m", t1) is False
    assert pred("open", p, canonical_term(p), "n", t1) is False
    # a bare open-prefix has no coopen transition
    assert pred("open", parse_term("open n.k[0]", MA), target, "n",
                t1) is False
    # no target names the fresh marker f0
    marked = canonical_term(parse_term("k[0] | w[0] | f0[0]", MA))
    assert pred("open", p, marked, "n", t1) is False


def test_pred_ccs_golden():
    t1 = parse_term("c.0", CCS)
    target = canonical_term(parse_term("b.0 | c.0", CCS))
    recv = parse_term("a.b.0", CCS)
    send = parse_term("'a.b.0", CCS)
    assert pred("out", recv, target, "a", t1) is True
    assert pred("out", recv, target, "b", t1) is False
    assert pred("out", send, target, "a", t1) is False
    assert pred("in", send, target, "a", t1) is True
    assert pred("in", recv, target, "a", t1) is False
    comm = parse_term("a.0 | 'a.b.0", CCS)
    assert pred("tau", comm, parse_term("b.0", CCS)) is True
    assert pred("tau", comm, parse_term("0", CCS)) is False
    with pytest.raises(LbisimError, match="'out'"):
        pred("out", recv, target)  # name and t1 required
    with pytest.raises(LbisimError, match="'sideways'"):
        pred("sideways", recv, target, "a", t1)
    # no target names the fresh marker channel f0
    for marked in ("b.0 | c.0 | f0.0", "b.0 | c.0 | 'f0.0"):
        marked = canonical_term(parse_term(marked, CCS))
        assert pred("out", recv, marked, "a", t1) is False
    # every kind refuses a term with process variables, tau included
    with pytest.raises(MalformedTermError, match="'tau'"):
        pred("tau", parse_term("tau.0 | @X", CCS), parse_term("0 | @X", CCS))


def test_pred_tau_refuses_a_name_and_a_t1():
    """tau acts on no name and has no X1: a name or a T1 given to it is
    refused, not ignored."""
    comm = parse_term("a.0 | 'a.b.0", CCS)
    target, c = parse_term("b.0", CCS), parse_term("c.0", CCS)
    for name, t1 in (("a", None), (None, c), ("a", c)):
        with pytest.raises(LbisimError, match="'tau' takes no name"):
            pred("tau", comm, target, name, t1)
        with pytest.raises(LbisimError, match="'tau' takes no name"):
            list(pred_targets("tau", comm, name, t1))
    assert pred("tau", comm, target) is True


@pytest.mark.parametrize("kind, calc, text, name, t1, rule", [
    ("open", MA, "n[k[0]] | n[0]", "n", "w[0]", "CoOpen"),
    ("out", CCS, "a.b.0 + a.0 | a.c.0", "a", "c.0", "Rcv"),
    ("in", CCS, "'a.b.0 | 'a.0", "a", "c.0", "Snd"),
    ("tau", CCS, "a.0 | 'a.b.0 | tau.c.0", None, None, "Tau"),
])
def test_pred_targets_are_the_instantiated_transitions(kind, calc, text, name,
                                                       t1, rule):
    """For one term, a kind's targets are those of its rule's transitions,
    instantiated with X1 := T1 (a tau transition has no X1)."""
    p = parse_term(text, calc)
    t1 = None if t1 is None else parse_term(t1, calc)
    trs = [tr for tr in its_transitions(p) if tr.rule == rule]
    if t1 is not None:
        subst = Substitution.make(calc, procs={"X1": t1})
        trs = [instantiate(tr, subst) for tr in trs]
    want = {tr.target.node for tr in trs}
    assert len(want) >= 2
    assert set(pred_targets(kind, p, name, t1)) == want


@pytest.mark.parametrize("kind, calc, text, name, t1", [
    ("open", MA, "n[k[0]] | n[0]", "n", "w[0]"),
    ("out", CCS, "a.b.0 + a.0 | a.c.0", "a", "c.0"),
    ("in", CCS, "'a.b.0 | 'a.0", "a", "c.0"),
    ("tau", CCS, "a.0 | 'a.b.0 | tau.c.0", None, None),
])
def test_pred_holds_exactly_of_the_pred_targets(kind, calc, text, name, t1):
    """`pred` holds of each target `pred_targets` gives, however it is
    spelled, and of no other term."""
    p = parse_term(text, calc)
    t1 = None if t1 is None else parse_term(t1, calc)
    targets = set(pred_targets(kind, p, name, t1))
    others = {canonical_term(p).node, Nil(),
              *(r.node for r in reduct_terms(p))} - targets
    assert targets and others
    for y in targets | others:
        # a unit in parallel, which no canonical form has
        spelled = parse_term(f"0 | ({print_term(Term(calc, y))})", calc)
        assert spelled.node != y
        for target in (Term(calc, y), spelled):
            assert pred(kind, p, target, name, t1) is (y in targets)


def test_pred_refuses_terms_of_another_calculus():
    a = parse_term("a.0", CCS)
    b = parse_term("'b", ACCS)
    with pytest.raises(LbisimError, match="'out'"):
        pred("out", a, b, "a", b)
    with pytest.raises(MAUnsupportedError, match="'tau'"):
        pred("tau", parse_term("tau.0", CCS), parse_term("0", MA))
    with pytest.raises(MAUnsupportedError, match="'open'"):
        pred("open", a, a, "n", a)


# --- witnesses -------------------------------------------------------------

@pytest.fixture(autouse=True)
def _printed_labels_parse_back(monkeypatch):
    """Every label the program prints in these tests, witness moves
    included, parses back to the node it was printed from."""
    printed = []
    print_label = syntax.print_label

    def record(label):
        printed.append(label)
        return print_label(label)

    monkeypatch.setattr(syntax, "print_label", record)
    monkeypatch.setattr(equivalence, "print_label", record)
    yield
    for label in printed:
        text = print_label(label)
        assert parse_label(text, label.calculus).body is label.body, text


def test_witness_labels_with_capabilities_on_variables_parse_back():
    p, q = parse_term("out m.a[0]", MA), parse_term("out m.b[0]", MA)
    for r in (check("semi-sat", p, q), check("l-bisim", p, q, labels=ALL)):
        moves = [step.move for step in r.witness if step.kind == "move"]
        assert any("open ?" in m for m in moves), moves
        for text in moves:
            assert print_label(parse_label(text, MA)) == text

def test_witness_replay_across_relations():
    cases = [
        ("strong", CCS, "a.0", "b.0", None),
        ("strong", CCS, "a.b.0", "a.0", None),
        ("async", ACCS, "'a", "0", None),
        ("ipo", ACCS, "a.'a + tau.0", "tau.0", None),
        ("semi-sat", ACCS, "'a", "0", None),
        ("l-bisim", MA, "n[0]", "0", LM),
        ("l-bisim", CCS, "a.0 + b.0", "a.0", LCCS),
    ]
    for rel, calc, s1, s2, labels in cases:
        p, q = parse_term(s1, calc), parse_term(s2, calc)
        r = check(rel, p, q, labels=labels)
        assert r.verdict is False and r.witness, (rel, s1, s2)
        assert verify_witness(p, q, r, rel, labels=labels) is True, (rel, s1)
        # a tampered replay (swapped endpoints) must not validate
        if print_term(canonical_term(p)) != print_term(canonical_term(q)):
            assert verify_witness(q, p, r, rel, labels=labels) is False


@pytest.mark.parametrize("tamper", ["foreign move", "foreign answer",
                                    "cut short"])
def test_tampered_witness_does_not_replay(tamper):
    p, q = parse_term("a.a.0", CCS), parse_term("a.b.0", CCS)
    r = check("semi-sat", p, q)
    assert verify_witness(p, q, r, "semi-sat") is True
    first, last = r.witness
    if tamper == "foreign move":
        # not one of the attacks of a.a.0 / a.b.0
        witness = [dataclasses.replace(first, move="- | 'b.@X1"), last]
    elif tamper == "foreign answer":
        # the defender's answer to - | 'a.@X1 is b.0
        witness = [dataclasses.replace(first, defender_target="a.0"), last]
    else:
        # a.0 / b.0 is not a dead end yet
        witness = [first]
    forged = GameResult(False, witness, r.pairs_explored, r.rounds,
                        r.expanded, r.residuals)
    assert verify_witness(p, q, forged, "semi-sat") is False


def test_witness_with_more_than_ten_game_variables():
    # each move's label brings @X1, which the game erases: after twelve
    # moves the states hold none of them, and the witness numbers none
    p = parse_term("a." * 12 + "0", CCS)
    q = parse_term("a." * 12 + "b.0", CCS)
    r = check("semi-sat", p, q)
    assert (r.verdict, r.pairs_explored, r.rounds, len(r.witness)) \
        == (False, 13, 13, 13)
    assert r.witness[-1].pair == ("0", "b.0")
    assert r.witness[-1].move == "- | 'b.@X1"
    assert all(step.intro_vars == {} for step in r.witness)
    assert verify_witness(p, q, r, "semi-sat") is True


def test_deep_chain_dies_in_one_round_per_pair():
    """Each round expands the one open pair of the chain, and its death
    is passed up the chain at once: n rounds for n pairs, where sweeping
    to a fixpoint after each round took 2n - 1."""
    n = 200
    p = parse_term("a." * n + "0", CCS)
    q = parse_term("a." * (n - 1) + "b.0", CCS)
    r = check("semi-sat", p, q)
    assert (r.verdict, r.pairs_explored) == (False, n)
    assert r.rounds <= n + 1


_MA_CHAIN = ("in a." * 25 + "0", "in a." * 24 + "in b.0")


@pytest.mark.parametrize("rel,labels", [("ipo", None), ("semi-sat", None),
                                        ("barbed-semi-sat", None),
                                        ("l-bisim", LM)])
def test_capability_chains_grow_no_inert_constants(rel, labels):
    # were each move's @X1 kept, both states would grow by one component
    # a move, pairs would grow about 3x a level and 25 levels would
    # exhaust 50,000 pairs; erased, the game refutes them in 120
    p, q = (parse_term(s, MA) for s in _MA_CHAIN)
    r = check(rel, p, q, labels=labels)
    assert (r.verdict, r.pairs_explored) == (False, 120)
    assert verify_witness(p, q, r, rel, labels=labels) is True


def test_witness_replay_refuses_terms_with_variables():
    p, q = parse_term("a.0", CCS), parse_term("0", CCS)
    r = check("semi-sat", p, q)
    impure = parse_term("@Y | a.0", CCS)
    with pytest.raises(MalformedTermError):
        check("semi-sat", impure, q)
    with pytest.raises(MalformedTermError):
        verify_witness(impure, q, r, "semi-sat")


_CCS_DIFF = ("c.0 | 'd.0 | a.0", "c.0 | 'd.0 | b.0")
_FLAGSHIP = ("a.'a + tau.0 | 'b", "tau.0 | 'b")
_MA_DIFFS = {
    "barb": ("j[0] | n[k[0]]", "j[0] | m[k[0]]"),
    "cap": ("n[in m.0] | j[0]", "n[out m.0] | j[0]"),
    "open": ("open a.open m.0", "open a.open p.0"),
    # the witness opens the ambient ?w that the first move let out of m,
    # with a label that names that state variable
    "state-var": ("out m.a[0]", "out m.b[0]"),
}
_CCS_RELS = [("strong", None), ("ipo", None), ("semi-sat", None),
             ("barbed-semi-sat", None), ("l-bisim", LCCS),
             ("l-bisim", ALL), ("l-bisim", EMPTY)]
_MA_RELS = [("ipo", None), ("semi-sat", None), ("barbed-semi-sat", None),
            ("l-bisim", LM), ("l-bisim", ALL), ("l-bisim", EMPTY)]
_REPLAYED = (
    [(CCS, rel, labels, *_CCS_DIFF) for rel, labels in _CCS_RELS]
    + [(ACCS, rel, labels, *_FLAGSHIP)
       for rel, labels in (("strong", None), ("ipo", None), ("l-bisim", ALL))]
    + [(MA, rel, labels, *pair)
       for pair in _MA_DIFFS.values() for rel, labels in _MA_RELS]
    # the last step's barb is the ambient the first move's x names
    + [(MA, "barbed-semi-sat", None, "in m.0 | m[k[out m.0]]",
        "m[k[out m.0]]")])


def _assert_intro_vars_fresh(r, calc):
    """Each witness step introduces only the label variable x, under a
    name no variable of its pair has, no state it prints holds a
    process variable, and no text names a variable by its class name."""
    for step in r.witness:
        assert set(step.intro_vars) <= {"x"}, step
        texts = (*step.pair, step.move, step.attacker_target,
                 step.defender_target)
        assert not any(re.search(r"\?p\d", t) for t in texts if t), step
        states = [parse_term(text, calc).node.vars
                  for text in (*step.pair, step.attacker_target,
                               step.defender_target) if text is not None]
        taken = {name for vs in states for _, name in vs}
        assert not set(step.intro_vars.values()) & taken, step
        assert all(kind == "name" for vs in states for kind, _ in vs), step


@pytest.mark.parametrize(
    "calc,rel,labels,s1,s2", _REPLAYED,
    ids=[f"{c.value}-{r}{'-' + ls.name if ls else ''}-{s1}"
         for c, r, ls, s1, _ in _REPLAYED])
def test_inequivalence_witnesses_replay(calc, rel, labels, s1, s2):
    p, q = parse_term(s1, calc), parse_term(s2, calc)
    r = check(rel, p, q, labels=labels)
    assert r.verdict is False and r.witness
    assert verify_witness(p, q, r, rel, labels=labels) is True
    _assert_intro_vars_fresh(r, calc)


def test_witness_labels_name_witness_variables():
    # the move after `out m` opens the ambient that left m: its label
    # names that ambient as the witness does, not by an internal name
    p, q = parse_term("out m.a[0]", MA), parse_term("out m.b[0]", MA)
    r = check("semi-sat", p, q)
    moves = [step.move for step in r.witness]
    assert "- | open ?w1.@X1" in moves, moves


# --- pairs merged up to renaming ---------------------------------------------

_ITS_RELS = {CCS: _CCS_RELS[1:],
             ACCS: [("ipo", None), ("semi-sat", None),
                    ("barbed-semi-sat", None), ("l-bisim", LA),
                    ("l-bisim", ALL), ("l-bisim", EMPTY)],
             MA: _MA_RELS}
# MA firewall-law pairs: equivalent under every relation; played in
# full, without residuals, they exhaust any budget.
_FIREWALL = (("m[(nu k) k[0]]", "m[0]"), ("in n.0", "in n.(nu k) k[0]"),
             ("m[in n.0]", "m[in n.0] | (nu k) k[0]"))
_MEMO_PAIRS = {
    CCS: (_CCS_DIFF, ("b.0 | 'c.0 | a.0 + a.0", "b.0 | 'c.0 | a.0"),
          ("a.b.0 | 'a.0 | c.0", "'a.0 | a.b.0 | c.0 + c.0")),
    ACCS: (_FLAGSHIP, ("'a | 'b", "'a"), ("'a | b.0", "'a | b.0 + b.0")),
    MA: (*_MA_DIFFS.values(), *_FIREWALL),
}
_MEMO_QUERIES = [(calc, rel, labels, s1, s2)
                 for calc, pairs in _MEMO_PAIRS.items()
                 for s1, s2 in pairs for rel, labels in _ITS_RELS[calc]]
_MEMO_BUDGET = 500


def _query_id(calc, rel, labels, s1, s2):
    return f"{calc.value}-{rel}{'-' + labels.name if labels else ''}-{s1}"


def _play_game(calc, rel, labels, p, q, upto=True):
    """The result of one game, or the budget it exhausted: the relation's
    game, or with `upto=False` the same game with every pair played in
    full."""
    game = _game(rel, calc, p, q, labels, None)
    if not upto:
        game = _Game(game.moves, game.labels, game.barbed, upto=False)
    try:
        return _solve(game, p, q, _MEMO_BUDGET)
    except DivergenceBudgetExceededError as exc:
        return str(exc)


# The game of each query as played before pairs were merged up to
# renaming, when a memo replayed the moves of pairs that differ only in
# the names of their variables: (verdict, rounds, expansions not
# replayed, pairs, sha256 of the witness JSON, first 12 digits).  The
# witness digests are those of the game on states with their process
# variables erased, which plays the same rounds and pairs.  The rounds
# are the frontier expansions of the worklist solver, which kept every
# verdict, witness and pair count of the sweeping fixpoint before it.
_UNMERGED = {
    "ccs-ipo-c.0 | 'd.0 | a.0": (False, 1, 1, 1, "b508ffa0bbdc"),
    "ccs-semi-sat-c.0 | 'd.0 | a.0": (False, 1, 1, 1, "b508ffa0bbdc"),
    "ccs-barbed-semi-sat-c.0 | 'd.0 | a.0": (False, 1, 1, 1, "6976d3a3569c"),
    "ccs-l-bisim-LCCS-c.0 | 'd.0 | a.0": (False, 1, 1, 1, "b508ffa0bbdc"),
    "ccs-l-bisim-ALL-c.0 | 'd.0 | a.0": (False, 1, 1, 1, "b508ffa0bbdc"),
    "ccs-l-bisim-EMPTY-c.0 | 'd.0 | a.0": (False, 1, 1, 1, "b508ffa0bbdc"),
    "ccs-ipo-b.0 | 'c.0 | a.0 + a.0": (True, 1, 2, 4, None),
    "ccs-semi-sat-b.0 | 'c.0 | a.0 + a.0": (True, 1, 2, 4, None),
    "ccs-barbed-semi-sat-b.0 | 'c.0 | a.0 + a.0": (True, 1, 2, 4, None),
    "ccs-l-bisim-LCCS-b.0 | 'c.0 | a.0 + a.0": (True, 1, 2, 4, None),
    "ccs-l-bisim-ALL-b.0 | 'c.0 | a.0 + a.0": (True, 1, 2, 4, None),
    "ccs-l-bisim-EMPTY-b.0 | 'c.0 | a.0 + a.0": (True, 1, 2, 4, None),
    "ccs-ipo-a.b.0 | 'a.0 | c.0": (True, 1, 2, 4, None),
    "ccs-semi-sat-a.b.0 | 'a.0 | c.0": (True, 1, 2, 4, None),
    "ccs-barbed-semi-sat-a.b.0 | 'a.0 | c.0": (True, 1, 2, 4, None),
    "ccs-l-bisim-LCCS-a.b.0 | 'a.0 | c.0": (True, 1, 2, 4, None),
    "ccs-l-bisim-ALL-a.b.0 | 'a.0 | c.0": (True, 1, 2, 4, None),
    "ccs-l-bisim-EMPTY-a.b.0 | 'a.0 | c.0": (True, 1, 2, 4, None),
    "accs-ipo-a.'a + tau.0 | 'b": (False, 1, 1, 1, "c9930e9382da"),
    "accs-semi-sat-a.'a + tau.0 | 'b": (True, 1, 2, 4, None),
    "accs-barbed-semi-sat-a.'a + tau.0 | 'b": (True, 1, 2, 4, None),
    "accs-l-bisim-LA-a.'a + tau.0 | 'b": (True, 1, 2, 4, None),
    "accs-l-bisim-ALL-a.'a + tau.0 | 'b": (False, 1, 1, 1, "c9930e9382da"),
    "accs-l-bisim-EMPTY-a.'a + tau.0 | 'b": (True, 1, 2, 4, None),
    "accs-ipo-'a | 'b": (False, 1, 1, 1, "67073beab6e1"),
    "accs-semi-sat-'a | 'b": (False, 1, 1, 1, "67073beab6e1"),
    "accs-barbed-semi-sat-'a | 'b": (False, 1, 1, 1, "6968ecbc80e6"),
    "accs-l-bisim-LA-'a | 'b": (False, 1, 1, 1, "67073beab6e1"),
    "accs-l-bisim-ALL-'a | 'b": (False, 1, 1, 1, "67073beab6e1"),
    "accs-l-bisim-EMPTY-'a | 'b": (False, 1, 1, 1, "67073beab6e1"),
    "accs-ipo-'a | b.0": (True, 1, 2, 3, None),
    "accs-semi-sat-'a | b.0": (True, 1, 2, 3, None),
    "accs-barbed-semi-sat-'a | b.0": (True, 1, 2, 3, None),
    "accs-l-bisim-LA-'a | b.0": (True, 1, 2, 3, None),
    "accs-l-bisim-ALL-'a | b.0": (True, 1, 2, 3, None),
    "accs-l-bisim-EMPTY-'a | b.0": (True, 1, 2, 3, None),
    "ma-ipo-j[0] | n[k[0]]": (False, 1, 1, 1, "f67527c1da03"),
    "ma-semi-sat-j[0] | n[k[0]]": (False, 1, 1, 1, "f67527c1da03"),
    "ma-barbed-semi-sat-j[0] | n[k[0]]": (False, 1, 1, 1, "cd52f9179781"),
    "ma-l-bisim-LM-j[0] | n[k[0]]": (False, 1, 1, 1, "f67527c1da03"),
    "ma-l-bisim-ALL-j[0] | n[k[0]]": (False, 1, 1, 1, "f67527c1da03"),
    "ma-l-bisim-EMPTY-j[0] | n[k[0]]": (False, 1, 1, 1, "f67527c1da03"),
    "ma-ipo-n[in m.0] | j[0]": (False, 1, 1, 1, "de444e0a60e2"),
    "ma-semi-sat-n[in m.0] | j[0]": (False, 1, 1, 1, "de444e0a60e2"),
    "ma-barbed-semi-sat-n[in m.0] | j[0]": (False, 1, 1, 1, "de444e0a60e2"),
    "ma-l-bisim-LM-n[in m.0] | j[0]": (False, 1, 1, 1, "de444e0a60e2"),
    "ma-l-bisim-ALL-n[in m.0] | j[0]": (False, 1, 1, 1, "de444e0a60e2"),
    "ma-l-bisim-EMPTY-n[in m.0] | j[0]": (False, 1, 1, 1, "de444e0a60e2"),
    "ma-ipo-open a.open m.0": (False, 2, 2, 3, "e0565156644d"),
    "ma-semi-sat-open a.open m.0": (False, 2, 2, 3, "e0565156644d"),
    "ma-barbed-semi-sat-open a.open m.0": (False, 2, 2, 3, "e0565156644d"),
    "ma-l-bisim-LM-open a.open m.0": (False, 2, 2, 3, "e0565156644d"),
    "ma-l-bisim-ALL-open a.open m.0": (False, 2, 2, 3, "e0565156644d"),
    "ma-l-bisim-EMPTY-open a.open m.0": (False, 2, 2, 3, "e0565156644d"),
    "ma-ipo-out m.a[0]": (False, 3, 5, 36, "b64abfc659a4"),
    "ma-semi-sat-out m.a[0]": (False, 3, 5, 36, "b64abfc659a4"),
    "ma-barbed-semi-sat-out m.a[0]": (False, 3, 10, 100, "cc13c9f6bc90"),
    "ma-l-bisim-LM-out m.a[0]": (False, 3, 5, 36, "b64abfc659a4"),
    "ma-l-bisim-ALL-out m.a[0]": (False, 3, 5, 36, "b64abfc659a4"),
    "ma-l-bisim-EMPTY-out m.a[0]": (False, 3, 5, 36, "b64abfc659a4"),
    "ma-ipo-m[(nu k) k[0]]": (True, 1, 0, 1, None),
    "ma-semi-sat-m[(nu k) k[0]]": (True, 1, 0, 1, None),
    "ma-barbed-semi-sat-m[(nu k) k[0]]": (True, 1, 0, 1, None),
    "ma-l-bisim-LM-m[(nu k) k[0]]": (True, 1, 0, 1, None),
    "ma-l-bisim-ALL-m[(nu k) k[0]]": (True, 1, 0, 1, None),
    "ma-l-bisim-EMPTY-m[(nu k) k[0]]": (True, 1, 0, 1, None),
    "ma-ipo-in n.0": (True, 2, 1, 3, None),
    "ma-semi-sat-in n.0": (True, 2, 1, 3, None),
    "ma-barbed-semi-sat-in n.0": (True, 2, 1, 3, None),
    "ma-l-bisim-LM-in n.0": (True, 2, 1, 3, None),
    "ma-l-bisim-ALL-in n.0": (True, 2, 1, 3, None),
    "ma-l-bisim-EMPTY-in n.0": (True, 2, 1, 3, None),
    "ma-ipo-m[in n.0]": (True, 1, 0, 1, None),
    "ma-semi-sat-m[in n.0]": (True, 1, 0, 1, None),
    "ma-barbed-semi-sat-m[in n.0]": (True, 1, 0, 1, None),
    "ma-l-bisim-LM-m[in n.0]": (True, 1, 0, 1, None),
    "ma-l-bisim-ALL-m[in n.0]": (True, 1, 0, 1, None),
    "ma-l-bisim-EMPTY-m[in n.0]": (True, 1, 0, 1, None),
}


def _witness_digest(result) -> "str | None":
    witness = result.to_dict()["witness"]
    if witness is None:
        return None
    text = json.dumps(witness, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@pytest.mark.parametrize("calc,rel,labels,s1,s2", _MEMO_QUERIES,
                         ids=[_query_id(*q) for q in _MEMO_QUERIES])
def test_memo_agrees_with_unmemoised_game(calc, rel, labels, s1, s2):
    """The merged game keeps every verdict and witness of the memoised
    game in `_UNMERGED`, takes the rounds pinned there, and plays no
    more pairs than it did nor expands more pairs than it expanded
    without a replay."""
    p, q = parse_term(s1, calc), parse_term(s2, calc)
    r = _play_game(calc, rel, labels, p, q)
    assert not isinstance(r, str), r
    verdict, rounds, expanded, pairs, digest = \
        _UNMERGED[_query_id(calc, rel, labels, s1, s2)]
    assert (r.verdict, r.rounds) == (verdict, rounds)
    assert _witness_digest(r) == digest, r.to_dict()["witness"]
    assert r.expanded <= expanded and r.pairs_explored <= pairs
    if r.verdict is False:
        assert verify_witness(p, q, r, rel, labels=labels) is True


def test_pairs_merge_up_to_renaming():
    # no common context: the two a-moves lead to pairs of one class
    p = parse_term("a.b.0 + a.c.0", CCS)
    q = parse_term("a.b.0 + a.c.0 + a.c.0", CCS)
    stats = check("semi-sat", p, q).to_dict()["stats"]
    assert stats == {"pairs": 5, "rounds": 2, "expanded": 3,
                     "residuals": 0}
    # the shared context a.b.0 | 'a.0 leaves the residual c.0 / c.0 + c.0,
    # whose game decides the pair
    p = parse_term("a.b.0 | 'a.0 | c.0", CCS)
    q = parse_term("'a.0 | a.b.0 | c.0 + c.0", CCS)
    stats = check("semi-sat", p, q).to_dict()["stats"]
    assert stats == {"pairs": 3, "rounds": 1, "expanded": 2,
                     "residuals": 1}


_FIREWALL_REPLAYS = [(rel, labels, s1, s2) for s1, s2 in _FIREWALL
                     for rel, labels in _MA_RELS
                     if (labels or EMPTY) is not ALL and rel != "ipo"]


@pytest.mark.parametrize(
    "rel,labels,s1,s2", _FIREWALL_REPLAYS,
    ids=[_query_id(MA, *q) for q in _FIREWALL_REPLAYS])
def test_firewall_witnesses_replay(rel, labels, s1, s2):
    p, q = parse_term(s1, MA), parse_term(s2, MA)
    r = _play_game(MA, rel, labels, p, q)
    if isinstance(r, str) or r.verdict:
        return  # no witness to replay
    assert verify_witness(p, q, r, rel, labels=labels) is True


@pytest.mark.parametrize(
    "rel,labels,s1,s2", _FIREWALL_REPLAYS,
    ids=[_query_id(MA, *q) for q in _FIREWALL_REPLAYS])
def test_firewall_pairs_are_never_inequivalent(rel, labels, s1, s2):
    """The freshening regression: once a label names a state's own
    ambient, the defender must be plugged into that same ambient."""
    p, q = parse_term(s1, MA), parse_term(s2, MA)
    r = _play_game(MA, rel, labels, p, q)
    assert not isinstance(r, str) and r.verdict is True
    assert r.residuals >= 1
    plain = _play_game(MA, rel, labels, p, q, upto=False)
    assert isinstance(plain, str) or plain.verdict is True


class _CountingAnswers(_Game):
    def __init__(self, *args):
        super().__init__(*args)
        self.asked = 0

    def answers(self, attack, defender):
        self.asked += 1
        return super().answers(attack, defender)


def test_dead_first_attack_computes_no_later_answers():
    # the left side has three attacks; the first has no answer
    for s1, s2 in (("a.0 | b.0 | c.0", "0"),
                   ("a.0 | b.0 | c.0 | @V13", "@V13")):
        p, q = parse_term(s1, CCS), parse_term(s2, CCS)
        for labels in (ALL, EMPTY):
            game = _CountingAnswers(its_transitions, labels)
            assert len(list(game.attacks(canonical_term(p),
                                         canonical_term(q)))) == 3
            r = _solve(game, p, q, 100)
            assert r.verdict is False and r.expanded == 1
            assert game.asked == 1, (s1, labels.name)


def test_barbed_witness_replay():
    p, q = parse_term("n[0]", MA), parse_term("0", MA)
    r = check("barbed-semi-sat", p, q)
    assert r.verdict is False
    assert any(m.kind == "barb" and m.move == "n" for m in r.witness)
    assert verify_witness(p, q, r, "barbed-semi-sat") is True


def test_witness_only_on_inequivalence():
    p = parse_term("a.0", CCS)
    q = parse_term("a.0 + a.0", CCS)
    r = check("strong", p, q)
    assert r.verdict is True and r.witness is None
    with pytest.raises(LbisimError):
        verify_witness(p, q, r, "strong")


# --- label variables in class-named game states ----------------------------

def _successors(game, pairs) -> list:
    """The class-named successors that hold variables, of every answered
    attack of the pairs; asserts on the way that every attack target,
    every answer and every class-named successor is canonical."""
    out = []
    for p, q in pairs:
        for attack in game.attacks(p, q):
            assert attack.target == canonical_term(attack.target)
            for ans in game.answers(attack, q if attack.side == 0 else p):
                assert ans == canonical_term(ans)
                sp, sq, _ = _class_named(attack.target, ans)
                assert (sp, sq) == (canonical_term(sp), canonical_term(sq))
                if sp.node.vars or sq.node.vars:
                    out.append((sp, sq))
    return out[:150]


def test_moves_of_class_named_states_are_canonical():
    # a move of a class-named state leaves its label's name variable as
    # it is: the targets and answers are canonical, and so are the
    # class-named successors, with no renaming in between.  Process
    # variables are erased, so only MA states, which keep ?x, hold any
    for calc in (CCS, ACCS, MA):
        corpus = enumerate_terms(calc, ("a", "b"), count=160, max_depth=3)
        firsts = [(canonical_term(p), canonical_term(q))
                  for p, q in zip(corpus, corpus[1:])]
        for labels in (ALL, EMPTY):
            game = _Game(its_transitions, labels)
            seconds = _successors(game, firsts)
            assert bool(seconds) is (calc is MA), (calc, labels.name)
            _successors(game, seconds)


def test_moves_keep_the_state_variables():
    # - | open ?p10.@X1 and - | ?x[in ?p10.@X1 | @X2] name the state's own
    # ambient ?p10: a move introduces only x into the states, and erases
    # the label's process variables from its target and answers
    state = canonical_term(parse_term("?p10[0] | ?p11[a[0]]", MA))
    own = set(state.node.vars)
    game = _Game(its_transitions, EMPTY)
    named = 0
    for attack in game.attacks(state, state):
        states = (attack.target, *game.answers(attack, state))
        assert all(kind == "name" for t in states for kind, _ in t.node.vars)
        new = {name for t in states for _, name in t.node.vars
               if ("name", name) not in own}
        assert new == set(_label_variables(attack)) <= {"x"}
        assert attack.target == canonical_term(attack.target)
        named += ("name", "p10") in attack.label.body.vars
    assert named == 2 * 2           # each label, from either side


# --- pools, budgets, guards ------------------------------------------------

def test_instantiated_pool_agrees_with_symbolic():
    pool = [parse_term(s, ACCS) for s in ("0", "'c")]
    cases = [("a.'a + tau.0", "tau.0"), ("'a", "0"), ("a.0", "a.0 + a.0")]
    for s1, s2 in cases:
        p, q = parse_term(s1, ACCS), parse_term(s2, ACCS)
        assert check("l-bisim", p, q, labels=LA).verdict \
            == check("l-bisim", p, q, labels=LA, pool=pool).verdict
    # pool games attack with closed labels, and their witnesses replay
    # through the same instantiated game
    witnessed = [("ipo", "a.'a + tau.0", "tau.0")] + [
        (rel, s1, s2) for rel in ("ipo", "semi-sat")
        for s1, s2 in (("'a", "0"), ("'a | 'b", "'a"))]
    for rel, s1, s2 in witnessed:
        p, q = parse_term(s1, ACCS), parse_term(s2, ACCS)
        r = check(rel, p, q, pool=pool)
        assert r.verdict is False and r.witness, (rel, s1)
        assert verify_witness(p, q, r, rel, pool=pool) is True, (rel, s1)
        assert verify_witness(q, p, r, rel, pool=pool) is False, (rel, s1)
    with pytest.raises(MalformedTermError):
        check("l-bisim", p, q, labels=LA, pool=[parse_term("n[0]", MA)])


def test_budget_exceeded_raises_deterministically():
    p = parse_term("a.0 + a.0", CCS)
    q = parse_term("a.0", CCS)
    for _ in range(2):
        with pytest.raises(DivergenceBudgetExceededError):
            check("strong", p, q, max_pairs=1)
    assert check("strong", p, q).verdict is True


def test_relation_guards():
    p = parse_term("n[0]", MA)
    with pytest.raises(MAUnsupportedError):
        check("strong", p, p)
    c = parse_term("a.0", CCS)
    for t in (c, p):
        with pytest.raises(LbisimError, match="ACCS"):
            check("async", t, t)
    with pytest.raises(LbisimError, match="unknown relation"):
        check("bisim", c, c)
    impure = Term(Calculus.CCS, ProcVar("X1"))
    with pytest.raises(MalformedTermError):
        check("strong", impure, impure)


# --- one relation table ------------------------------------------------------

# Per relation: an inequivalent pair (with the label set l-bisim needs).
_BY_RELATION = {
    "strong": (CCS, None, "a.0", "b.0"),
    "async": (ACCS, None, "'a", "0"),
    "ipo": (ACCS, None, *_FLAGSHIP),
    "semi-sat": (ACCS, None, "'a | 'b", "'a"),
    "barbed-semi-sat": (MA, None, "n[0]", "0"),
    "l-bisim": (MA, LM, "n[0]", "0"),
}


def test_every_relation_has_a_case():
    assert tuple(_BY_RELATION) == RELATIONS


@pytest.mark.parametrize("rel", RELATIONS)
def test_check_is_the_named_solver(rel):
    # check plays the game that _game names for the relation
    calc, labels, s1, s2 = _BY_RELATION[rel]
    p, q = parse_term(s1, calc), parse_term(s2, calc)
    r = check(rel, p, q, labels=labels)
    named = _solve(_game(rel, calc, p, q, labels, None), p, q,
                   DEFAULT_MAX_PAIRS)
    assert r.to_dict() == named.to_dict()
    assert r.verdict is False and r.witness
    assert verify_witness(p, q, r, rel, labels=labels) is True
    assert check(rel, p, p, labels=labels).verdict is True


@pytest.mark.parametrize("rel", RELATIONS)
def test_check_refuses_what_a_relation_does_not_take(rel):
    calc, labels, s1, s2 = _BY_RELATION[rel]
    p, q = parse_term(s1, calc), parse_term(s2, calc)
    r = check(rel, p, q, labels=labels)
    if rel == "l-bisim":
        misuses = [{}]                         # no label set
    else:
        misuses = [{"labels": ALL}]
    if rel in ("strong", "async"):
        misuses.append({"pool": [parse_term("0", calc)]})
    else:
        misuses.append({"labels": labels, "pool": []})
    for kw in misuses:
        with pytest.raises(LbisimError):
            check(rel, p, q, **kw)
        with pytest.raises(LbisimError):
            verify_witness(p, q, r, rel, **kw)


def test_empty_pool_is_refused():
    # with no pool term, no move with a label variable has an instance:
    # a.0 would have no move, and so would seem equivalent to 0
    p, q = parse_term("a.0", CCS), parse_term("0", CCS)
    assert check("ipo", p, q).verdict is False
    for rel in ("ipo", "semi-sat", "barbed-semi-sat"):
        with pytest.raises(MalformedTermError, match="pool is empty"):
            check(rel, p, q, pool=[])
    with pytest.raises(MalformedTermError, match="pool is empty"):
        check("l-bisim", p, q, labels=LCCS, pool=())


# --- work done only when the answer needs it ---------------------------------

def _count_witnesses(monkeypatch) -> list:
    """Record each call of `_build_witness` from now on."""
    calls = []
    build = equivalence._build_witness

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(equivalence, "_build_witness", counting)
    return calls


def test_witness_is_built_on_first_read(monkeypatch):
    calls = _count_witnesses(monkeypatch)
    p = parse_term("a.'a + tau.0", ACCS)
    q = parse_term("tau.0", ACCS)
    assert check("ipo", p, q).verdict is False
    assert calls == []
    r = check("ipo", p, q)
    first = r.witness
    assert first and r.witness is first and len(calls) == 1
    assert verify_witness(p, q, r, "ipo") is True
    assert len(calls) == 1


def test_results_compare_by_their_fields():
    p = parse_term("a.'a + tau.0", ACCS)
    q = parse_term("tau.0", ACCS)
    first, again = check("ipo", p, q), check("ipo", p, q)
    assert first.verdict is False and first == again
    assert first != check("async", p, q)
    assert first != check("ipo", parse_term("a.0", ACCS), q)
    assert first != first.to_dict()


def test_lazy_witness_is_the_eager_one(monkeypatch):
    """A witness read after other games have run prints as the one read
    while its game returns."""
    class Eager(equivalence.GameResult):
        """Reads its witness as `_solve` makes it."""

        def __init__(self, *args):
            super().__init__(*args)
            self.witness

    queries = [(rel, calc, labels, s1, s2)
               for rel, (calc, labels, s1, s2) in _BY_RELATION.items()]
    lazy = [check(rel, parse_term(s1, calc), parse_term(s2, calc),
                  labels=labels) for rel, calc, labels, s1, s2 in queries]
    for rel, calc, labels, s1, s2 in queries:       # other games between
        check(rel, parse_term(s2, calc), parse_term(s2, calc), labels=labels)
    monkeypatch.setattr(equivalence, "GameResult", Eager)
    for r, (rel, calc, labels, s1, s2) in zip(lazy, queries):
        eager = check(rel, parse_term(s1, calc), parse_term(s2, calc),
                      labels=labels)
        assert type(eager) is Eager and eager.verdict is False
        assert r.to_dict() == eager.to_dict(), rel
        assert repr(r).partition("(")[2] == repr(eager).partition("(")[2]


def test_corpus_checks_build_no_witness(monkeypatch):
    calls = _count_witnesses(monkeypatch)
    corpus = enumerate_terms(CCS, ("a", "b"), count=12)
    refuted = 0
    solve = equivalence._solve

    def counting(*args):
        nonlocal refuted
        r = solve(*args)
        refuted += not r.verdict
        return r

    monkeypatch.setattr(equivalence, "_solve", counting)
    outcome = check_coincidence(CCS, term_pairs(corpus, 16), max_pairs=4000)
    assert outcome.total and refuted > 0
    outcome = check_endpoints(CCS, term_pairs(corpus, 30), max_pairs=2000)
    assert outcome.total == 30 and not outcome.failures
    assert calls == []


def test_dead_first_attack_erases_only_its_target(monkeypatch):
    """A pair that dies on its first attack erases only that attack's
    target: its answers are none, and the other attacks are never
    reached."""
    p = parse_term("n[out m.0] | j[0]", MA)
    q = parse_term("n[in m.0] | j[0]", MA)
    moves = its_transitions(canonical_term(p))
    assert len(moves) + len(its_transitions(canonical_term(q))) == 10
    erased = []
    erase = equivalence._erased

    def recording(term):
        erased.append(term)
        return erase(term)

    monkeypatch.setattr(equivalence, "_erased", recording)
    r = check("ipo", p, q)
    assert (r.verdict, r.pairs_explored, r.expanded) == (False, 1, 1)
    assert [(step.move, step.reason) for step in r.witness] \
        == [("m[- | @X1]", "no answer")]
    assert erased == [moves[0].target]
