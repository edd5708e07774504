"""Game pairs up to their common context.

A pair's residual is what is left of its two states once their largest
common evaluation context is stripped; the game keeps a pair alive when
its residual is.  The game whose residual is the identity plays every
pair in full and serves as the oracle: both must give the same verdict
wherever the full game terminates.
"""

import gc

import pytest

from lbisim import (
    ALL, EMPTY, LCCS, LM, Amb, Calculus, DivergenceBudgetExceededError,
    Term, barbs, canonical_term, check, enumerate_terms, its_transitions,
    parse_label, parse_term, pattern_label_set, print_term, reduct_terms,
    term_pairs, verify_witness,
)
from lbisim.equivalence import (
    OWN_LABEL_SETS, _AsyncGame, _game, _inert, _no_residual, _OrdinaryGame,
    _solve, _strip_context, _SymbolicGame,
)
from lbisim.terms import par

CCS = Calculus.CCS
ACCS = Calculus.ACCS
MA = Calculus.MA


def _residual(calc, s1, s2):
    p = canonical_term(parse_term(s1, calc))
    q = canonical_term(parse_term(s2, calc))
    rp, rq = _strip_context(p, q)
    return print_term(rp), print_term(rq)


def _canonical(calc, s):
    return print_term(canonical_term(parse_term(s, calc)))


@pytest.mark.parametrize("calc,s1,s2,want", [
    # shared parallel components go, whatever their order
    (CCS, "a.b.0 | 'a.0 | 'b.0 | c.0", "'b.0 | a.b.0 | 'a.0 | c.0 + c.0",
     ("c.0", "c.0 + c.0")),
    (CCS, "a.0 | a.0 | b.0", "a.0 | b.0 | b.0", ("a.0", "b.0")),
    (ACCS, "'b | a.'a + tau.0", "tau.0 | 'b", ("a.'a + tau.0", "tau.0")),
    # a shared top ambient goes, and the binders move inside it
    (MA, "m[(nu k) k[0]]", "m[0]", ("(nu f0) f0[0]", "0")),
    (MA, "m[in n.0]", "m[in n.0] | (nu k) k[0]", ("0", "(nu f0) f0[0]")),
    (MA, "n[a[0] | @V1] | @V2", "n[(nu k) k[0] | a[0] | @V1] | @V2",
     ("0", "(nu f0) f0[0]")),
    (MA, "?v1[b[0]]", "?v1[c[0]]", ("b[0]", "c[0]")),
    (MA, "m[a[0] | c[0]]", "m[b[0] | c[0]]", ("a[0]", "b[0]")),
    # nothing under a prefix, and no component that names a binder
    (CCS, "a.(b.0 | c.0)", "a.(b.0 | d.0)", ("a.(b.0 | c.0)",
                                             "a.(b.0 | d.0)")),
    (MA, "(nu k) (k[0] | a[k[0]])", "(nu k) (k[0] | b[k[0]])",
     ("(nu f0) (a[f0[0]] | f0[0])", "(nu f0) (b[f0[0]] | f0[0])")),
    (MA, "(nu k) (k[0] | c[0] | a[0])", "(nu k) (k[0] | c[0] | b[0])",
     ("(nu f0) (a[0] | f0[0])", "(nu f0) (b[0] | f0[0])")),
    # a shared process variable is a component like any other
    (CCS, "a.0 | @V1", "b.0 | @V1", ("a.0", "b.0")),
    (MA, "@V1 | m[a[0] | @V2]", "@V1 | m[b[0] | @V2]", ("a[0]", "b[0]")),
    # only one side has the ambient, or the ambients' names differ
    (MA, "m[a[0]]", "m[a[0]] | b[0]", ("0", "b[0]")),
    (MA, "m[a[0]]", "n[a[0]]", ("m[a[0]]", "n[a[0]]")),
    # a dropped free name lets the binder take a smaller name
    (MA, "f0[0] | c[0] | (nu k) k[0]", "f0[0] | c[0]",
     ("(nu f0) f0[0]", "0")),
])
def test_residual_strips_the_common_context(calc, s1, s2, want):
    got = _residual(calc, s1, s2)
    assert got == tuple(_canonical(calc, s) for s in want)
    assert _residual(calc, *want) == got  # stripping again changes nothing


@pytest.mark.parametrize("calc,text,inert", [
    (MA, "(nu k) k[0]", True), (MA, "(nu k) k[a[0]]", True),
    (MA, "0", True), (MA, "(nu k) (k[0] | k[0])", True),
    (MA, "(nu k) k[in n.0]", False), (MA, "(nu k) k[open k.0]", False),
    (MA, "n[0]", False), (MA, "?v1[0]", False), (MA, "@V1 | in n.0", False),
    (CCS, "(nu a) a.0", False),
    (ACCS, "'a", False),
])
def test_inert_states(calc, text, inert):
    assert _inert(canonical_term(parse_term(text, calc)).node) is inert


@pytest.mark.parametrize("calc", [CCS, ACCS, MA])
def test_inert_states_have_no_move(calc, corpora):
    inert = 0
    for t in corpora[calc]:
        t = canonical_term(t)
        if _inert(t.node):
            inert += 1
            assert not its_transitions(t) and not reduct_terms(t) \
                and not barbs(t), print_term(t)
    assert inert >= 1


def test_residual_is_the_pair_when_nothing_is_shared():
    p = canonical_term(parse_term("a.0 | b.0", CCS))
    q = canonical_term(parse_term("a.b.0 + b.a.0", CCS))
    rp, rq = _strip_context(p, q)
    assert rp is p and rq is q


@pytest.fixture(scope="module")
def corpora():
    return {calc: enumerate_terms(calc, ("a", "b"), count=320, max_depth=3)
            for calc in (CCS, ACCS, MA)}


_CONTEXT_TERMS = 8


def _variants(calc, corpus, pairs):
    """The pairs, the pairs in a shared `- | R`, and for MA in
    `m[- | R]`, R running over the smallest corpus terms after 0."""
    out = list(pairs)
    for i, (p, q) in enumerate(pairs):
        r = corpus[1 + i % _CONTEXT_TERMS].node
        out.append((Term(calc, par(p.node, r)), Term(calc, par(q.node, r))))
        if calc is MA:
            out.append((Term(calc, Amb("m", par(p.node, r))),
                        Term(calc, Amb("m", par(q.node, r)))))
    return out


@pytest.mark.parametrize("calc", [CCS, ACCS, MA])
def test_residuals_are_canonical(calc, corpora):
    pairs = term_pairs(corpora[calc], 200)
    stripped = 0
    for p, q in _variants(calc, corpora[calc], pairs):
        p, q = canonical_term(p), canonical_term(q)
        rp, rq = _strip_context(p, q)
        assert rp == canonical_term(rp) and rq == canonical_term(rq)
        stripped += (rp, rq) != (p, q)
    assert stripped >= len(pairs)


# --- the full game as the oracle ---------------------------------------------

class _PlainSymbolic(_SymbolicGame):
    residual = _no_residual


class _PlainOrdinary(_OrdinaryGame):
    residual = _no_residual


class _PlainAsync(_AsyncGame):
    residual = _no_residual


_SIZES = {CCS: 500, ACCS: 500, MA: 200}
# A deterministic share of each criterion pair set keeps this test to a
# few seconds: MA games in contexts often run to the budget.
_STRIDE = {CCS: 2, ACCS: 2, MA: 4}
_BUDGET = 1500


def _games(calc):
    """(name, full game, up-to game, verify_witness arguments)."""
    out = [(ls.name, lambda ls=ls: _PlainSymbolic(calc, ls, False),
            lambda ls=ls: _SymbolicGame(calc, ls, False),
            ("l-bisim", ls))
           for ls in (ALL, OWN_LABEL_SETS[calc], EMPTY)]
    if calc is not MA:
        out.append(("strong", lambda: _PlainOrdinary(calc),
                    lambda: _OrdinaryGame(calc), ("strong", None)))
    if calc is ACCS:
        out.append(("async", lambda: _PlainAsync(calc),
                    lambda: _AsyncGame(calc), ("async", None)))
    return out


@pytest.mark.parametrize("calc", [CCS, ACCS, MA])
def test_upto_game_agrees_with_the_full_game(calc, corpora):
    corpus = corpora[calc]
    pairs = term_pairs(corpus, _SIZES[calc])[::_STRIDE[calc]]
    agreed = 0
    for p, q in _variants(calc, corpus, pairs):
        for name, full, upto, (rel, labels) in _games(calc):
            try:
                want = _solve(full(), p, q, _BUDGET)
            except DivergenceBudgetExceededError:
                continue
            got = _solve(upto(), p, q, _BUDGET)
            assert got.verdict is want.verdict, \
                (name, print_term(p), print_term(q))
            if not got.verdict:
                assert verify_witness(p, q, got, rel, labels=labels), \
                    (name, print_term(p), print_term(q))
            agreed += 1
    assert agreed >= len(pairs) * (3 if calc is MA else 6)


def test_residual_is_the_pair_without_a_stated_argument():
    p = canonical_term(parse_term("a.0 | b.0", CCS))
    q = canonical_term(parse_term("a.0 | b.0 + b.0", CCS))
    onlya = pattern_label_set("onlya", [parse_label("- | a.@X1", CCS)])
    for game in (_SymbolicGame(CCS, onlya, False),
                 _SymbolicGame(CCS, LM, False),
                 _game("semi-sat", CCS, p, q, None,
                       [parse_term("0", CCS)])):
        assert game.residual(p, q) == (p, q)
    stripped = tuple(canonical_term(parse_term(s, CCS))
                     for s in ("b.0", "b.0 + b.0"))
    for game in (_SymbolicGame(CCS, LCCS, False),
                 _SymbolicGame(CCS, ALL, False), _OrdinaryGame(CCS)):
        assert game.residual(p, q) == stripped


def test_pairs_alive_through_their_residual_are_counted():
    p, q = parse_term("m[(nu k) k[0]]", MA), parse_term("m[0]", MA)
    r = check("l-bisim", p, q, labels=ALL)
    assert r.verdict is True and r.residuals == 1
    assert r.to_dict()["stats"]["residuals"] == 1
    # strong bisimilarity drops the shared a.0 as well
    p = parse_term("a.0 | b.0 + b.0", CCS)
    q = parse_term("a.0 | b.0", CCS)
    r = check("strong", p, q)
    assert r.verdict is True and r.residuals == 1


def test_dead_residual_guides_the_pair_by_its_own_names():
    """The residual ?v2[a[0]] / (nu k)(?v2[b[0]] | k[0]) names ?v2 by its
    first class name, the pair by its second (?v1 takes the first): the
    residual's failing attack - | open ?v2.@X1 is followed in the pair
    once renamed back to the pair's names."""
    p = parse_term("?v1[0] | ?v2[a[0]]", MA)
    q = parse_term("?v1[0] | ?v2[b[0]] | (nu k) k[0]", MA)
    r = _solve(_SymbolicGame(MA, EMPTY, False), p, q, 100)
    assert r.verdict is False
    assert (r.pairs_explored, r.expanded, r.rounds) == (8, 4, 5)
    # the witness calls the root's variables by the names they were
    # given; opening ?v1 leads to the residual itself, erased
    assert [step.move for step in r.witness] \
        == ["- | open ?v1.@X1", "- | open ?v2.@X1", "- | open a.@X1"]
    assert r.witness[1].pair == ("?v2[a[0]]", "(nu f0) (f0[0] | ?v2[b[0]])")


def test_games_leave_no_reference_cycles():
    """A game's pairs are freed by reference counting when it returns."""
    games = [(MA, "in n.0", "in n.(nu k) k[0]", ALL),
             (MA, "m[in n.a[0]]", "m[in n.b[0]]", EMPTY),
             (CCS, "a.0 | b.0 + b.0", "a.0 | b.0", LCCS)]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for calc, s1, s2, labels in games:
            check("l-bisim", parse_term(s1, calc), parse_term(s2, calc),
                  labels=labels)
        check("strong", parse_term("a.0 | b.0", CCS), parse_term("a.0", CCS))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
