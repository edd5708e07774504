"""Acceptance suite: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Every criterion is checked at its stated size and
tolerance; corpora are enumerated deterministically and the random
checks are seeded.
"""

import random
import time

import pytest

from lbisim import (
    Calculus,
    canonical_term,
    check,
    parse_label,
    parse_term,
    plug,
    print_term,
    reduct_terms,
    ALL,
    EMPTY,
    LA,
    LabelSet,
)
from lbisim import equivalence
from lbisim.corpus import (
    _LAWS,
    check_barb_capturing,
    check_coincidence,
    check_congruence,
    check_endpoints,
    check_idempotence,
    check_lts_correspondence,
    check_pred,
    check_reducts_invariance,
    check_roundtrip,
    enumerate_terms,
    term_pairs,
)
from lbisim.equivalence import OWN_LABEL_SETS
from lbisim.terms import (
    Amb, Hole, Msg, Nil, Par, Prefix, ProcVar, Restrict, Sum,
)

CCS = Calculus.CCS
ACCS = Calculus.ACCS
MA = Calculus.MA

# the game budget of every corpus check here, the corpus suite's default
_MAX_PAIRS = 4000


def depth(node) -> int:
    match node:
        case Nil() | Msg() | ProcVar() | Hole():
            return 0
        case Prefix(body=b) | Restrict(body=b) | Amb(body=b):
            return 1 + depth(b)
        case Par(children=cs) | Sum(children=cs):
            return 1 + max(depth(c) for c in cs)
    raise TypeError(f"not a node: {node!r}")


@pytest.fixture(scope="module")
def corpora():
    return {calc: enumerate_terms(calc, ("a", "b"), count=320, max_depth=3)
            for calc in (CCS, ACCS, MA)}


@pytest.fixture(scope="module")
def pair_sets(corpora):
    return {CCS: term_pairs(corpora[CCS], 500),
            ACCS: term_pairs(corpora[ACCS], 500),
            MA: term_pairs(corpora[MA], 200)}


def test_criterion_01_flagship_async_pair_within_budget():
    p = parse_term("a.'a + tau.0", ACCS)
    q = parse_term("tau.0", ACCS)
    start = time.perf_counter()
    assert check("async", p, q).verdict is True
    assert check("l-bisim", p, q, labels=LA).verdict is True
    r = check("ipo", p, q)
    elapsed = time.perf_counter() - start
    assert r.verdict is False
    assert any(m.kind == "move" and m.move == "- | 'a" for m in r.witness)
    assert elapsed < 1.0


_AXIOMS = [
    ("n[in m.u[0]] | m[v[0]]", "m[n[u[0]] | v[0]]"),
    ("m[n[out m.u[0]] | v[0]]", "n[u[0]] | m[v[0]]"),
    ("open n.u[0] | n[v[0]]", "u[0] | v[0]"),
]

_CLOSURE_CONTEXTS = [
    "(nu z) -", "(nu w) -", "(nu z) (nu w) -",
    "w[-]", "z[-]", "w[z[-]]", "(nu z) z[-]", "(nu z) w[-]",
    "- | w[0]", "- | z[0]", "- | w[z[0]]", "- | open w.0",
    "- | in w.0", "- | out w.0", "w[- | z[0]]", "z[- | w[0]]",
    "(nu z) (- | z[0])", "(nu w) w[- | z[0]]", "w[-] | z[0]",
    "(nu z) z[- | w[0]]",
]


def test_criterion_02_ma_reduction_axioms_bit_exact():
    assert len(_CLOSURE_CONTEXTS) == 20
    for lhs_src, rhs_src in _AXIOMS:
        lhs = parse_term(lhs_src, MA)
        rhs = canonical_term(parse_term(rhs_src, MA))
        # the bare axiom has exactly this one reduct
        assert [print_term(t) for t in reduct_terms(lhs)] \
            == [print_term(rhs)]
        for ctx_src in _CLOSURE_CONTEXTS:
            ctx = parse_label(ctx_src, MA)
            want = canonical_term(plug(ctx, rhs))
            got = reduct_terms(plug(ctx, lhs))
            assert any(t.node == want.node for t in got), (lhs_src, ctx_src)


def test_criterion_03_ccs_correspondence(corpora):
    corpus = corpora[CCS]
    assert len(corpus) >= 300
    assert all(depth(t.node) <= 3 for t in corpus)
    r = check_lts_correspondence(CCS, corpus)
    assert r.total == len(corpus) and not r.failures


def test_criterion_04_accs_correspondence(corpora):
    corpus = corpora[ACCS]
    assert len(corpus) >= 300
    assert all(depth(t.node) <= 3 for t in corpus)
    r = check_lts_correspondence(ACCS, corpus)
    assert r.total == len(corpus) and not r.failures


def test_criterion_05_coincidence_theorems(pair_sets):
    r = check_coincidence(CCS, pair_sets[CCS], max_pairs=_MAX_PAIRS)
    assert r.name == "coincidence-strong-lccs"
    assert r.total == 500 and not r.failures
    r = check_coincidence(ACCS, pair_sets[ACCS], max_pairs=_MAX_PAIRS)
    assert r.name == "coincidence-async-la"
    assert r.total == 500 and not r.failures


def test_criterion_06_lm_barb_capturing(corpora):
    corpus = corpora[MA]
    assert len(corpus) >= 300
    r = check_barb_capturing(corpus)
    assert r.total == len(corpus) and not r.failures


def test_criterion_07_predicates_match_transitions(corpora):
    ma_t1 = [parse_term(s, MA) for s in ("0", "k[0]")]
    r = check_pred(MA, corpora[MA], ma_t1)
    assert r.total == len(corpora[MA]) and not r.failures
    ccs_t1 = [parse_term(s, CCS) for s in ("0", "c.0")]
    r = check_pred(CCS, corpora[CCS], ccs_t1)
    assert r.total == len(corpora[CCS]) and not r.failures


# The flagship pair, bare and in parallel contexts: IPO tells the sides
# apart, LA and semi-saturated bisimilarity do not.
_SEPARATING = [("a.'a + tau.0" + ctx, "tau.0" + ctx)
               for ctx in ("", " | 'b", " | b.0 | 'c")]


def _separating_pairs():
    return [(parse_term(p, ACCS), parse_term(q, ACCS))
            for p, q in _SEPARATING]


def test_criterion_08_endpoint_identities(pair_sets):
    for calc, pairs in pair_sets.items():
        r = check_endpoints(calc, pairs, max_pairs=_MAX_PAIRS)
        assert r.total == len(pairs) and not r.failures, calc
    pairs = _separating_pairs()
    for p, q in pairs:
        verdicts = tuple(check("l-bisim", p, q, labels=labels).verdict
                         for labels in (ALL, LA, EMPTY))
        assert verdicts == (False, True, True), print_term(p)
    r = check_endpoints(ACCS, pairs, max_pairs=_MAX_PAIRS)
    assert r.total == len(pairs) and not r.failures


def test_criterion_08_fails_when_empty_plays_as_all(monkeypatch):
    contains = LabelSet.contains
    monkeypatch.setattr(
        LabelSet, "contains",
        lambda self, label: self is EMPTY or contains(self, label))
    r = check_endpoints(ACCS, _separating_pairs(), max_pairs=_MAX_PAIRS)
    assert len(r.failures) == len(_SEPARATING)
    assert all(f.endswith("(LA but not EMPTY)") for f in r.failures)


def test_criterion_09_congruence_sampling():
    total = 0
    for calc, triples in ((MA, 67), (ACCS, 67), (CCS, 66)):
        r = check_congruence(calc, triples, max_pairs=_MAX_PAIRS)
        assert r.total == triples and not r.failures, calc
        total += r.total
    assert total == 200


@pytest.mark.parametrize("calc", [CCS, ACCS, MA])
def test_congruence_laws_relate_distinct_canonical_forms(calc):
    for p_text, q_text in _LAWS[calc]:
        p, q = parse_term(p_text, calc), parse_term(q_text, calc)
        assert canonical_term(p).node != canonical_term(q).node, p_text
        assert check("l-bisim", p, q,
                     labels=OWN_LABEL_SETS[calc]).verdict is True, p_text


def test_congruence_games_play_moves(monkeypatch):
    """A plugged law is not accepted at the root for having one canonical
    form: every CCS and ACCS game expands a pair, and so do at least 20
    of the 60 MA games.  The other MA games strip their common context
    down to an inert firewall, which is alive without a move."""
    played = []
    solve = equivalence._solve

    def recording(*args):
        r = solve(*args)
        played.append(r.expanded > 0)
        return r

    monkeypatch.setattr(equivalence, "_solve", recording)
    for calc, least in ((CCS, 60), (ACCS, 60), (MA, 20)):
        played.clear()
        r = check_congruence(calc, 60, max_pairs=_MAX_PAIRS)
        assert r.total == 60 and not r.failures, calc
        assert len(played) == 60 and sum(played) >= least, (calc, played)


def test_criterion_10_infrastructure_properties():
    rng = random.Random(10)
    sizes = ((CCS, 3400), (ACCS, 3300), (MA, 3300))
    assert sum(n for _, n in sizes) == 10_000
    for calc, n in sizes:
        r = check_idempotence(calc, n, rng, ("a", "b", "c"))
        assert r.total == n and not r.failures, calc
        r = check_roundtrip(calc, n, rng, ("a", "b", "c"))
        assert r.total == n and not r.failures, calc
    splits = ((CCS, 334), (ACCS, 333), (MA, 333))
    assert sum(n for _, n in splits) == 1_000
    for calc, n in splits:
        r = check_reducts_invariance(calc, n, rng, ("a", "b", "c"))
        assert r.total == n and not r.failures, calc
