import random

from lbisim.congruence import (_alpha, _canon_node, _normalize,
                               ambient_cap_matches, ambient_matches,
                               canonical_term, canonicalize, cap_matches,
                               equiv, node_key, particle_matches,
                               summand_matches)
from lbisim.corpus import (axiom_closure, bounded_closure,
                           check_axiom_soundness, congruent_shuffle,
                           enumerate_terms, random_term)
from lbisim.syntax import parse_term, print_term
from lbisim.terms import Calculus, Par, Restrict, Term

CCS, ACCS, MA = Calculus.CCS, Calculus.ACCS, Calculus.MA


def canon(text, calc):
    return print_term(canonical_term(parse_term(text, calc)))


def test_units_and_flattening():
    assert canon("0 | (0 + 0) | a.0", CCS) == "a.0"
    assert canon("(a.0 | b.0) | c.0", CCS) == "a.0 | b.0 | c.0"
    assert canon("a.0 + (b.0 + c.0)", CCS) == "a.0 + b.0 + c.0"


def test_commutativity_sorts_components():
    assert canon("b.0 | a.0", CCS) == "a.0 | b.0"
    assert canon("'b | 'a | a.0", ACCS) == "'a | 'b | a.0"
    assert canon("n[0] | open m.0 | m[0]", MA) == "open m.0 | m[0] | n[0]"


def test_vacuous_restriction_pruned():
    assert canon("(nu a) b.0", CCS) == "b.0"
    assert canon("(nu n)(nu k) n[0]", MA) == "(nu f0) f0[0]"


def test_scope_extrusion_hoists_binders():
    assert canon("((nu a) a.0) | b.0", CCS) == "(nu f0) (b.0 | f0.0)"
    assert canon("(nu n)(n[0] | m[0])", MA) == "(nu f0) (f0[0] | m[0])"


def test_binders_hoist_through_ambients_but_not_prefixes():
    assert canon("n[(nu n) n[0]]", MA) == "(nu f0) n[f0[0]]"
    assert canon("open k.(nu n) n[0]", MA) == "(nu f0) open k.f0[0]"
    # CCS prefixes block hoisting: the binder stays under the prefix
    assert canon("a.(nu b) b.0", CCS) == "a.((nu f0) f0.0)"


def test_alpha_invariance():
    assert canon("(nu a) a.b.0", CCS) == canon("(nu c) c.b.0", CCS)
    assert canon("(nu b)(nu a) a.b.0", CCS) == "(nu f0) (nu f1) f0.f1.0"


def test_equiv_examples():
    assert equiv(parse_term("a.0 | (nu b) b.0", CCS),
                 parse_term("(nu c)(c.0 | a.0)", CCS))
    assert not equiv(parse_term("a.0", CCS), parse_term("a.0 + a.0", CCS))
    assert not equiv(parse_term("n[m[0]]", MA), parse_term("m[n[0]]", MA))


def test_node_key_is_a_total_deterministic_order():
    rng = random.Random(3)
    terms = [canonical_term(random_term(CCS, ("a", "b"), rng)).node
             for _ in range(40)]
    once = sorted(terms, key=node_key)
    again = sorted(list(reversed(terms)), key=node_key)
    assert [print_term(Term(CCS, n)) for n in once] \
        == [print_term(Term(CCS, n)) for n in again]


def test_canonicalize_idempotent_random():
    rng = random.Random(17)
    for calc, names in ((CCS, ("a", "b", "c")), (ACCS, ("a", "b", "c")),
                        (MA, ("n", "m", "k"))):
        for i in range(150):
            t = random_term(calc, names, rng, allow_vars=(i % 6 == 0))
            c1 = canonical_term(t)
            assert canonical_term(c1).node == c1.node


def test_congruent_shuffle_is_invisible():
    rng = random.Random(23)
    for calc, names in ((CCS, ("a", "b", "c")), (ACCS, ("a", "b", "c")),
                        (MA, ("n", "m", "k"))):
        for _ in range(100):
            t = random_term(calc, names, rng)
            assert equiv(t, congruent_shuffle(t, rng))


def test_literal_axiom_steps_are_invisible():
    for calc, names in ((CCS, ("a", "b", "c")), (ACCS, ("a", "b", "c")),
                        (MA, ("n", "m", "k"))):
        out = check_axiom_soundness(calc, 15, random.Random(5), names)
        assert out.ok, out.failures[:3]


def test_axiom_closure_reaches_rearrangements():
    pairs = [
        ("a.0 | b.0", "b.0 | a.0 | 0", CCS),
        ("(nu a)(a.0 | b.0)", "b.0 | (nu a) a.0", CCS),
        ("(nu a) b.0", "b.0", CCS),
        ("n[(nu m) m[0]]", "(nu m) n[m[0]]", MA),
        ("(nu n)(nu m)(n[0] | m[0])", "(nu m)(nu n)(m[0] | n[0])", MA),
        ("'a | 'b", "'b | 'a", ACCS),
    ]
    for a, b, calc in pairs:
        t1, t2 = parse_term(a, calc), parse_term(b, calc)
        assert equiv(t1, t2)
        assert axiom_closure(t1, t2, max_terms=30000) is True


def test_bounded_closure_contains_the_start():
    t = parse_term("a.0 | (nu b) b.0", CCS)
    seen = bounded_closure(t, 50)
    assert t.node in seen and len(seen) == 50


def test_decompositions_recompose_to_the_same_term():
    shapes = [
        (parse_term("open n.a[0] | n[m[0]] | (nu k) k[0]", MA), [
            lambda cf: cap_matches(cf, "open"),
            ambient_matches,
            lambda cf: ambient_cap_matches(cf, "in"),
        ]),
        (parse_term("a.b.0 + tau.0 | 'c.0", CCS), [
            lambda cf: summand_matches(cf, "recv"),
            lambda cf: summand_matches(cf, "send"),
        ]),
        (parse_term("'a | a.0 | (nu b) 'b", ACCS), [
            particle_matches,
        ]),
    ]
    for term, generators in shapes:
        cf = canonicalize(term)
        for gen in generators:
            for match in gen(cf):
                assert equiv(match.recompose(), term)


def test_ambient_matches_respect_restriction():
    cf = canonicalize(parse_term("(nu n) n[0] | m[0]", MA))
    names = [m.name for m in ambient_matches(cf)]
    assert names == ["m"]


def test_large_parallel_compositions_stay_tractable():
    # more restricted names than the exhaustive alpha-permutation bound
    body = " | ".join(f"x{i}[0]" for i in range(9))
    nus = "".join(f"(nu x{i})" for i in range(9))
    t = parse_term(nus + "(" + body + ")", MA)
    c1 = canonical_term(t)
    assert canonical_term(c1).node == c1.node
    shuffled = parse_term(nus + "(" + " | ".join(
        f"x{i}[0]" for i in reversed(range(9))) + ")", MA)
    assert equiv(t, shuffled)


def test_canonical_form_keeps_its_node():
    t = parse_term("(nu n)(n[0] | open n.0) | m[0]", MA)
    cf = canonicalize(t)
    assert cf.node is canonical_term(t).node
    assert cf.term == canonical_term(t)
    assert cf.binders == ("f0",) and len(cf.parts) == 3


# Children whose canonical form starts with a binder: a restriction, and
# in MA binders that hoist out of an ambient or a capability prefix.
_BINDER_CHILDREN = {
    CCS: ("(nu c) c.0", "(nu c)(c.0 | 'c.a.0)"),
    ACCS: ("(nu c) 'c", "(nu c)(c.0 | 'c)"),
    MA: ("(nu k) k[0]", "n[(nu k) k[open k.0]]", "open n.(nu k) k[0]"),
}


def test_parallel_composition_matches_the_full_canonicaliser():
    """Composing the children's canonical forms gives the node the full
    normalise-and-rename pass gives, and a child with binders makes the
    composition take that pass."""
    rng = random.Random(11)
    for calc in (CCS, ACCS, MA):
        binder = [parse_term(s, calc).node for s in _BINDER_CHILDREN[calc]]
        corpus = [t.node for t in
                  enumerate_terms(calc, ("a", "b"), count=320, max_depth=3)]
        corpus += binder
        groups = [tuple(rng.choice(corpus) for _ in range(k))
                  for k in (2, 3) for _ in range(300)]
        groups += [(c, rng.choice(corpus)) for c in binder]
        with_binders = 0
        for children in groups:
            node = Par(children)
            if any(isinstance(_canon_node(calc, c), Restrict)
                   for c in children):
                with_binders += 1
            assert _canon_node(calc, node) \
                is _alpha(_normalize(node, calc), {}), \
                print_term(Term(calc, node))
        assert with_binders >= 3, calc
