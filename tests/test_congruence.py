import random
from itertools import count, permutations

import lbisim.congruence as congruence
from lbisim.congruence import (_canon_node, ambient_cap_matches,
                               ambient_matches, canonical_node,
                               canonical_term, canonicalize, cap_matches,
                               components, equiv, node_key,
                               particle_matches, strip_restricts,
                               summand_matches)
from lbisim.corpus import (_respelled, axiom_closure, bounded_closure,
                           check_axiom_soundness, congruent_shuffle,
                           enumerate_terms, random_term)
from lbisim.lts import its_transitions
from lbisim.errors import MalformedTermError
from lbisim.reduction import reducts
from lbisim.syntax import parse_term, print_term
from lbisim.terms import (Amb, Calculus, Cap, Hole, Msg, Nil, Node, Par,
                          Prefix, ProcVar, Recv, Restrict, Send, Sum, Tau,
                          Term, check_node, fresh_name, fresh_names, par,
                          rename_free, restricts)

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
    assert canon("in n.(nu k) k[0]", MA) == "(nu f0) in n.f0[0]"
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
            # canonical_term(c1) would return the marked c1 unread
            assert c1.node is reference_canon(c1.node, calc)


def test_respelling_carries_no_mark():
    """The idempotence check canonicalises `_respelled(c1)`: a congruent
    spelling in which only a chain of prefixes and ambients down to a
    leaf may be marked, so the rest of c1 is computed again."""
    def chain_to_leaf(node):
        while isinstance(node, (Prefix, Amb)):
            node = node.body
        return isinstance(node, (Nil, Msg, ProcVar))

    rng = random.Random(29)
    for calc, names in ((CCS, ("a", "b", "c")), (ACCS, ("a", "b", "c")),
                        (MA, ("n", "m", "k"))):
        for i in range(100):
            c1 = canonical_term(random_term(calc, names, rng,
                                            allow_vars=(i % 6 == 0))).node
            spelling = _respelled(c1, (f"r{j}" for j in count()), {})
            todo = [spelling]
            while todo:
                node = todo.pop()
                assert chain_to_leaf(node) or node.canon is None, \
                    print_term(Term(calc, c1))
                todo.extend(getattr(node, "children", ()))
                todo.extend([node.body] if hasattr(node, "body") else [])
            assert canonical_term(Term(calc, spelling)).node is c1


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
    def whole(cf, selected, rest):
        return Term(cf.calculus, restricts(cf.binders, par(selected, *rest)))

    def taken(cf, rest):
        # the one component a match selects is the one its rest leaves out
        left = list(cf.parts)
        for r in rest:
            left.remove(r)
        (chosen,) = left
        return chosen

    def summand(cf, action, q, rest):
        chosen = taken(cf, rest)
        offered = chosen.children if isinstance(chosen, Sum) else (chosen,)
        assert Prefix(action, q) in offered
        return whole(cf, chosen, rest)

    ma = canonicalize(
        parse_term("open n.a[0] | n[m[0]] | (nu k) k[0] | b[in n.0 | 0]", MA))
    ccs = canonicalize(parse_term("a.b.0 + tau.0 | 'c.0 | (nu d) d.0", CCS))
    accs = canonicalize(parse_term("'a | a.0 | (nu b) 'b", ACCS))
    rebuilt = [
        *(whole(ma, Prefix(Cap("open", n), p1), rest)
          for n, p1, rest in cap_matches(ma, "open")),
        *(whole(ma, Amb(n, p1), rest) for n, p1, rest in ambient_matches(ma)),
        *(whole(ma, Amb(n, par(Prefix(Cap("in", m), p1), *inner)), rest)
          for n, m, p1, inner, rest in ambient_cap_matches(ma, "in")),
        *(summand(ccs, *m) for kind in (Tau, Recv, Send)
          for m in summand_matches(ccs, kind)),
        *(whole(accs, Msg(a), rest) for a, rest in particle_matches(accs)),
    ]
    assert len(rebuilt) == 8
    for t in rebuilt:
        source = {MA: ma, CCS: ccs, ACCS: accs}[t.calculus]
        assert equiv(t, source.term)


def test_ambient_matches_respect_restriction():
    cf = canonicalize(parse_term("(nu n) n[0] | m[0]", MA))
    names = [n for n, _, _ in ambient_matches(cf)]
    assert names == ["m"]


def test_large_parallel_compositions_stay_tractable():
    # a cluster of nine interchangeable binders
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


# --- the canonicaliser against the full pass --------------------------------
#
# `reference_canon` canonicalises in one pass over the whole tree:
# normalise (units, flattening, pruning, hoisting), then give every
# binder cluster the least body over all its binder orders.
# `_canon_node` builds the same node bottom-up, from its children's
# canonical forms, and finds the least order by branch and bound.

def _hoist_out(binders, core, blocked):
    """Rename binders clashing with `blocked` (names of the surrounding
    construct) so the cluster can move outward."""
    out = []
    for b in binders:
        if b in blocked or b in out:
            b2 = fresh_name(set(blocked) | set(out) | set(binders)
                            | core.free)
            core = rename_free(core, {b: b2})
            b = b2
        out.append(b)
    return out, core


def reference_normalize(node, calc):
    match node:
        case Nil() | Hole() | Msg() | ProcVar():
            return node
        case Prefix(action=act, body=b):
            b = reference_normalize(b, calc)
            if calc is MA:
                bs, core = strip_restricts(b)
                if bs:
                    n = act.amb if isinstance(act, Cap) else None
                    blocked = frozenset((n,)) if isinstance(n, str) \
                        else frozenset()
                    bs, core = _hoist_out(bs, core, blocked)
                    return restricts(bs, Prefix(act, core))
            return Prefix(act, b)
        case Amb(name=n, body=b):
            b = reference_normalize(b, calc)
            bs, core = strip_restricts(b)
            if bs:
                blocked = frozenset((n,)) if isinstance(n, str) \
                    else frozenset()
                bs, core = _hoist_out(bs, core, blocked)
                return restricts(bs, Amb(n, core))
            return Amb(n, b)
        case Sum(children=cs):
            flat = []
            for c in cs:
                c = reference_normalize(c, calc)
                if isinstance(c, Sum):
                    flat.extend(c.children)
                elif not isinstance(c, Nil):
                    flat.append(c)
            if not flat:
                return Nil()
            if len(flat) == 1:
                return flat[0]
            return Sum(tuple(flat))
        case Par(children=cs):
            entries = []
            for c in cs:
                bs, core = strip_restricts(reference_normalize(c, calc))
                entries.append((list(bs), core))
            # Move every binder to the front, freshening on clashes with
            # the other children or the binders already collected.
            collected = []
            cores = [core for _, core in entries]
            for i, (bs, _) in enumerate(entries):
                for b in bs:
                    others = set(collected)
                    for j, cj in enumerate(cores):
                        if j != i:
                            others |= cj.free
                    if b in others:
                        b2 = fresh_name(others | cores[i].free)
                        cores[i] = rename_free(cores[i], {b: b2})
                        b = b2
                    collected.append(b)
            parts = []
            for core in cores:
                parts.extend(p for p in components(core)
                             if not isinstance(p, Nil))
            body = par(*parts)
            return restricts([b for b in collected if b in body.free],
                             body)
        case Restrict(name=n, body=b):
            b = reference_normalize(b, calc)
            if n not in b.free:
                return b
            return Restrict(n, b)
    raise TypeError(f"not a node: {node!r}")


def reference_alpha(node, env):
    """The least body over every binder order of each cluster of the
    normalised `node`, by trying them all."""
    if isinstance(node, Restrict):
        names, body = strip_restricts(node)
        fresh = fresh_names({env.get(x, x) for x in node.free}, len(names))
        cands = [reference_alpha(body, {**env, **dict(zip(perm, fresh))})
                 for perm in permutations(names)]
        return restricts(fresh, min(cands, key=node_key))
    match node:
        case Nil() | Hole() | ProcVar():
            return node
        case Msg(channel=a):
            return Msg(env.get(a, a))
        case Prefix(action=act, body=b):
            match act:
                case Recv(channel=a):
                    act = Recv(env.get(a, a))
                case Send(channel=a):
                    act = Send(env.get(a, a))
                case Cap(op=op, amb=str(n)):
                    act = Cap(op, env.get(n, n))
            return Prefix(act, reference_alpha(b, env))
        case Sum(children=cs) | Par(children=cs):
            done = sorted((reference_alpha(c, env) for c in cs),
                          key=node_key)
            return type(node)(tuple(done))
        case Amb(name=n, body=b):
            return Amb(env.get(n, n) if isinstance(n, str) else n,
                       reference_alpha(b, env))
    raise TypeError(f"not a node: {node!r}")


def reference_canon(node, calc):
    return reference_alpha(reference_normalize(node, calc), {})


def _assert_canonical(node, calc):
    assert _canon_node(node) is reference_canon(node, calc), \
        print_term(Term(calc, node))


# Children whose canonical form starts with a binder: a restriction, and
# in MA binders that hoist out of an ambient or a capability prefix.
_BINDER_CHILDREN = {
    CCS: ("(nu c) c.0", "(nu c)(c.0 | 'c.a.0)"),
    ACCS: ("(nu c) 'c", "(nu c)(c.0 | 'c)"),
    MA: ("(nu k) k[0]", "n[(nu k) k[open k.0]]", "open n.(nu k) k[0]"),
}


def test_parallel_composition_matches_the_full_canonicaliser():
    """Composing the children's canonical forms gives the node the full
    normalise-and-rename pass gives, also when children start with
    binders."""
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
            if any(isinstance(_canon_node(c), Restrict)
                   for c in children):
                with_binders += 1
            _assert_canonical(Par(children), calc)
        assert with_binders >= 3, calc


# --- the binder-order search against exhaustive permutation ----------------

def _cluster_sizes(node):
    if isinstance(node, Restrict):
        names, node = strip_restricts(node)
        yield len(names)
    for field in node.__slots__:
        value = getattr(node, field)
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, Node):
                yield from _cluster_sizes(child)


def test_search_matches_permutation_on_the_corpus():
    for calc, names in ((CCS, ("a", "b", "c")), (ACCS, ("a", "b", "c")),
                        (MA, ("n", "m", "k"))):
        rng = random.Random(29)
        terms = [t.node for t in
                 enumerate_terms(calc, names, count=2000, max_depth=4)]
        terms += [random_term(calc, names, rng, max_depth=5).node
                  for _ in range(400)]
        clustered = 0
        for node in terms:
            sizes = list(_cluster_sizes(_canon_node(node)))
            if sizes and 2 <= max(sizes) <= 7:
                clustered += 1
                _assert_canonical(node, calc)
                _assert_canonical(congruent_shuffle(
                    Term(calc, node), rng).node, calc)
        assert clustered >= 20, calc


def _random_ma_cluster(rng, width):
    ks = [f"k{i}" for i in range(width)]
    free = ["n", "m"]

    def proc(depth):
        r = rng.random()
        names = ks + free
        if depth == 0 or r < 0.25:
            return "0"
        if r < 0.5:
            op = rng.choice(("in", "out", "open"))
            return f"{op} {rng.choice(names)}.{proc(depth - 1)}"
        if r < 0.85:
            return f"{rng.choice(names)}[{proc(depth - 1)}]"
        return f"({proc(depth - 1)} | {proc(depth - 1)})"

    comps = [proc(3) for _ in range(rng.randint(width - 1, width + 2))]
    return "".join(f"(nu {k}) " for k in ks) + f"({' | '.join(comps)})"


def _random_graph_cluster(rng, width):
    """Edges x[y[0]] between the binders, as in big-terms' clusters:
    many binders tie in the bounds without being interchangeable."""
    return _cluster_text(*_edges(rng, MA, width))


def test_search_matches_permutation_on_random_ma_clusters():
    rng = random.Random(31)
    for i in range(600):
        width = 7 if i % 60 == 0 else rng.randint(2, 6)
        make = (_random_ma_cluster, _random_graph_cluster)[i % 2]
        _assert_canonical(parse_term(make(rng, width), MA).node, MA)


def _random_nested(rng, calc, outer, free):
    """Clusters nested under prefixes, whose bodies name free f-names:
    the fresh names then skip slots, and reach past f9."""
    def proc(names, depth):
        r = rng.random()
        if depth == 0 or r < 0.2:
            return "0" if calc is CCS or r < 0.1 else f"'{rng.choice(names)}"
        if r < 0.5:
            return f"{rng.choice(names)}.{proc(names, depth - 1)}"
        if r < 0.75:
            return f"({proc(names, depth - 1)} | {proc(names, depth - 1)})"
        inner = [f"d{depth}{i}" for i in range(rng.randint(1, 2))]
        nus = "".join(f"(nu {d})" for d in inner)
        chain = ".".join(free + rng.sample(names + inner, 2))
        return (f"t.{nus}({chain}.0 | {proc(names + inner, depth - 1)})")

    comps = [proc(outer, 4) for _ in range(rng.randint(2, 3))]
    return "".join(f"(nu {o}) " for o in outer) + f"({' | '.join(comps)})"


def test_search_matches_permutation_on_nested_clusters():
    rng = random.Random(37)
    pools = (["f1", "f3"], [f"f{i}" for i in range(10)])
    for calc in (CCS, ACCS):
        for i in range(300):
            free = [f for f in pools[i % 2] if rng.random() < 0.85]
            outer = ["a", "b", "c", "e"][:rng.randint(2, 4)]
            _assert_canonical(parse_term(
                _random_nested(rng, calc, outer, free), calc).node, calc)


def test_inner_clusters_that_skip_past_f9():
    # Each inner cluster avoids f0-f8 and an outer binder, so it takes f9
    # or f10, and "f10" sorts before "f9".  In a bound, where the outer
    # binder is a placeholder, it must take f10 to stay a lower bound.
    chain = ".".join(f"f{i}" for i in range(9))
    text = (f"(nu a)(nu b)(nu c)(t.(nu d)(d.a.0 | {chain}.b.0)"
            f" | t.(nu d)(d.c.0 | {chain}.a.0))")
    _assert_canonical(parse_term(text, CCS).node, CCS)


def _ring(width, chord):
    """big-terms' cluster: a ring of nested ambients, with one chord to
    break its symmetry, beside a free `open n.0`."""
    ks = [f"k{i}" for i in range(1, width + 1)]
    comps = [f"{ks[i]}[{ks[(i + 1) % width]}[0]]" for i in range(width)]
    if chord:
        comps.append(f"{ks[0]}[{ks[2]}[0]]")
    return ks, comps + ["open n.0"]


def test_large_clusters_are_canonical():
    rng = random.Random(41)
    for width, chord in ((8, True), (10, True), (12, True), (10, False)):
        ks, comps = _ring(width, chord)
        text = "".join(f"(nu {k}) " for k in ks) + f"({' | '.join(comps)})"
        form = canonical_term(parse_term(text, MA))
        assert canonical_term(form).node is form.node
        binders, _ = strip_restricts(form.node)
        assert binders == [f"f{i}" for i in range(width)]
        for _ in range(3):
            rng.shuffle(ks)
            rng.shuffle(comps)
            again = "".join(f"(nu {k}) " for k in ks) \
                + f"({' | '.join(comps)})"
            assert canonical_term(parse_term(again, MA)).node is form.node


def test_clusters_past_f9_sort_their_names_as_strings():
    ks, comps = _ring(12, True)
    text = "".join(f"(nu {k}) " for k in ks) + f"({' | '.join(comps)})"
    parts = canonicalize(parse_term(text, MA)).parts
    # the least order gives f0 the chord's foot, then f1 and f10: "f10"
    # sorts before "f2"
    assert [print_term(Term(MA, p)) for p in parts[:5]] == [
        "open n.0", "f0[f1[0]]", "f0[f10[0]]", "f1[f10[0]]", "f10[f11[0]]"]


# --- bottom-up canonicalisation ---------------------------------------------

def _contexts(calc):
    """Each kind of context as a map from node to node: prefix, ambient
    (MA) or sum (CCS, ACCS), parallel beside a binder and beside a free
    f0 (both clash with the node's first fresh name), and a restriction
    chain."""
    if calc is MA:
        return (lambda p: Prefix(Cap("in", "n"), p),
                lambda p: Amb("m", p),
                lambda p: Par((p, Restrict("k", Amb("k", Nil())))),
                lambda p: Par((p, Amb("f0", Nil()))),
                lambda p: restricts(("n", "k", "n"), p))
    return (lambda p: Prefix(Recv("a"), p),
            lambda p: Sum((p if isinstance(p, (Prefix, Sum)) else
                           Prefix(Tau(), p), Prefix(Recv("b"), Nil()))),
            lambda p: Par((p, Restrict("c", Prefix(Recv("c"), Nil())))),
            lambda p: Par((p, Prefix(Recv("f0"), Nil()))),
            lambda p: restricts(("a", "c", "a"), p))


def test_bottom_up_matches_the_full_pass_on_the_corpus():
    for calc, names in ((CCS, ("a", "b", "c")), (ACCS, ("a", "b", "c")),
                        (MA, ("n", "m", "k"))):
        rng = random.Random(43)
        terms = [t.node for t in
                 enumerate_terms(calc, names, count=600, max_depth=4)]
        terms += [random_term(calc, names, rng, max_depth=5).node
                  for _ in range(150)]
        for node in terms:
            _assert_canonical(node, calc)
            for context in _contexts(calc):
                _assert_canonical(context(node), calc)


def _cluster_text(ks, comps):
    return "".join(f"(nu {k}) " for k in ks) + f"({' | '.join(comps)})"


def test_bottom_up_matches_the_full_pass_on_ma_clusters():
    # big-terms' shapes: rings with a chord, and bare replicas
    shapes = [_ring(w, w > 2) for w in range(1, 8)]
    for w in (4, 8):
        ks = [f"k{i}" for i in range(1, w + 1)]
        shapes.append((ks, [f"{k}[0]" for k in ks] + ["open n.0"]))
    for ks, comps in shapes:
        node = parse_term(_cluster_text(ks, comps), MA).node
        for context in (lambda p: p, lambda p: Amb("n", p),
                        lambda p: Prefix(Cap("in", "n"), p)):
            _assert_canonical(context(node), MA)


def test_contexts_named_like_a_fresh_name():
    # The cluster cannot be lifted through a context whose name is one
    # of its fresh names; the binder is renamed and the search runs.
    assert canon("f0[(nu k) k[0]]", MA) == "(nu f1) f0[f1[0]]"
    frees = " | ".join(f"f{i}[0]" for i in range(10))
    for text in ("f0[(nu k) k[0]]", "in f1.(nu k)(nu j) k[j[0]]",
                 "open f0.(nu k)(nu j)(k[j[0]] | f1[0])",
                 f"f10[(nu k)(k[0] | {frees})]",
                 f"out f11.(nu k)(nu j)(k[j[0]] | {frees})",
                 f"f10[f11[(nu k)(nu j) k[j[f0[0]]] | {frees}]]"):
        _assert_canonical(parse_term(text, MA).node, MA)


def test_bottom_up_matches_the_full_pass_on_nested_clusters():
    rng = random.Random(47)
    pools = (["f1", "f3"], [f"f{i}" for i in range(10)])
    for calc in (CCS, ACCS):
        for i in range(100):
            free = [f for f in pools[i % 2] if rng.random() < 0.85]
            outer = ["a", "b", "c", "e"][:rng.randint(2, 4)]
            node = parse_term(_random_nested(rng, calc, outer, free),
                              calc).node
            for context in _contexts(calc):
                _assert_canonical(context(node), calc)


def test_one_binder_search_per_cluster(monkeypatch):
    """A cluster under k capabilities or k ambients is searched once,
    then lifted through each of them."""
    searches = []
    alpha = congruence._alpha

    def counting(node, env):
        if isinstance(node, Restrict):
            searches.append(node)
        return alpha(node, env)

    monkeypatch.setattr(congruence, "_alpha", counting)
    ring = parse_term(_cluster_text(*_ring(4, True)), MA).node
    for k in (0, 1, 2, 8, 40):
        for wrap in (lambda p: Prefix(Cap("in", "a"), p),
                     lambda p: Amb("m", p)):
            node = ring
            for _ in range(k):
                node = wrap(node)
            _canon_node.cache_clear()
            searches.clear()
            form = _canon_node(node)
            assert len(searches) == 1, (k, len(searches))
            assert strip_restricts(form)[0] == ["f0", "f1", "f2", "f3"]
    # The whole pipeline searches the cluster once: `reducts` finds its
    # canonical input marked, and the Open target (nu F)(C | @X1) looks
    # up the marked (nu F) C, setting @X1 aside.
    _canon_node.cache_clear()
    searches.clear()
    form = canonical_term(parse_term(_cluster_text(*_ring(8, True)), MA))
    assert reducts(form) == ()
    (move,) = its_transitions(form)
    assert move.rule == "Open" and len(searches) == 1, len(searches)
    binders, core = strip_restricts(move.target.node)
    assert binders == [f"f{i}" for i in range(8)]
    assert ProcVar("X1") in components(core)
    # A set-aside component free in the part's fresh names sends the
    # cluster to the whole search at once, without searching the part.
    _canon_node.cache_clear()
    searches.clear()
    ks, comps = _ring(8, True)
    text = _cluster_text(ks, comps[:-1] + ["f3[0]"])
    form = canonical_term(parse_term(text, MA))
    assert len(searches) == 1, len(searches)
    assert strip_restricts(form.node)[0] == [
        f"f{i}" for i in range(9) if i != 3]


def test_a_canonical_chain_is_recognised_at_every_level(monkeypatch):
    """Each level of a walked chain is marked canonical, so looking up
    a level's body walks nothing, even with the cache cleared."""
    node = Nil()
    for i in range(790):
        node = Prefix(Recv("a") if i % 3 else Send("b"), node)
    chain = canonical_term(Term(CCS, node)).node
    assert chain is node
    calls = []
    enclose = congruence._enclose
    monkeypatch.setattr(congruence, "_enclose",
                        lambda *args: calls.append(1) or enclose(*args))
    _canon_node.cache_clear()
    level = chain
    while isinstance(level, Prefix):
        assert _canon_node(level.body) is level.body
        level = level.body
    assert calls == []


# --- one structural congruence for every calculus ---------------------------

def test_one_node_has_one_canonical_form_in_every_calculus():
    """Canonicalising does not read the calculus: a node that CCS and
    ACCS both admit has one canonical form, the one the calculus-aware
    full pass gives under either, and it is marked True."""
    nodes = []
    for t in enumerate_terms(CCS, ("a", "b"), count=300):
        nodes.append(t.node)
        for tr in its_transitions(t):
            nodes += (tr.label.body, tr.target.node)
    shared = 0
    for node in nodes:
        try:
            check_node(ACCS, node, allow_hole=True)
        except MalformedTermError:
            continue
        shared += 1
        form = canonical_node(Term(CCS, node))
        assert canonical_node(Term(ACCS, node)) is form
        assert form is reference_canon(node, CCS) \
            is reference_canon(node, ACCS)
        assert form.canon is True, print_term(Term(CCS, node))
    assert shared >= 300, shared


def test_a_node_is_canonicalised_once_for_every_calculus():
    node = parse_term("u29.0 | (nu a)(a.0 | tau.0) | 0", CCS).node
    misses = _canon_node.cache_info().misses
    form = canonical_node(Term(CCS, node))
    assert _canon_node.cache_info().misses > misses
    misses = _canon_node.cache_info().misses
    assert canonical_node(Term(ACCS, node)) is form
    assert _canon_node.cache_info().misses == misses


# Components that name no binder of a cluster, set aside by the search;
# those named f0-f7 are free in the cluster's fresh names, so the search
# falls back to the whole body.
_ASIDE = {
    CCS: ("a.0", "'b.a.0", "f0.0", "'f2.0", "f7.b.0"),
    ACCS: ("'a", "a.'b", "f0.0", "'f1", "f5.'a"),
    MA: ("open n.0", "m[0]", "f0[0]", "in f3.0", "m[f7[0]]"),
}


_EDGE = {CCS: "{}.'{}.0", ACCS: "{}.'{}", MA: "{}[{}[0]]"}


def _edges(rng, calc, width):
    """The binders of a random cluster and one component per edge
    between two of them: x[y[0]] in MA, prefixes in CCS and ACCS."""
    ks = [f"k{i}" for i in range(width)]
    return ks, [_EDGE[calc].format(rng.choice(ks), rng.choice(ks))
                for _ in range(rng.randint(width - 1, width + 1))]


def test_split_search_matches_the_full_pass():
    """A cluster of three or more binders is searched over the
    components that name them; the others are merged back in, unless
    one is free in the fresh names."""
    rng = random.Random(53)
    for calc in (CCS, ACCS, MA):
        widths = [7] + [3, 4, 5, 6] * 4
        if calc is MA:
            widths = [8] + widths
        for i, width in enumerate(widths):
            if calc is MA and i % 2 == 0:
                ks, comps = _ring(width, True)
                comps = comps[:-1]          # drop its `open n.0`
            else:
                ks, comps = _edges(rng, calc, width)
            comps += rng.sample(_ASIDE[calc], rng.randint(1, 3))
            rng.shuffle(comps)
            node = parse_term(_cluster_text(ks, comps), calc).node
            # The full pass tries every binder order, and a context may
            # add a binder: the widest clusters go bare.
            contexts = _contexts(calc) if width < 7 else ()
            for context in (lambda p: p, *contexts):
                _assert_canonical(context(node), calc)
