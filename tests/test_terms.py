import copy
import gc
import hashlib
import pickle
import random

import pytest

from lbisim import terms
from lbisim.congruence import canonical_term
from lbisim.corpus import enumerate_terms, random_term
from lbisim.lts import its_transitions
from lbisim.reduction import reduct_terms
from lbisim.errors import (CrossCalculusError, IncompleteSubstitutionError,
                           MalformedTermError)
from lbisim.syntax import parse_label, parse_term, print_term
from lbisim.terms import (
    Amb, Calculus, Cap, Hole, Msg, NameVar, Nil, Node, Par, Prefix, ProcVar,
    Recv, Restrict, Send, Substitution, Sum, Tau, Term, apply_subst,
    check_node, close_label, free_names, fresh_name, fresh_names, make_label,
    par, plug, rename_free, same_calculus,
)

CCS, ACCS, MA = Calculus.CCS, Calculus.ACCS, Calculus.MA


def test_free_names_binders():
    t = parse_term("(nu a)(a.b.0 | 'a.0)", CCS)
    assert free_names(t.node) == {"b"}
    t = parse_term("n[(nu m) in m.out k.0]", MA)
    assert free_names(t.node) == {"n", "k"}


def test_free_names_name_variables_do_not_count():
    node = Amb(NameVar("x"), Prefix(Cap("in", "m"), Nil()))
    assert free_names(node) == {"m"}


def test_fresh_name_picks_first_gap():
    assert fresh_name({"a", "b"}) == "f0"
    assert fresh_name({"f0", "f2"}) == "f1"
    assert fresh_names({"f0"}, 2) == ["f1", "f2"]


def test_check_node_rejects_unguarded_sum():
    bad = Sum((Par((Nil(), Nil())), Prefix(Tau(), Nil())))
    with pytest.raises(MalformedTermError):
        check_node(CCS, bad)


def test_check_node_calculus_restrictions():
    with pytest.raises(MalformedTermError):
        check_node(CCS, Msg("a"))            # particles are ACCS-only
    with pytest.raises(MalformedTermError):
        check_node(ACCS, Prefix(Send("a"), Nil()))  # output prefix is CCS
    with pytest.raises(MalformedTermError):
        check_node(MA, Prefix(Tau(), Nil()))
    with pytest.raises(MalformedTermError):
        check_node(MA, Sum((Prefix(Cap("in", "n"), Nil()),) * 2))
    with pytest.raises(MalformedTermError):
        check_node(CCS, Amb("n", Nil()))
    # and the allowed shapes go through
    check_node(MA, Amb("n", Prefix(Cap("open", "m"), Nil())))
    check_node(ACCS, Par((Msg("a"), Prefix(Recv("a"), Nil()))))


def test_check_node_walks_deep_trees_without_recursing():
    node = Nil()
    for _ in range(3000):
        node = Prefix(Recv("a"), node)
    check_node(CCS, node)
    with pytest.raises(MalformedTermError, match="channel prefixes"):
        check_node(MA, node)
    deep_particle = node
    for _ in range(3000):
        deep_particle = Prefix(Recv("a"), Par((deep_particle, Msg("a"))))
    with pytest.raises(MalformedTermError, match="output particles"):
        check_node(CCS, deep_particle)


def test_check_node_refuses_one_summand_sums_and_stray_holes():
    with pytest.raises(MalformedTermError, match="two summands"):
        check_node(CCS, Sum((Prefix(Tau(), Nil()),)))
    with pytest.raises(MalformedTermError, match="label syntax"):
        check_node(CCS, Par((Hole(), Nil())))
    check_node(CCS, Par((Hole(), Nil())), allow_hole=True)


def test_duplicate_variables_rejected():
    with pytest.raises(MalformedTermError):
        check_node(MA, Par((ProcVar("X"), ProcVar("X"))), allow_hole=True)


def test_rename_free_respects_shadowing():
    recv_a = Prefix(Recv("a"), Nil())
    t = Par((Restrict("a", recv_a), recv_a))
    out = rename_free(t, {"a": "c"})
    assert print_term(Term(CCS, out)) == "((nu a) a.0) | c.0"


def test_rename_free_avoids_capture():
    t = parse_term("(nu c)(a.c.0)", CCS)
    out = Term(CCS, rename_free(t.node, {"a": "c"}))
    # the binder c must move out of the way before a becomes c
    assert print_term(out) == "(nu f0) c.f0.0"
    assert free_names(out.node) == {"c"}


def _pinned(term, printed, free, canonical):
    """`term` prints as `printed`, has exactly the free names `free` (none
    captured) and the canonical form `canonical`."""
    assert print_term(term) == printed
    assert free_names(term.node) == free
    assert print_term(canonical_term(term)) == canonical


def test_rename_free_renames_a_colliding_binder_under_a_renamed_one():
    # f1 collides and becomes f3; the inner f2 collides with a's target
    # and takes the next name outside every name and target in play
    t = parse_term("b.((nu f1) a.(nu f2) f0.f2.0)", CCS)
    out = Term(CCS, rename_free(t.node, {"f0": "f1", "a": "f2"}))
    _pinned(out, "b.((nu f3) f2.((nu f4) f1.f4.0))", {"b", "f1", "f2"},
            "b.f2.((nu f0) f1.f0.0)")


def test_rename_free_renames_a_colliding_binder_that_a_does_not_reach():
    t = parse_term("a.0 | (nu c) c.0", CCS)
    out = Term(CCS, rename_free(t.node, {"a": "c"}))
    _pinned(out, "c.0 | ((nu f0) f0.0)", {"c"}, "(nu f0) (c.0 | f0.0)")


def test_plug_may_reuse_a_kept_binder_the_body_does_not_name():
    lab = parse_label("(nu f0) (nu a) (- | a.0)", CCS)
    out = plug(lab, parse_term("a.0", CCS))
    _pinned(out, "(nu f0) (nu f0) (a.0 | f0.0)", {"a"}, "(nu f0) (a.0 | f0.0)")


def test_apply_subst_renames_the_binder_a_name_variable_targets():
    t = parse_term("(nu m) (?x[0] | m[0])", MA)
    out = apply_subst(t, Substitution.make(MA, names={"x": "m"}))
    _pinned(out, "(nu f0) (m[0] | f0[0])", {"m"}, "(nu f0) (f0[0] | m[0])")


def test_substitution_requires_pure_closed_images():
    with pytest.raises(MalformedTermError):
        Substitution.make(MA, procs={"X": Term(MA, ProcVar("Y"))})
    with pytest.raises(CrossCalculusError):
        Substitution.make(CCS, procs={"X": parse_term("n[0]", MA)})


def test_apply_subst_avoids_capture_with_distinct_fresh_binders():
    t = parse_term("(nu n)(nu m)(@X | ?x[0])", MA)
    s = Substitution.make(MA, procs={"X": parse_term("n[0]", MA)},
                          names={"x": "m"})
    assert print_term(apply_subst(t, s)) == "(nu f0) (nu f1) (n[0] | m[0])"


def test_close_label_requires_every_variable():
    lab = parse_label("- | m[@X1]", MA)
    with pytest.raises(IncompleteSubstitutionError):
        close_label(lab, Substitution.make(MA))
    closed = close_label(lab, Substitution.make(
        MA, procs={"X1": parse_term("0", MA)}))
    assert print_term(Term(MA, closed.body)) == "- | m[0]"


def test_plug_fills_every_hole_and_avoids_capture():
    lab = parse_label("(nu n) -", MA)
    out = plug(lab, parse_term("n[0]", MA))
    assert print_term(out) == "(nu f0) n[0]"
    assert free_names(out.node) == {"n"}
    # the binder moves out of the plugged term's way, the variable stays
    lab = parse_label("(nu n)(- | n[@X1])", MA)
    out = plug(lab, parse_term("n[0]", MA))
    assert print_term(out) == "(nu f0) (n[0] | f0[@X1])"
    assert free_names(out.node) == {"n"}
    # every binder of a clashing chain moves, each level walked once
    names = [f"n{i}" for i in range(30)]
    lab = parse_label("".join(f"(nu {n}) " for n in names) + "-", MA)
    out = plug(lab, parse_term(" | ".join(f"{n}[0]" for n in names), MA))
    assert free_names(out.node) == set(names)


def test_plug_and_close_avoid_capture_under_a_summand():
    lab = parse_label("(nu c)(c.- + b.0)", CCS)
    out = plug(lab, parse_term("'c.0", CCS))
    assert print_term(out) == "(nu f0) (f0.'c.0 + b.0)"
    lab = parse_label("(nu a)(c.- + b.@X1)", CCS)
    closed = close_label(lab, Substitution.make(
        CCS, procs={"X1": parse_term("'a.0", CCS)}))
    assert print_term(Term(CCS, closed.body)) == "(nu f0) (c.- + b.'a.0)"


def test_rename_vars_renames_under_binders_ambients_and_capabilities():
    t = parse_term("(nu n)(n[@X] | ?x[in ?y.@Z] | open k.0)", MA)
    out = terms.rename_vars(t.node, {"x": "w2", "y": "w4"})
    assert print_term(Term(MA, out)) == \
        "(nu n) (n[@X] | ?w2[in ?w4.@Z] | open k.0)"
    # a subtree without variables is returned as it stands
    pure = t.node.body.children[2]
    assert terms.rename_vars(pure, {"x": "w2"}) is pure
    assert terms.rename_vars(t.node, {}) is t.node


def test_plug_rejects_cross_calculus():
    lab = parse_label("- | a.0", CCS)
    with pytest.raises(CrossCalculusError):
        plug(lab, parse_term("'a", ACCS))
    with pytest.raises(CrossCalculusError):
        same_calculus(parse_term("0", CCS), parse_term("0", MA))


def test_substitutions_and_labels_refuse_another_calculus():
    ccs = Substitution.make(CCS, procs={"X1": parse_term("0", CCS)})
    with pytest.raises(CrossCalculusError, match="ccs substitution applied "
                       "to a ma term"):
        apply_subst(parse_term("n[@X1]", MA), ccs)
    with pytest.raises(CrossCalculusError, match="disagree on calculus"):
        close_label(parse_label("- | a.@X1", ACCS), ccs)


def test_make_label_counts_holes():
    with pytest.raises(MalformedTermError):
        make_label(MA, Par((Hole(), Hole())))
    with pytest.raises(MalformedTermError):
        make_label(MA, Nil())
    body = Par((Hole(), Amb("n", ProcVar("X1"))))
    assert make_label(MA, body).body is body


def test_label_variables_in_first_use_order():
    lab = parse_label("- | ?x[in m.@X2 | @X1]", MA)
    assert lab.variables == ("x", "X2", "X1")


def test_par_helper_drops_units():
    assert par(Nil(), Nil()) == Nil()
    assert par(Msg("a"), Nil()) == Msg("a")
    assert isinstance(par(Msg("a"), Msg("b")), Par)


def test_terms_hash_and_compare_structurally():
    rng = random.Random(0)
    a = parse_term("a.0 | b.0", CCS)
    b = parse_term("a.0 | b.0", CCS)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


# --- interning -------------------------------------------------------------

def test_equal_nodes_are_one_object():
    built = Par((Amb("n", Nil()),
                 Amb(NameVar("x"), Prefix(Cap("in", "m"), ProcVar("X")))))
    assert parse_term("n[0] | ?x[in m.@X]", MA).node is built
    assert Prefix(Send("a"), Hole()) is Prefix(Send("a"), Hole())
    assert Amb("x", Nil()) is not Amb(NameVar("x"), Nil())
    assert Sum((Nil(), Nil())) is not Par((Nil(), Nil()))


# The concrete classes of `terms`, each built once; a twin is none of them.
_PUBLIC = frozenset(c for c in vars(terms).values()
                    if isinstance(c, type) and issubclass(c, terms._Interned)
                    and c._raw is not None)
_ONE_OF_EACH = (NameVar("x"), Tau(), Recv("a"), Send("a"), Cap("in", "n"),
                Nil(), Prefix(Tau(), Nil()), Par((Nil(), Msg("a"))),
                Sum((Prefix(Tau(), Nil()), Nil())), Restrict("a", Hole()),
                Amb(NameVar("x"), ProcVar("X")), Msg("a"), ProcVar("X"),
                Hole())


def test_nodes_are_immutable():
    node = Prefix(Tau(), Nil())
    with pytest.raises(AttributeError):
        node.body = Msg("a")
    with pytest.raises(AttributeError):
        del node.action
    with pytest.raises(AttributeError):
        NameVar("x").name = "y"
    assert node.body is Nil()
    assert {type(n) for n in _ONE_OF_EACH} == _PUBLIC
    for n in _ONE_OF_EACH:
        slots = [f for k in type(n).__mro__
                 for f in getattr(k, "__slots__", ()) if f != "__weakref__"]
        assert {"key", "free", "vars"} <= set(slots), n
        for f in slots:
            value = getattr(n, f)
            with pytest.raises(AttributeError):
                setattr(n, f, None)
            with pytest.raises(AttributeError):
                delattr(n, f)
            assert getattr(n, f) is value, (n, f)


def _fields_by_match(n):
    match n:
        case Prefix(x, y) | Restrict(x, y) | Amb(x, y) | Cap(x, y):
            return x, y
        case Sum(x) | Par(x) | Recv(x) | Send(x) | Msg(x) | ProcVar(x) \
                | NameVar(x):
            return (x,)
        case Nil() | Hole() | Tau():
            return ()


def _assert_public(node):
    """Every node, action and name variable in `node` has a public class
    and binds its fields in a positional `match` pattern."""
    todo = [node]
    while todo:
        n = todo.pop()
        assert type(n) in _PUBLIC, type(n)
        fields = tuple(getattr(n, f) for f in type(n).__match_args__)
        assert _fields_by_match(n) == fields, n
        for v in fields:
            if isinstance(v, tuple):
                todo.extend(v)
            elif isinstance(v, terms._Interned):
                todo.append(v)


def test_no_construction_twin_escapes():
    nodes = list(_ONE_OF_EACH)
    for calc, names in ((CCS, ("a", "b")), (ACCS, ("a", "b")),
                        (MA, ("n", "m"))):
        rng = random.Random(3)
        found = enumerate_terms(calc, names, count=60) + [
            random_term(calc, names, rng, allow_vars=True) for _ in range(40)]
        for t in found:
            canon = canonical_term(t)
            nodes += (t.node, canon.node)
            if t.node.vars:
                continue
            nodes += (r.node for r in reduct_terms(canon))
            for tr in its_transitions(canon):
                nodes += (tr.label.body, tr.target.node)
    for text, calc in (("- | 'a.@X1 + tau.@X2", CCS),
                       ("(nu k) open m.(- | k[out n.@X1 | @X2]) | ?z[0]", MA)):
        nodes.append(parse_label(text, calc).body)
    for n in nodes:
        _assert_public(n)
        assert copy.copy(n) is n and copy.deepcopy(n) is n
        assert pickle.loads(pickle.dumps(n)) is n


def test_wrong_field_count_is_refused_and_interns_nothing():
    fields = {Prefix: (Tau(),), Nil: (Nil(),), Sum: (), Cap: ("in", "n", "m"),
              NameVar: ()}
    gc.collect()
    before = len(terms._INTERNED)
    for cls, args in fields.items():
        with pytest.raises(TypeError, match=f"^{cls.__name__} takes "):
            cls(*args)
    assert len(terms._INTERNED) == before


@pytest.mark.parametrize("args", [(), (Nil(),), (Nil(), None)])
def test_abstract_bases_are_refused_by_name(args):
    gc.collect()
    before = len(terms._INTERNED)
    for cls in (Node, terms._Interned):
        with pytest.raises(TypeError,
                           match=f"^{cls.__name__} is an abstract node class"):
            cls(*args)
    assert len(terms._INTERNED) == before


def test_repr_keeps_field_names():
    node = Par((Prefix(Cap("in", NameVar("x")), Nil()), Msg("a")))
    assert repr(node) == ("Par(children=(Prefix(action=Cap(op='in', "
                          "amb=NameVar(name='x')), body=Nil()), "
                          "Msg(channel='a')))")
    assert repr(Tau()) == "Tau()"


def test_copy_and_pickle_return_the_interned_node():
    node = parse_term("(nu a)(a.'b.0 + tau.0 | c.0)", CCS).node
    assert copy.copy(node) is node
    assert copy.deepcopy(node) is node
    assert pickle.loads(pickle.dumps(node)) is node
    term = Term(CCS, node)
    assert pickle.loads(pickle.dumps(term)).node is node


def test_calculus_members_hash_by_identity():
    assert list(Calculus) == [CCS, ACCS, MA]
    assert Calculus("ma") is MA and Calculus["ACCS"] is ACCS
    assert MA.value == "ma" and MA.name == "MA"
    assert hash(MA) == object.__hash__(MA)
    assert pickle.loads(pickle.dumps(MA)) is MA
    assert copy.deepcopy(CCS) is CCS
    assert MA in {MA, CCS} and ACCS not in {MA, CCS}
    assert {Calculus("ccs"): 1}[CCS] == 1
    assert Term(MA, Nil()) == pickle.loads(pickle.dumps(Term(MA, Nil())))
    assert len({Term(CCS, Nil()), Term(CCS, Nil()), Term(MA, Nil())}) == 2


def test_intern_table_is_weak():
    gc.collect()
    before = len(terms._INTERNED)
    node = Prefix(Recv("weak0"), Par((Msg("weak1"), Restrict("weak2",
                                                             Nil()))))
    assert len(terms._INTERNED) == before + 5
    del node
    gc.collect()
    assert len(terms._INTERNED) == before


# sha256 of the printed corpus, one term a line, recorded before the
# enumeration was depth-pruned: (calculus, names, count) -> digest.
_CORPUS_DIGESTS = {
    (CCS, ("a", "b"), 320):
        "1ae6bffe84c018138c54700cae8fd29f976a46153bc3bffaab6dfd836a76f4e3",
    (ACCS, ("a", "b"), 320):
        "e29b95781101dbc83e8f7ba4cf7ac2ffe390e733751e50f5eb29f80ad3a2438b",
    (MA, ("a", "b"), 320):
        "be7d93d5bd8cee6add2162ddd8c52ed1e87bcdb894678cc95984c2428c09a223",
    (CCS, ("a", "b"), 300):
        "922c91f697f0f7154ad7d1b69dea097c3682e543a40824c8e837b15a100240a7",
    (ACCS, ("a", "b"), 300):
        "4fa00b1aabe166e376dfa222fa84b89cbe029255d436dde44c6771473e3a0580",
    (MA, ("n", "m"), 300):
        "8e1661b952003d2716f340e7963ebf7cef9d8820854fa3fc42461433818f5173",
}


@pytest.mark.parametrize("calc,names,count", list(_CORPUS_DIGESTS))
def test_enumerate_terms_output_is_pinned(calc, names, count):
    corpus = enumerate_terms(calc, names, count=count)
    assert len(corpus) == count
    text = "\n".join(print_term(t) for t in corpus)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == _CORPUS_DIGESTS[calc, names, count]


# --- stored facts against recursive reference definitions -----------------
#
# Each node stores its key, free names, variables and hole count when it
# is built.  These are the recursive definitions the stored facts
# replaced; every node must agree with them.

_CAP_OPS = {"in": 0, "out": 1, "open": 2}


def _name_key(n):
    return (0, n) if isinstance(n, str) else (1, n.name)


def _act_key(act):
    match act:
        case Tau():
            return (0,)
        case Recv(channel=a):
            return (1, a)
        case Send(channel=a):
            return (2, a)
        case Cap(op=op, amb=n):
            return (3, _CAP_OPS[op], _name_key(n))


def reference_key(node):
    match node:
        case Nil():
            return (0,)
        case Hole():
            return (1,)
        case ProcVar(name=v):
            return (2, v)
        case Msg(channel=a):
            return (3, a)
        case Prefix(action=act, body=b):
            return (4, _act_key(act), reference_key(b))
        case Sum(children=cs):
            return (5, tuple(reference_key(c) for c in cs))
        case Amb(name=n, body=b):
            return (6, _name_key(n), reference_key(b))
        case Restrict(name=n, body=b):
            return (7, n, reference_key(b))
        case Par(children=cs):
            return (8, tuple(reference_key(c) for c in cs))


def _action_names(act):
    match act:
        case Recv(channel=a) | Send(channel=a):
            return {a}
        case Cap(amb=str(n)):
            return {n}
    return set()


def reference_free_names(node):
    match node:
        case Msg(channel=a):
            return {a}
        case Prefix(action=act, body=b):
            return _action_names(act) | reference_free_names(b)
        case Sum(children=cs) | Par(children=cs):
            return set().union(*map(reference_free_names, cs))
        case Restrict(name=n, body=b):
            return reference_free_names(b) - {n}
        case Amb(name=n, body=b):
            base = reference_free_names(b)
            return base | {n} if isinstance(n, str) else base
    return set()


def reference_vars(node):
    match node:
        case ProcVar(name=v):
            yield ("proc", v)
        case Prefix(action=Cap(amb=NameVar(name=x)), body=b):
            yield ("name", x)
            yield from reference_vars(b)
        case Prefix(body=b) | Restrict(body=b):
            yield from reference_vars(b)
        case Sum(children=cs) | Par(children=cs):
            for c in cs:
                yield from reference_vars(c)
        case Amb(name=n, body=b):
            if isinstance(n, NameVar):
                yield ("name", n.name)
            yield from reference_vars(b)


def reference_holes(node):
    match node:
        case Hole():
            return 1
        case Prefix(body=b) | Restrict(body=b) | Amb(body=b):
            return reference_holes(b)
        case Sum(children=cs) | Par(children=cs):
            return sum(reference_holes(c) for c in cs)
    return 0


def _subnodes(node):
    todo = [node]
    while todo:
        n = todo.pop()
        yield n
        todo.extend(getattr(n, "children", ()))
        if hasattr(n, "body"):
            todo.append(n.body)


def _assert_facts(node):
    for n in _subnodes(node):
        assert n.key == reference_key(n), n
        assert n.free == reference_free_names(n), n
        assert isinstance(n.free, frozenset)
        assert n.vars == tuple(reference_vars(n)), n
        assert n.holes == reference_holes(n), n


@pytest.mark.parametrize("calc,names", [(CCS, ("a", "b")),
                                        (ACCS, ("a", "b")),
                                        (MA, ("n", "m"))])
def test_stored_facts_match_the_reference_on_the_corpus(calc, names):
    corpus = enumerate_terms(calc, names, count=300)
    rng = random.Random(5)
    shapes = [random_term(calc, names, rng, allow_vars=True)
              for _ in range(200)]
    for t in corpus + shapes:
        _assert_facts(t.node)


@pytest.mark.parametrize("calc,text", [
    (CCS, "- | 'a.@X1 + tau.@X2"),
    (ACCS, "(nu a) (- | a.@X1 | 'b) | @X2"),
    (MA, "- | ?x[@X2 | in n.@X1]"),
    (MA, "(nu k) open m.(- | k[out n.@X1 | @X2]) | ?z[0]"),
])
def test_stored_facts_match_the_reference_on_labels(calc, text):
    label = parse_label(text, calc)
    assert label.body.vars
    _assert_facts(label.body)


def test_stored_facts_match_the_reference_on_its_labels():
    for t in enumerate_terms(MA, ("n", "m"), count=60):
        for tr in its_transitions(t):
            _assert_facts(tr.label.body)
            _assert_facts(tr.target.node)
    # Game states also hold capabilities on name variables.
    _assert_facts(Restrict("k", Par((
        Prefix(Cap("open", NameVar("y")), Amb("k", ProcVar("X1"))),
        Amb(NameVar("x"), Prefix(Cap("in", "k"), Hole()))))))


def test_facts_share_child_sets_and_tuples():
    body = Prefix(Recv("a"), ProcVar("X"))
    node = Restrict("b", Prefix(Send("a"), body))
    assert node.free is body.free
    assert node.vars is body.vars
    assert Prefix(Recv("a"), Nil()).vars == ()
    assert Prefix(Recv("a"), Nil()).vars is Nil().vars


def test_deep_chains_have_keys_without_recursion():
    node = Nil()
    for _ in range(5000):
        node = Prefix(Recv("a"), node)
    assert node.key[:2] == (4, (1, "a"))
    assert node.free == {"a"}
