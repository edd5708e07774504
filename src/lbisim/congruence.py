"""Structural congruence via canonical forms.

`canonicalize` orients the congruence axioms into a terminating rewrite:

  * drop parallel and sum units, flatten both associative operators;
  * prune vacuous restrictions ((nu n) p with n not free in p);
  * hoist restrictions outward — across parallel composition, and
    through ambients and capability prefixes, so an MA canonical form
    keeps every binder in one top-level cluster while CCS and ACCS keep
    binders under the channel prefixes where they started;
  * alpha-rename each binder cluster to f0, f1, ... (smallest names not
    free in the cluster), in the binder order that gives the least body
    (found by branch and bound, below);
  * sort parallel components and summands by a total order on terms,
    `node_key`, which each node stores when it is built (`terms.Node`).

The canonical form is what one pass doing all of this over the whole
tree gives (normalise, then rename and sort).  It is built bottom-up
instead: a node's canonical form comes from its children's, which the
canonical-form cache `_canon_node` holds, so a subtree shared by many
terms is canonicalised once.  Each rule gives the node the full pass
gives, because a canonical form is its own normal form and is already
sorted:

  * a leaf is its own canonical form;
  * a channel prefix is the prefix over its body's canonical form
    (binders stay under it);
  * a sum is its children's canonical summands, flattened and sorted,
    with 0 dropped: no summand gives 0, one gives that summand (sums
    are guarded, so no summand starts with a binder);
  * a parallel composition none of whose children starts with a binder
    is the sorted components of its children's canonical forms;
  * an ambient, or a capability prefix, over a canonical form that
    starts with no binder is rebuilt over it;
  * a restriction chain whose binders are all vacuous is its body's
    canonical form.

With nothing to hoist, prune or rename, the full pass only flattens,
drops units and sorts, which these rules do.  Binders are placed by the
search below, run once per cluster on a body whose parts are already
canonical:

  * a restriction chain is stripped at once; its binders free in the
    body's canonical form, with the binders at the top of that form,
    make one cluster over its core;
  * a parallel composition some of whose children start with binders
    hoists them all into one cluster over the sorted components,
    renaming a binder that clashes with a free name or another child's
    binder;
  * an ambient n[-] or a capability prefix op n.- over a canonical
    cluster (nu F) C whose fresh names F do not include n lifts it: the
    result is (nu F) n[C] as it stands.  The full pass would search the
    cluster over n[C].  Its fresh names avoid the same free names plus
    n, which none of them is, so they are F again; and keys are monotone
    in the body, so the least n[-] body over the binder orders is n[-]
    around the least C, which is C.  When n is in F the binder named n
    is renamed and the search runs.

Two rules keep a cluster from being searched twice; both give the node
the search gives.

  * Marks.  Each node `_canon_node` returns, and each level of a chain
    it walks, is marked canonical (`Node.canon` is True).  A
    marked node is its own canonical form, so `_canon_node` returns it
    at once and a chain walk stops at its first marked level: a move's
    target that is a level of a canonical chain, or a canonical form
    handed back to the canonicaliser, costs O(1).  The mark lives and
    dies with its node, so `_canon_node.cache_clear()` leaves it: a
    test that wants a fresh computation must build a spelling that is
    not canonical, as `corpus._respelled` does.
  * Split search.  A cluster (nu B) of three or more binders over
    components of which some name no binder in B is searched over the
    others only: (nu B) of the binder-naming components is looked up
    as one node, and the rest are merged back into its sorted body.  So
    an ITS target (nu F)(C | @X1) of a marked (nu F) C is a lookup.
    This is exact.  Inserting the same component into two sorted
    component lists of one length keeps their lexicographic order, so
    the least body over all binder orders is the least body of the
    binder-naming part with the others merged in.  Fresh names avoid
    the free names of what they bind over, and the part keeps every
    binder, so its fresh names F follow from its free names before it
    is looked up.  When no set-aside component is free in F, F are the
    cluster's fresh names too; when one is, the whole cluster is
    searched instead.

The search renames and sorts every candidate body itself, so its result
depends on the body only up to the names of the cluster's binders, the
order of components and the canonical form of subtrees: searching a body
built from canonical parts gives what the full pass gives on the
original.  Every body the search sees is built that way, so `_alpha`
takes canonical input and returns as it stands any subtree that names
none of the names it renames.  Chains of prefixes, ambients and
restrictions are walked in a loop, so canonicalising takes a few frames
per parallel composition or sum, not per level of the tree.  `_alpha`
does recurse once per level, down the subtrees that name a binder it
places; `syntax.MAX_DEPTH`, which bounds how deep the parser lets input
nest, keeps that within Python's default recursion limit.

The least binder order is found by branch and bound.  The cluster's
fresh names are given out least first as strings ("f10" sorts before
"f2").  A state's bound is the body with every binder not yet assigned
renamed to one placeholder that sorts just below the next fresh name and
is not itself of the form f<digits>.  A bound is no greater than the
body of any completion of its state: keys are lexicographic tuples,
monotone in each name position, sorting children keeps that order, and
the placeholder lies below every name a completion gives.  Inner
clusters (binders stay under channel prefixes) choose their names
by avoiding their free names: a placeholder blocks nothing, but in a
completion it is a fresh name the inner cluster may have to skip.  So
inside a bound an inner cluster with k placeholders among its free names
gives each binder the least, as a string, of the k + 1 names it could
get; where an inner cluster's names still differ from a completion's,
its key is already the smaller at the first name that differs.  States
are expanded in order of bound and pruned when the bound is no less than
the best complete body; with one binder left the bound is exact.  Of
candidates with the same bound, one is skipped when swapping its binder
with a kept one's maps the body to a congruent body (tested on the body
as it stands), since its subtree mirrors the kept one's; clusters of
replicas thus take one descent.

Two terms are structurally congruent exactly when their canonical forms
are equal, so `equiv` is canonical-form equality.  The pruning step is a
convention on top of the textbook axiom sets (which cannot derive
(nu n) 0 = 0); it is what makes the "name not restricted" side conditions
of the transition rules independent of the chosen representative.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .terms import (
    NIL, Amb, Calculus, Cap, Label, Msg, NameVar, Nil, Node, Par, Prefix,
    Restrict, Sum, Term, _ren_action, fresh_name, fresh_names,
    par, restricts, same_calculus,
)


def strip_restricts(node: Node) -> tuple[list[str], Node]:
    names = []
    while isinstance(node, Restrict):
        names.append(node.name)
        node = node.body
    return names, node


def components(node: Node) -> tuple[Node, ...]:
    match node:
        case Par(children=cs):
            return cs
        case Nil():
            return ()
        case _:
            return (node,)


# --- total order -----------------------------------------------------------

def node_key(node: Node):
    """Total order on syntax trees; canonical forms compare by this key.
    The key is stored on the node when it is built (see `terms.Node`)."""
    return node.key


# --- alpha-canonical renaming and sorting ----------------------------------

_UNSURE = "\U0010ffff"     # ends every placeholder name


def _below(name: str) -> str:
    """A name just below the fresh name `name` in string order that is
    not itself a fresh name: "f3" gives "f2\\U0010ffff"."""
    return name[:-1] + chr(ord(name[-1]) - 1) + _UNSURE


def _first_key(pair: tuple):
    return pair[0].key


def _alpha(node: Node, env: dict) -> Node:
    """`node` with its free names renamed by `env`, in canonical form;
    a restriction chain is one cluster, placed by the search.  `node`
    must be canonical but for the names `env` renames: a child that
    names none of them is returned as it stands."""
    if isinstance(node, Restrict):
        names, body = strip_restricts(node)
        outer = [env.get(x, x) for x in node.free]
        # Inside a bound each placeholder may be a name to skip (see the
        # module docstring), so take each binder's least possible name.
        unsure = sum(n.endswith(_UNSURE) for n in outer)
        fresh = fresh_names(outer, len(names) + unsure)
        if unsure:
            fresh = [min(fresh[i:i + unsure + 1]) for i in range(len(names))]
        # Branch and bound, in this frame so that renaming takes one
        # frame per tree level.  A state has given the len(given) least
        # fresh names, as strings, to the binders in `given`, in order;
        # `rest` is unassigned.
        # `seen` keeps every candidate alive until the search ends: the
        # candidates share most subtrees, which are built only once while
        # some live node holds them.
        order = sorted(fresh)
        seen = []
        swaps = {}
        best = None
        stack = [(None, (), tuple(names))]
        while stack:
            bound, given, rest = stack.pop()
            if best is not None and bound.key >= best.key:
                continue
            k = len(given)
            base = dict(env)
            base.update(zip(given, order))
            if len(rest) > 1:
                base.update(dict.fromkeys(rest, order[k + 1] if len(rest) == 2
                                          else _below(order[k + 1])))
            level = []
            for b in rest:
                env2 = dict(base)
                env2[b] = order[k]
                level.append((_alpha(body, env2), b))
            seen.append(level)
            if len(rest) <= 2:
                leaf = min(level, key=_first_key)[0]
                if best is None or leaf.key < best.key:
                    best = leaf
                continue
            level.sort(key=_first_key)
            # A candidate whose bound equals a kept one's is skipped when
            # swapping the two binders maps the body to itself.
            kept = []
            for cand, b in level:
                if best is not None and cand.key >= best.key:
                    break
                for other, a in kept:
                    if other is not cand:
                        continue
                    pair = frozenset((a, b))
                    if pair not in swaps:
                        swaps[pair] = _alpha(body, {a: b, b: a}) is body
                    if swaps[pair]:
                        break
                else:
                    kept.append((cand, b))
            for cand, b in reversed(kept):
                stack.append((cand, given + (b,),
                              tuple(c for c in rest if c != b)))
        return restricts(fresh, best)
    match node:
        case Msg(channel=a):
            return Msg(env.get(a, a))
        case Prefix(action=act, body=b):
            if not b.free.isdisjoint(env):
                b = _alpha(b, env)
            return Prefix(_ren_action(act, env), b)
        case Sum(children=cs) | Par(children=cs):
            done = sorted((c if c.free.isdisjoint(env) else _alpha(c, env)
                           for c in cs), key=node_key)
            return type(node)(tuple(done))
        case Amb(name=n, body=b):
            if not b.free.isdisjoint(env):
                b = _alpha(b, env)
            return Amb(env.get(n, n), b)
    return node


def _cluster(names, body: Node) -> Node:
    """(nu names) body in canonical form; `body` must be canonical."""
    return _alpha(restricts(names, body), {})


# --- canonical forms -------------------------------------------------------

@dataclass(frozen=True)
class CanonicalForm:
    """Top binder cluster plus sorted parallel components of the
    canonical node."""
    calculus: Calculus
    binders: tuple[str, ...]
    parts: tuple[Node, ...]
    node: Node

    @property
    def term(self) -> Term:
        return Term(self.calculus, self.node)


_mark = Node.canon.__set__          # _mark(node, True): node is canonical


@lru_cache(maxsize=1 << 17)
def _canon_node(node: Node) -> Node:
    """The canonical form of `node`, built from its children's (see the
    module docstring).  A chain of prefixes, ambients and restrictions is
    walked in a loop down to its first marked level, or else to the node
    below it, which is looked up here; each level built is marked."""
    chain = []
    while node.canon is None and isinstance(node, (Prefix, Amb, Restrict)):
        chain.append(node)
        node = node.body
    if node.canon:
        form = node
    elif isinstance(node, Par):
        form = _canon_node(node) if chain else _par(node)
    elif isinstance(node, Sum):
        form = _canon_node(node) if chain else _sum(node)
    else:
        form = node
    names: list[str] = []           # a restriction chain, innermost first
    for top in reversed(chain):
        if isinstance(top, Restrict):
            names.append(top.name)
            continue
        if names:
            form = _restrict(names, form)
            _mark(form, True)
            names = []
        form = _enclose(top, form)
        _mark(form, True)
    if names:
        form = _restrict(names, form)
    _mark(form, True)
    return form


def _sum(node: Sum) -> Node:
    flat: list[Node] = []
    for c in node.children:
        c = _canon_node(c)
        if isinstance(c, Sum):
            flat.extend(c.children)
        elif not isinstance(c, Nil):
            flat.append(c)
    if not flat:
        return NIL
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(sorted(flat, key=node_key)))


def _par(node: Par) -> Node:
    parts: list[Node] = []
    binders: list[str] = []
    taken = node.free               # free names, then binders placed so far
    for c in node.children:
        c = _canon_node(c)
        if isinstance(c, Restrict):
            fs, c = strip_restricts(c)
            ren = {}
            for f in fs:
                if f in taken:
                    ren[f] = f = fresh_name(taken | set(fs))
                taken = taken | {f}
                binders.append(f)
            if ren:
                c = _alpha(c, ren)
        parts.extend(components(c))
    body = par(*sorted(parts, key=node_key))
    return _restrict(binders[::-1], body) if binders else body


def _restrict(names: list[str], form: Node) -> Node:
    """(nu names) over the canonical form `form`; `names` innermost
    first, so an inner binder shadows an outer one of the same name.
    A cluster of three or more binders is searched over the components
    that name them, looked up as one node, and the others are merged
    back in, unless one of those is free in the part's fresh names (see
    the module docstring)."""
    kept = [n for n in dict.fromkeys(names) if n in form.free]
    if not kept:
        return form
    fs, core = strip_restricts(form)
    if len(kept) + len(fs) > 2:
        bound = {*kept, *fs}
        inner, aside = [], []
        for c in components(core):
            (aside if c.free.isdisjoint(bound) else inner).append(c)
        if aside:
            # Every binder names a component of `inner`, so the part
            # keeps them all and takes these fresh names.
            fresh = fresh_names(
                frozenset().union(*(c.free for c in inner)) - bound,
                len(bound))
            if all(c.free.isdisjoint(fresh) for c in aside):
                part = _canon_node(restricts(kept[::-1] + fs, par(*inner)))
                return restricts(fresh, par(*sorted(
                    (*components(strip_restricts(part)[1]), *aside),
                    key=node_key)))
    return _cluster(kept, form)


def _enclose(top: Prefix | Amb, form: Node) -> Node:
    """`top` rebuilt over the canonical form `form` of its body."""
    kind = type(top)
    head = top.action if kind is Prefix else top.name
    if not isinstance(form, Restrict) or (kind is Prefix
                                          and type(head) is not Cap):
        return top if form is top.body else kind(head, form)
    n = getattr(head, "amb", head)  # the ambient's or the capability's name
    fs, core = strip_restricts(form)
    if n not in fs:
        return restricts(fs, kind(head, core))
    # The binder named n would capture the context's name: rename it.
    n2 = fresh_name(core.free)
    return _cluster([n2 if f == n else f for f in fs],
                    kind(head, _alpha(core, {n: n2})))


def canonical_node(term: Term) -> Node:
    return _canon_node(term.node)


def canonicalize(term: Term) -> CanonicalForm:
    """Canonical representative of the structural-congruence class."""
    node = _canon_node(term.node)
    binders, core = strip_restricts(node)
    return CanonicalForm(term.calculus, tuple(binders), components(core),
                         node)


def canonical_term(term: Term) -> Term:
    return Term(term.calculus, canonical_node(term))


def canonical_label(label: Label) -> Label:
    return Label(label.calculus, _canon_node(label.body))


def equiv(t1: Term, t2: Term) -> bool:
    """Structural congruence, decided on canonical forms."""
    same_calculus(t1, t2)
    return canonical_node(t1) == canonical_node(t2)


# --- premise matches ---------------------------------------------------------
#
# The transition rules all match a canonical form (nu A)(P | rest) on one
# selected parallel component P whose interacting name is not in A.  The
# rules rebuild their targets from the pieces, so each generator yields
# them as a plain tuple, in the order of the components (the binders A are
# the caller's `cf.binders`):
#
#   cap_matches(cf, op)          (n, P1, rest)      for op n.P1
#   ambient_matches(cf)          (n, P1, rest)      for n[P1]
#   ambient_cap_matches(cf, op)  (n, m, P1, inner_rest, rest)
#                                                   for n[op m.P1 | inner_rest]
#   summand_matches(cf, kind)    (action, Q, rest)  for a summand action.Q of
#                                                   kind Tau, Recv or Send
#   particle_matches(cf)         (a, rest)          for an output particle 'a

def _unrestricted(name, binders) -> bool:
    return isinstance(name, NameVar) or name not in binders


def _drop(parts: tuple, i: int) -> tuple:
    return parts[:i] + parts[i + 1:]


def cap_matches(cf: CanonicalForm, op: str):
    for i, c in enumerate(cf.parts):
        match c:
            case Prefix(action=Cap(op=o, amb=n), body=p1) if o == op:
                if _unrestricted(n, cf.binders):
                    yield n, p1, _drop(cf.parts, i)


def ambient_matches(cf: CanonicalForm):
    for i, c in enumerate(cf.parts):
        match c:
            case Amb(name=n, body=p1):
                if _unrestricted(n, cf.binders):
                    yield n, p1, _drop(cf.parts, i)


def ambient_cap_matches(cf: CanonicalForm, op: str):
    for i, c in enumerate(cf.parts):
        match c:
            case Amb(name=n, body=b):
                inner = components(b)
                for j, d in enumerate(inner):
                    match d:
                        case Prefix(action=Cap(op=o, amb=m), body=p1) if o == op:
                            if _unrestricted(m, cf.binders):
                                yield (n, m, p1, _drop(inner, j),
                                       _drop(cf.parts, i))


def _summands(c: Node) -> tuple:
    """The prefixes a parallel component offers: itself or its summands."""
    match c:
        case Prefix():
            return (c,)
        case Sum(children=cs):
            return tuple(s for s in cs if isinstance(s, Prefix))
    return ()


def summand_matches(cf: CanonicalForm, kind: type):
    for i, c in enumerate(cf.parts):
        for s in _summands(c):
            if isinstance(s.action, kind):
                ch = getattr(s.action, "channel", None)
                if ch is not None and ch in cf.binders:
                    continue
                yield s.action, s.body, _drop(cf.parts, i)


def particle_matches(cf: CanonicalForm):
    for i, c in enumerate(cf.parts):
        match c:
            case Msg(channel=a):
                if a not in cf.binders:
                    yield a, _drop(cf.parts, i)
