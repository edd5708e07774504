"""Structural congruence via canonical forms.

`canonicalize` orients the congruence axioms into a terminating rewrite:

  * drop parallel and sum units, flatten both associative operators;
  * prune vacuous restrictions ((nu n) p with n not free in p);
  * hoist restrictions outward — across parallel composition in every
    calculus, and through ambients and capability prefixes in MA, so an MA
    canonical form keeps every binder in one top-level cluster while CCS
    and ACCS keep binders under prefixes where they started;
  * alpha-rename each binder cluster to f0, f1, ... (smallest names not
    free in the cluster), in the binder order that gives the least body
    (found by branch and bound, below);
  * sort parallel components and summands by a total order on terms,
    `node_key`, which each node stores when it is built (`terms.Node`).

A parallel composition none of whose children has a binder at the top
of its canonical form needs neither step: its canonical form is the
sorted flattened components of the children's canonical forms, which
the canonical-form cache already holds.  (The full pass computes the
same node: with no binders to hoist or rename, normalising flattens the
children and alpha-renaming sorts the components.)  Reduct and ITS
targets and plugged `- | T` contexts in CCS and ACCS have that shape;
any other node takes the full pass.

The least binder order is found by branch and bound.  The cluster's
fresh names are given out least first as strings ("f10" sorts before
"f2").  A state's bound is the body with every binder not yet assigned
renamed to one placeholder that sorts just below the next fresh name and
is not itself of the form f<digits>.  A bound is no greater than the
body of any completion of its state: keys are lexicographic tuples,
monotone in each name position, sorting children keeps that order, and
the placeholder lies below every name a completion gives.  Inner
clusters (CCS and ACCS keep binders under prefixes) choose their names
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
    Amb, Calculus, Cap, Hole, Label, Msg, NameVar, Nil, Node, Par, Prefix,
    ProcVar, Recv, Restrict, Send, Sum, Tau, Term,
    fresh_name, fresh_names, par, rename_free, restricts,
    same_calculus,
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


# --- structural normalisation ----------------------------------------------

def _hoist_out(binders: list[str], core: Node, blocked: frozenset[str]):
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


def _normalize(node: Node, calc: Calculus) -> Node:
    match node:
        case Nil() | Hole() | Msg() | ProcVar():
            return node
        case Prefix(action=act, body=b):
            b = _normalize(b, calc)
            if calc is Calculus.MA:
                bs, core = strip_restricts(b)
                if bs:
                    n = act.amb if isinstance(act, Cap) else None
                    blocked = frozenset((n,)) if isinstance(n, str) else frozenset()
                    bs, core = _hoist_out(bs, core, blocked)
                    return restricts(bs, Prefix(act, core))
            return Prefix(act, b)
        case Amb(name=n, body=b):
            b = _normalize(b, calc)
            bs, core = strip_restricts(b)
            if bs:
                blocked = frozenset((n,)) if isinstance(n, str) else frozenset()
                bs, core = _hoist_out(bs, core, blocked)
                return restricts(bs, Amb(n, core))
            return Amb(n, b)
        case Sum(children=cs):
            flat: list[Node] = []
            for c in cs:
                c = _normalize(c, calc)
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
            entries: list[tuple[list[str], Node]] = []
            for c in cs:
                c = _normalize(c, calc)
                bs, core = strip_restricts(c)
                entries.append((list(bs), core))
            # Move every binder to the front, freshening on clashes with
            # the other children or the binders already collected.
            collected: list[str] = []
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
            parts: list[Node] = []
            for core in cores:
                parts.extend(p for p in components(core)
                             if not isinstance(p, Nil))
            body = par(*parts)
            return restricts([b for b in collected if b in body.free],
                             body)
        case Restrict(name=n, body=b):
            b = _normalize(b, calc)
            if n not in b.free:
                return b
            return Restrict(n, b)
    raise TypeError(f"not a node: {node!r}")


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
    if isinstance(node, Restrict):
        names, body = strip_restricts(node)
        outer = [env.get(x, x) for x in node.free]
        # Inside a bound each placeholder may be a name to skip (see the
        # module docstring), so take each binder's least possible name.
        unsure = sum(n.endswith(_UNSURE) for n in outer)
        fresh = fresh_names(outer, len(names) + unsure)
        if unsure:
            fresh = [min(fresh[i:i + unsure + 1]) for i in range(len(names))]
        # Branch and bound, in this frame so that canonicalising takes one
        # frame per tree level.  A state has given the len(given) least
        # fresh names, as strings, to the binders in `given`, in order;
        # `rest` is unassigned.
        # `seen` keeps every candidate alive until the search ends: the
        # candidates share most subtrees, which are built only once while
        # some live node holds them.
        order = sorted(fresh)
        seen = []
        swaps = {}
        best = ident = None
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
                        if ident is None:
                            ident = _alpha(body, {})
                        swaps[pair] = _alpha(body, {a: b, b: a}) is ident
                    if swaps[pair]:
                        break
                else:
                    kept.append((cand, b))
            for cand, b in reversed(kept):
                stack.append((cand, given + (b,),
                              tuple(c for c in rest if c != b)))
        return restricts(fresh, best)
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
                case Cap(op=op, amb=n):
                    if isinstance(n, str):
                        act = Cap(op, env.get(n, n))
            return Prefix(act, _alpha(b, env))
        case Sum(children=cs):
            done = sorted((_alpha(c, env) for c in cs), key=node_key)
            return Sum(tuple(done))
        case Par(children=cs):
            done = sorted((_alpha(c, env) for c in cs), key=node_key)
            return Par(tuple(done))
        case Amb(name=n, body=b):
            if isinstance(n, str):
                n = env.get(n, n)
            return Amb(n, _alpha(b, env))
    raise TypeError(f"not a node: {node!r}")


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

    @property
    def key(self):
        return self.node.key

    @property
    def text(self) -> str:
        from .syntax import print_node
        return print_node(self.node)


@lru_cache(maxsize=1 << 17)
def _canon_node(calc: Calculus, node: Node) -> Node:
    if isinstance(node, Par):
        parts: list[Node] = []
        for c in node.children:
            c = _canon_node(calc, c)
            if isinstance(c, Restrict):
                break
            parts.extend(components(c))
        else:
            return par(*sorted(parts, key=node_key))
    return _alpha(_normalize(node, calc), {})


def canonical_node(term: Term) -> Node:
    return _canon_node(term.calculus, term.node)


def canonicalize(term) -> CanonicalForm:
    """Canonical representative of the structural-congruence class."""
    if isinstance(term, Label):
        node = _canon_node(term.calculus, term.body)
    else:
        node = _canon_node(term.calculus, term.node)
    binders, core = strip_restricts(node)
    return CanonicalForm(term.calculus, tuple(binders), components(core),
                         node)


def canonical_term(term: Term) -> Term:
    return Term(term.calculus, canonical_node(term))


def canonical_label(label: Label) -> Label:
    return Label(label.calculus, _canon_node(label.calculus, label.body))


def equiv(t1: Term, t2: Term) -> bool:
    """Structural congruence, decided on canonical forms."""
    same_calculus(t1, t2)
    return canonical_node(t1) == canonical_node(t2)


# --- premise decompositions ------------------------------------------------
#
# The transition rules all match a term against a shape
# (nu A)(<selected> | rest) with a "selected name is not restricted" side
# condition; these generators enumerate the ways a canonical form fits.

@dataclass(frozen=True)
class CapMatch:
    """(nu A)(op n.P1 | P2) with n unrestricted."""
    calculus: Calculus
    binders: tuple[str, ...]
    op: str
    name: "str | NameVar"
    continuation: Node
    rest: tuple[Node, ...]

    def recompose(self) -> Term:
        sel = Prefix(Cap(self.op, self.name), self.continuation)
        return Term(self.calculus,
                    restricts(self.binders, par(sel, *self.rest)))


@dataclass(frozen=True)
class AmbientMatch:
    """(nu A)(n[P1] | P2) with n unrestricted."""
    calculus: Calculus
    binders: tuple[str, ...]
    name: "str | NameVar"
    content: Node
    rest: tuple[Node, ...]

    def recompose(self) -> Term:
        return Term(self.calculus,
                    restricts(self.binders,
                              par(Amb(self.name, self.content), *self.rest)))


@dataclass(frozen=True)
class AmbientCapMatch:
    """(nu A)(n[op m.P1 | P2] | P3) with m unrestricted."""
    calculus: Calculus
    binders: tuple[str, ...]
    amb_name: "str | NameVar"
    op: str
    cap_name: "str | NameVar"
    continuation: Node
    inner_rest: tuple[Node, ...]
    rest: tuple[Node, ...]

    def recompose(self) -> Term:
        inner = par(Prefix(Cap(self.op, self.cap_name), self.continuation),
                    *self.inner_rest)
        return Term(self.calculus,
                    restricts(self.binders,
                              par(Amb(self.amb_name, inner), *self.rest)))


@dataclass(frozen=True)
class SummandMatch:
    """(nu A)(act.Q + M | R) with the channel, if any, unrestricted."""
    calculus: Calculus
    binders: tuple[str, ...]
    action: "Tau | Recv | Send"
    continuation: Node
    sum_rest: tuple[Node, ...]
    rest: tuple[Node, ...]

    def recompose(self) -> Term:
        sel = Prefix(self.action, self.continuation)
        if self.sum_rest:
            sel = Sum((sel, *self.sum_rest))
        return Term(self.calculus,
                    restricts(self.binders, par(sel, *self.rest)))


@dataclass(frozen=True)
class ParticleMatch:
    """(nu A)('a | Q) with a unrestricted."""
    calculus: Calculus
    binders: tuple[str, ...]
    channel: str
    rest: tuple[Node, ...]

    def recompose(self) -> Term:
        return Term(self.calculus,
                    restricts(self.binders, par(Msg(self.channel), *self.rest)))


def _unrestricted(name, binders) -> bool:
    return isinstance(name, NameVar) or name not in binders


def _drop(parts: tuple, i: int) -> tuple:
    return parts[:i] + parts[i + 1:]


def cap_matches(cf: CanonicalForm, op: str):
    for i, c in enumerate(cf.parts):
        match c:
            case Prefix(action=Cap(op=o, amb=n), body=p1) if o == op:
                if _unrestricted(n, cf.binders):
                    yield CapMatch(cf.calculus, cf.binders, op, n, p1,
                                   _drop(cf.parts, i))


def ambient_matches(cf: CanonicalForm):
    for i, c in enumerate(cf.parts):
        match c:
            case Amb(name=n, body=p1):
                if _unrestricted(n, cf.binders):
                    yield AmbientMatch(cf.calculus, cf.binders, n, p1,
                                       _drop(cf.parts, i))


def ambient_cap_matches(cf: CanonicalForm, op: str):
    for i, c in enumerate(cf.parts):
        match c:
            case Amb(name=n, body=b):
                inner = components(b)
                for j, d in enumerate(inner):
                    match d:
                        case Prefix(action=Cap(op=o, amb=m), body=p1) if o == op:
                            if _unrestricted(m, cf.binders):
                                yield AmbientCapMatch(
                                    cf.calculus, cf.binders, n, op, m, p1,
                                    _drop(inner, j), _drop(cf.parts, i))


def _summands(c: Node):
    match c:
        case Prefix():
            yield c, ()
        case Sum(children=cs):
            for j, s in enumerate(cs):
                if isinstance(s, Prefix):
                    yield s, _drop(cs, j)


_KINDS = {"tau": Tau, "recv": Recv, "send": Send}


def summand_matches(cf: CanonicalForm, kind: str):
    want = _KINDS[kind]
    for i, c in enumerate(cf.parts):
        for s, sum_rest in _summands(c):
            if isinstance(s.action, want):
                ch = getattr(s.action, "channel", None)
                if ch is not None and ch in cf.binders:
                    continue
                yield SummandMatch(cf.calculus, cf.binders, s.action, s.body,
                                   sum_rest, _drop(cf.parts, i))


def particle_matches(cf: CanonicalForm):
    for i, c in enumerate(cf.parts):
        match c:
            case Msg(channel=a):
                if a not in cf.binders:
                    yield ParticleMatch(cf.calculus, cf.binders, a,
                                        _drop(cf.parts, i))


