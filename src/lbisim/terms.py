"""Abstract syntax shared by the three calculi.

A `Term` pairs a `Calculus` tag with an immutable syntax tree.  The same
node classes serve CCS, asynchronous CCS (ACCS) and the communication-free
fragment of mobile ambients (MA).  `_illegal` is the one statement of
which nodes each calculus admits (no summation in MA, no ambients outside
MA, output particles only in ACCS, guarded summands, and so on), one node
at a time: the parser applies it to each node it builds, `check_node` to
each subtree of a tree built in code.

Extended syntax adds process variables (`@X`) and ambient-name variables
(`?x[...]`, MA only).  A term with no variables is *pure*.  Labels are
terms with exactly one hole `-`; they double as the unary contexts of the
instance transition systems.  Plugging a label, renaming variables,
substituting for them and renaming free names are one walk, `_subst`:
plugging substitutes the term for the hole, renaming substitutes
variables for variables or names for free names.  It states the one
rule for fresh binder names: a binder is renamed when its name is a
renaming target or a free name of what is put into its body, to the
least `f0`, `f1`, ... that no name in play or free in the body holds.

Names, actions and nodes are interned (hash-consed): constructing one
that is structurally equal to a live object returns that object, so
`==` is `is` and hashing is O(1) whatever the tree's size.  Construction
is positional, fields in declaration order (`Prefix(Recv("a"), Nil())`);
`match` class patterns work as with dataclasses.  A node is built once,
so it stores four facts then, computed from its children's: its sort
key `key`, its free names `free`, its variable occurrences `vars` and
its hole count `holes` (see `Node`).  A node shares a child's set or
tuple when its own would be equal, so pure nodes share `()`; facts live
and die with their nodes, and no traversal recomputes them.  `Term`, `Label` and
`Substitution` stay dataclasses and compare their interned fields.
"""
from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from enum import Enum

from .errors import (
    CrossCalculusError,
    IncompleteSubstitutionError,
    MalformedTermError,
)


class Calculus(Enum):
    CCS = "ccs"
    ACCS = "accs"
    MA = "ma"

    # Members are singletons, so identity hashing (in C) agrees with
    # equality; `Enum.__hash__` is Python code that hashes the name, and
    # every cache key holds a calculus.
    __hash__ = object.__hash__


# --- syntax tree -----------------------------------------------------------

# Interned nodes by (class, *fields).  An entry holds only a weak
# reference, so a node dies with its last outside reference and its
# entry with it.
_INTERNED: dict = {}


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _forget(ref: _Ref, _table=_INTERNED) -> None:
    # A newer node may already have taken the key of a dead one.
    if _table.get(ref.key) is ref:
        del _table[ref.key]


class _Interned:
    """Hash-consed immutable syntax: constructing a node that already
    exists returns the existing object, so `==` and `hash` are identity.

    A subclass lists its fields in `__slots__`; construction is
    positional, in that order, as with `match` class patterns.  A
    concrete subclass also defines `_facts(*fields)`, which returns the
    values of the `_FACTS` slots; `__new__` stores them when it creates
    the object, so an intern hit costs nothing extra.
    """
    __slots__ = ("__weakref__", "key", "free", "vars")
    _FACTS = ("key", "free", "vars")

    def __init_subclass__(cls):
        if "_facts" not in cls.__dict__:
            return                  # an abstract base: Node
        cls.__match_args__ = cls.__slots__
        cls._setters = tuple(getattr(cls, f).__set__
                             for f in (*cls.__slots__, *cls._FACTS))

    def __new__(cls, *fields):
        key = (cls, *fields)
        ref = _INTERNED.get(key)
        if ref is not None:
            obj = ref()
            if obj is not None:
                return obj
        if len(fields) != len(cls.__slots__):
            raise TypeError(f"{cls.__name__} takes {len(cls.__slots__)} "
                            f"positional fields, got {len(fields)}")
        obj = object.__new__(cls)
        for setter, value in zip(cls._setters, fields + cls._facts(*fields)):
            setter(obj, value)
        ref = _Ref(obj, _forget)
        ref.key = key
        _INTERNED[key] = ref
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}"
                           for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


_NO_NAMES: frozenset = frozenset()
_NO_SUB: dict = {}                  # never written: the empty replacement
_CAP_OPS = {"in": 0, "out": 1, "open": 2}


def _union(a: frozenset, b: frozenset) -> frozenset:
    """a | b, reusing an operand that already holds the other."""
    if a <= b:
        return b
    if b <= a:
        return a
    return a | b


def _name_facts(n) -> tuple:
    """Key, free names and variables of an ambient name (a str or a
    NameVar)."""
    if isinstance(n, NameVar):
        return n.key, n.free, n.vars
    return (0, n), frozenset((n,)), ()


class NameVar(_Interned):
    """Ambient-name variable; ranges over ambient names, never bound."""
    __slots__ = ("name",)
    _facts = staticmethod(lambda x: ((1, x), _NO_NAMES, (("name", x),)))


class Tau(_Interned):
    __slots__ = ()
    _facts = staticmethod(lambda: ((0,), _NO_NAMES, ()))


class Recv(_Interned):
    __slots__ = ("channel",)
    _facts = staticmethod(lambda a: ((1, a), frozenset((a,)), ()))


class Send(_Interned):
    __slots__ = ("channel",)
    _facts = staticmethod(lambda a: ((2, a), frozenset((a,)), ()))


class Cap(_Interned):
    """Mobility capability: op is one of "in", "out", "open"."""
    __slots__ = ("op", "amb")       # amb: str | NameVar

    @staticmethod
    def _facts(op, amb):
        key, free, vs = _name_facts(amb)
        return (3, _CAP_OPS[op], key), free, vs


class Node(_Interned):
    """A syntax tree node.  Besides its fields, every node stores four
    facts, computed from its children's when it is first built:

      * `key`: its place in the total order on nodes, a tuple that
        compares like the tree (see `congruence.node_key`);
      * `free`: its free concrete names, a frozenset;
      * `vars`: its ("proc"|"name", name) variable occurrences in
        pre-order, repeats kept;
      * `holes`: how many holes it contains.

    A node whose free names or variables equal a child's shares the
    child's frozenset or tuple, and nodes without variables share `()`.
    Actions and name variables store the first three facts too.  The
    slot `canon` starts as None; `congruence` sets it to a calculus once
    the node is known to be canonical for that calculus (its mark).
    """
    __slots__ = ("holes", "canon")
    _FACTS = ("key", "free", "vars", "holes", "canon")


class Nil(Node):
    __slots__ = ()
    _facts = staticmethod(lambda: ((0,), _NO_NAMES, (), 0, None))


class Prefix(Node):
    __slots__ = ("action", "body")  # action: Tau | Recv | Send | Cap
    _facts = staticmethod(lambda act, b: (
        (4, act.key, b.key), _union(act.free, b.free), act.vars + b.vars,
        b.holes, None))


def _many(tag: int, children) -> tuple:
    keys = []
    free, vs, holes = _NO_NAMES, (), 0
    for c in children:
        keys.append(c.key)
        free = _union(free, c.free)
        vs += c.vars
        holes += c.holes
    return (tag, tuple(keys)), free, vs, holes, None


class Sum(Node):
    __slots__ = ("children",)       # tuple[Node, ...]
    _facts = staticmethod(lambda cs: _many(5, cs))


class Par(Node):
    __slots__ = ("children",)       # tuple[Node, ...]
    _facts = staticmethod(lambda cs: _many(8, cs))


class Restrict(Node):
    __slots__ = ("name", "body")
    _facts = staticmethod(lambda n, b: (
        (7, n, b.key), b.free - {n} if n in b.free else b.free, b.vars,
        b.holes, None))


class Amb(Node):
    __slots__ = ("name", "body")    # name: str | NameVar

    @staticmethod
    def _facts(n, b):
        key, free, vs = _name_facts(n)
        return ((6, key, b.key), _union(free, b.free), vs + b.vars, b.holes,
                None)


class Msg(Node):
    """ACCS output particle (an unguarded message in the ether)."""
    __slots__ = ("channel",)
    _facts = staticmethod(lambda a: ((3, a), frozenset((a,)), (), 0, None))


class ProcVar(Node):
    __slots__ = ("name",)
    _facts = staticmethod(lambda v: ((2, v), _NO_NAMES, (("proc", v),), 0,
                                     None))


class Hole(Node):
    __slots__ = ()
    _facts = staticmethod(lambda: ((1,), _NO_NAMES, (), 1, None))


@dataclass(frozen=True)
class Term:
    calculus: Calculus
    node: Node


@dataclass(frozen=True)
class Label:
    """A unary context: a node containing exactly one `Hole`."""
    calculus: Calculus
    body: Node

    @property
    def variables(self) -> tuple[str, ...]:
        """Variable names in first-use (pre-order) position order."""
        return tuple(dict.fromkeys(name for _, name in self.body.vars))


def free_names(node: Node) -> frozenset[str]:
    """Free concrete names (stored on the node).  Name variables
    contribute nothing."""
    return node.free


# --- well-formedness -------------------------------------------------------

# The nodes every calculus admits, in terms and labels alike (a prefix is
# judged by its action).
_ANYWHERE = frozenset((Nil, Prefix, Par, Restrict, ProcVar))


def _illegal(calc: Calculus, node, allow_hole: bool) -> "str | None":
    """The grammar of `calc`, one node or action at a time: why `node`
    may not occur in a term (or, if `allow_hole`, a label) of `calc`, or
    None.  It looks at no child but a summand's type, so a whole tree
    fits when each of its subtrees and actions does."""
    if type(node) in _ANYWHERE:
        return None
    match node:
        case Recv():
            if calc is Calculus.MA:
                return "channel prefixes do not exist in MA"
        case Tau():
            if calc is Calculus.MA:
                return "tau prefixes do not exist in MA"
        case Send():
            if calc is not Calculus.CCS:
                return "output prefixes exist only in CCS"
        case Cap():
            if calc is not Calculus.MA:
                return "capability prefixes are MA syntax"
        case Sum(children=cs):
            if calc is Calculus.MA:
                return "MA has no summation"
            if len(cs) < 2:
                return "sums need at least two summands"
            if not all(type(c) in (Nil, Prefix, Sum) for c in cs):
                return "unguarded summand"
        case Amb(name=n):
            if calc is not Calculus.MA:
                return ("ambient-name variables are MA syntax"
                        if isinstance(n, NameVar) else
                        "ambients exist only in MA")
        case Msg():
            if calc is not Calculus.ACCS:
                return "output particles exist only in ACCS"
        case Hole():
            if not allow_hole:
                return "the hole '-' is label syntax"
        case _:
            return f"unknown node {node!r}"
    return None


def check_node(calculus: Calculus, node: Node, *, allow_hole=False) -> None:
    """Raise MalformedTermError unless `node` fits `calculus`: `_illegal`
    passes each of its subtrees and actions, and no variable occurs
    twice.  For trees built in code; the parser checks as it builds."""
    seen: set = set()
    for var in node.vars:
        if var in seen:
            raise MalformedTermError(f"variable {var[1]!r} occurs twice")
        seen.add(var)
    stack = [node]
    while stack:
        node = stack.pop()
        why = _illegal(calculus, node, allow_hole)
        if why is not None:
            raise MalformedTermError(why)
        match node:
            case Prefix(action=act, body=b):
                stack += (act, b)
            case Sum(children=cs) | Par(children=cs):
                stack += cs
            case Restrict(body=b) | Amb(body=b):
                stack.append(b)


def same_calculus(a, b) -> Calculus:
    if a.calculus is not b.calculus:
        raise CrossCalculusError(
            f"cannot combine {a.calculus.value} with {b.calculus.value}")
    return a.calculus


# --- fresh names and renaming ---------------------------------------------

def fresh_name(avoid) -> str:
    """Smallest f0, f1, ... not in `avoid`."""
    return fresh_names(avoid, 1)[0]


def fresh_names(avoid, k: int) -> list[str]:
    avoid = set(avoid)
    out = []
    for i in itertools.count():
        if len(out) == k:
            break
        cand = f"f{i}"
        if cand not in avoid:
            out.append(cand)
    return out


def _ren_action(act, ren: dict, sub: dict = _NO_SUB):
    """`act` with its concrete names renamed by `ren` and its name
    variable, if any, replaced by `sub` (keyed by `NameVar`)."""
    match act:
        case Recv(channel=a):
            return Recv(ren.get(a, a))
        case Send(channel=a):
            return Send(ren.get(a, a))
        case Cap(op=op, amb=n):
            return Cap(op, ren.get(n, sub.get(n, n)))
    return act


def rename_free(node: Node, ren: dict) -> Node:
    """Rename free concrete names by `ren`, through `_subst`: binders
    shadow, and a binder that collides with a target is renamed."""
    return _subst(node, {}, None, _NO_NAMES, ren)


def rename_vars(node: Node, procs: dict, names: dict) -> Node:
    """Rename variables: @v becomes @procs[v] and ?x becomes ?names[x].
    No binder is freshened, for variables are never bound.  A subtree
    without variables is returned as it stands."""
    if not (procs or names):
        return node             # most calls rename nothing: spare the maps
    return _subst(node, {ProcVar(v): ProcVar(w) for v, w in procs.items()}
                  | {NameVar(x): NameVar(y) for x, y in names.items()},
                  None, _NO_NAMES, {})


# --- substitution ----------------------------------------------------------

@dataclass(frozen=True)
class Substitution:
    """Maps process variables to pure terms and name variables to names."""
    calculus: Calculus
    procs: tuple[tuple[str, Node], ...] = ()
    names: tuple[tuple[str, str], ...] = ()

    @staticmethod
    def make(calculus: Calculus, procs=None, names=None) -> "Substitution":
        procs = dict(procs or {})
        names = dict(names or {})
        for v, n in procs.items():
            if isinstance(n, Term):
                if n.calculus is not calculus:
                    raise CrossCalculusError(
                        f"substitution for @{v} is a "
                        f"{n.calculus.value} term")
                n = n.node
                procs[v] = n
            if n.vars:
                raise MalformedTermError(
                    f"substitution for @{v} must be pure")
            check_node(calculus, n)
        return Substitution(calculus,
                            tuple(sorted(procs.items())),
                            tuple(sorted(names.items())))

    @property
    def proc_map(self) -> dict:
        return dict(self.procs)

    @property
    def name_map(self) -> dict:
        return dict(self.names)


def _subst(node: Node, sub: dict, hole: "Node | None", danger: frozenset,
           ren: dict) -> Node:
    """The one walk behind substitution, renaming and plugging: replace
    each variable in `sub` (keyed by `ProcVar` and `NameVar`) by its
    value, rename each free concrete name in `ren` and, unless `hole` is
    None, replace the hole by `hole`.  What is put in is not walked;
    `danger` holds its free names.

    The one fresh-name rule: a binder shadows its name in `ren`, and it
    is renamed when its name is a target of `ren`, or is in `danger`
    while its body holds the hole or, `sub` being non-empty, a variable.
    The new name is the least fresh name outside `danger`, the names and
    targets of `ren` and the body's free names; it joins `ren` for the
    body, which is walked once.  A binder above that the body does not
    name may be reused, as that shadows nothing the body sees.

    A subtree with nothing to put in is returned as it stands, but under
    a renaming every subtree is walked, so a binder named like a target
    is renamed even where the renamed name does not occur below it.
    `rename_free` has always named binders so, and `congruent_shuffle`
    draws its random shuffles through those names: skipping such
    subtrees would change which inputs the corpus checks draw."""
    moves = sub and node.vars or hole is not None and node.holes
    if not (ren or moves):
        return node
    match node:
        case ProcVar():
            return sub.get(node, node)
        case Hole():
            return node if hole is None else hole
        case Nil():
            return node
        case Msg(channel=a):
            return Msg(ren.get(a, a))
        case Prefix(action=act, body=b):
            return Prefix(_ren_action(act, ren, sub),
                          _subst(b, sub, hole, danger, ren))
        case Sum(children=cs) | Par(children=cs):
            return type(node)(tuple(_subst(c, sub, hole, danger, ren)
                                    for c in cs))
        case Amb(name=n, body=b):
            return Amb(ren.get(n, sub.get(n, n)),
                       _subst(b, sub, hole, danger, ren))
        case Restrict(name=n, body=b):
            # a restriction's variables and holes are its body's: `moves`
            # says whether anything is put into b
            ren = {k: v for k, v in ren.items() if k != n}
            if n in ren.values() or moves and n in danger:
                ren[n] = fresh_name({*danger, *ren, *ren.values(), *b.free})
            return Restrict(ren.get(n, n), _subst(b, sub, hole, danger, ren))
    raise TypeError(f"not a node: {node!r}")


def _apply(subst: Substitution, node: Node) -> Node:
    """Capture-avoiding substitution into `node`, the hole left alone."""
    sub = ({ProcVar(v): n for v, n in subst.procs}
           | {NameVar(x): n for x, n in subst.names})
    danger = frozenset(n for _, n in subst.names).union(
        *(n.free for _, n in subst.procs))
    return _subst(node, sub, None, danger, {})


def apply_subst(term: Term, subst: Substitution) -> Term:
    """Capture-avoiding substitution: binders whose names clash with free
    names of substituted material are renamed fresh."""
    if term.calculus is not subst.calculus:
        raise CrossCalculusError(
            f"{subst.calculus.value} substitution applied to a "
            f"{term.calculus.value} term")
    return Term(term.calculus, _apply(subst, term.node))


def close_label(label: Label, subst: Substitution) -> Label:
    """Substitute into a label body, leaving the hole alone."""
    if label.calculus is not subst.calculus:
        raise CrossCalculusError("substitution and label disagree on calculus")
    closing = subst.proc_map | subst.name_map
    missing = [v for v in label.variables if v not in closing]
    if missing:
        raise IncompleteSubstitutionError(
            f"label variables left open: {', '.join(missing)}")
    return Label(label.calculus, _apply(subst, label.body))


# --- plugging --------------------------------------------------------------

def plug(label: Label, term: Term) -> Term:
    """Place `term` in the hole of `label`, avoiding capture of its free
    names by the label's binders."""
    if label.calculus is not term.calculus:
        raise CrossCalculusError(
            f"cannot plug a {term.calculus.value} term into a "
            f"{label.calculus.value} context")
    node = _subst(label.body, {}, term.node, term.node.free, {})
    return Term(term.calculus, node)


def make_label(calculus: Calculus, body: Node) -> Label:
    if body.holes != 1:
        raise MalformedTermError("a label needs exactly one hole")
    check_node(calculus, body, allow_hole=True)
    return Label(calculus, body)


NIL = Nil()


def par(*nodes: Node) -> Node:
    parts = [n for n in nodes if not isinstance(n, Nil)]
    if not parts:
        return NIL
    if len(parts) == 1:
        return parts[0]
    return Par(tuple(parts))


def restricts(names, body: Node) -> Node:
    for n in reversed(list(names)):
        body = Restrict(n, body)
    return body
