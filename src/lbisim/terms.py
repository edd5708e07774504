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
so its class's `_init` stores its fields and five facts then, on a
private construction twin of the class (see `_Interned`): four computed
from its children's (its sort key `key`, its free names `free`, its
variable occurrences `vars`, its hole count `holes`) and its canonical
mark `canon`, None until `congruence` sets it to True.  A node
shares a child's set or tuple when its own would be equal, so pure
nodes share `()`; facts live and die with their nodes, and no traversal
recomputes them.  `Term`, `Label` and `Substitution` stay dataclasses
and compare their interned fields.
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
    # every Term, a key of most caches, holds a calculus.
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
    concrete subclass defines `_init(self, *fields)`, which stores the
    fields and their facts with plain `self.x = ...` stores; a class
    without one is abstract.  Those stores run on the class's private
    construction twin `_raw`, a subclass whose `__setattr__` and
    `__delattr__` are object's: an intern miss builds a twin, fills it
    and only then gives it the public class, so no twin escapes.  The
    twin restores both: CPython keeps them in one type slot, and with
    one restored every store would still run Python code.
    """
    __slots__ = ("__weakref__", "key", "free", "vars")
    _raw = None                     # the construction twin, if concrete

    def __init_subclass__(cls):
        if "_init" not in cls.__dict__:
            return                  # an abstract base (Node), or a twin
        cls.__match_args__ = cls.__slots__
        cls._raw = type(cls.__name__, (cls,), {
            "__slots__": (), "__setattr__": object.__setattr__,
            "__delattr__": object.__delattr__})

    def __new__(cls, *fields):
        key = (cls, *fields)
        ref = _INTERNED.get(key)
        if ref is not None:
            obj = ref()
            if obj is not None:
                return obj
        raw = cls._raw
        if raw is None:
            raise TypeError(f"{cls.__name__} is an abstract node class; "
                            f"build one of its subclasses")
        if len(fields) != len(cls.__slots__):
            raise TypeError(f"{cls.__name__} takes {len(cls.__slots__)} "
                            f"positional fields, got {len(fields)}")
        obj = object.__new__(raw)
        obj._init(*fields)
        obj.__class__ = cls
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

    def _init(self, x):
        self.name, self.key, self.free = x, (1, x), _NO_NAMES
        self.vars = (("name", x),)


class Tau(_Interned):
    __slots__ = ()

    def _init(self):
        self.key, self.free, self.vars = (0,), _NO_NAMES, ()


class Recv(_Interned):
    __slots__ = ("channel",)

    def _init(self, a):
        self.channel, self.key, self.free = a, (1, a), frozenset((a,))
        self.vars = ()


class Send(_Interned):
    __slots__ = ("channel",)

    def _init(self, a):
        self.channel, self.key, self.free = a, (2, a), frozenset((a,))
        self.vars = ()


class Cap(_Interned):
    """Mobility capability: op is one of "in", "out", "open"."""
    __slots__ = ("op", "amb")       # amb: str | NameVar

    def _init(self, op, amb):
        key, self.free, self.vars = _name_facts(amb)
        self.op, self.amb, self.key = op, amb, (3, _CAP_OPS[op], key)


class Node(_Interned):
    """A syntax tree node, abstract.  Besides its fields, every node
    stores five facts, set by its class's `_init` from its children's
    when it is first built:

      * `key`: its place in the total order on nodes, a tuple that
        compares like the tree (see `congruence.node_key`);
      * `free`: its free concrete names, a frozenset;
      * `vars`: its ("proc"|"name", name) variable occurrences in
        pre-order, repeats kept;
      * `holes`: how many holes it contains;
      * `canon`: None when built; `congruence` sets it to True, through
        the slot's own setter, once the node is a canonical form.

    A node whose free names or variables equal a child's shares the
    child's frozenset or tuple, and nodes without variables share `()`.
    Actions and name variables store the first three facts too.
    """
    __slots__ = ("holes", "canon")


class Nil(Node):
    __slots__ = ()

    def _init(self):
        self.key, self.free, self.vars = (0,), _NO_NAMES, ()
        self.holes, self.canon = 0, None


class Prefix(Node):
    __slots__ = ("action", "body")  # action: Tau | Recv | Send | Cap

    def _init(self, act, b):
        self.action, self.body, self.key = act, b, (4, act.key, b.key)
        self.free, self.vars = _union(act.free, b.free), act.vars + b.vars
        self.holes, self.canon = b.holes, None


def _many(tag: int):
    """The `_init` of a node whose field is a tuple of children."""
    def _init(self, children):
        keys = []
        free, vs, holes = _NO_NAMES, (), 0
        for c in children:
            keys.append(c.key)
            free = _union(free, c.free)
            vs += c.vars
            holes += c.holes
        self.children, self.free, self.vars = children, free, vs
        self.key, self.holes, self.canon = (tag, tuple(keys)), holes, None
    return _init


class Sum(Node):
    __slots__ = ("children",)       # tuple[Node, ...]
    _init = _many(5)


class Par(Node):
    __slots__ = ("children",)       # tuple[Node, ...]
    _init = _many(8)


class Restrict(Node):
    __slots__ = ("name", "body")

    def _init(self, n, b):
        self.name, self.body, self.key = n, b, (7, n, b.key)
        self.free = b.free - {n} if n in b.free else b.free
        self.vars, self.holes, self.canon = b.vars, b.holes, None


class Amb(Node):
    __slots__ = ("name", "body")    # name: str | NameVar

    def _init(self, n, b):
        key, free, vs = _name_facts(n)
        self.name, self.body, self.key = n, b, (6, key, b.key)
        self.free, self.vars = _union(free, b.free), vs + b.vars
        self.holes, self.canon = b.holes, None


class Msg(Node):
    """ACCS output particle (an unguarded message in the ether)."""
    __slots__ = ("channel",)

    def _init(self, a):
        self.channel, self.key, self.free = a, (3, a), frozenset((a,))
        self.vars, self.holes, self.canon = (), 0, None


class ProcVar(Node):
    __slots__ = ("name",)

    def _init(self, v):
        self.name, self.key, self.free = v, (2, v), _NO_NAMES
        self.vars, self.holes, self.canon = (("proc", v),), 0, None


class Hole(Node):
    __slots__ = ()

    def _init(self):
        self.key, self.free, self.vars = (1,), _NO_NAMES, ()
        self.holes, self.canon = 1, None


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


def rename_vars(node: Node, names: dict) -> Node:
    """Rename name variables: ?x becomes ?names[x].  No binder is
    freshened, for variables are never bound.  A subtree without
    variables is returned as it stands."""
    if not names:
        return node             # most calls rename nothing: spare the map
    return _subst(node, {NameVar(x): NameVar(y) for x, y in names.items()},
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
