"""Term corpora and the cross-check suite.

`enumerate_terms` lists all closed terms by increasing syntactic size
(deduplicated up to structural congruence), which gives small exhaustive
corpora; `random_term` and `congruent_shuffle` generate property-test
inputs.  The shuffle applies literal congruence axioms at random
positions, so its output is provably congruent to its input — that makes
it an oracle for `equiv` and for congruence-invariance of reductions.
`axiom_closure` is the matching completeness oracle: a bounded
breadth-first search over single literal axiom steps.

The `check_*` functions each return a `CheckOutcome`; the CLI `corpus`
verb and the acceptance tests share them.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from functools import lru_cache

from .congruence import (
    canonical_label, canonical_term, components, equiv, node_key,
)
from .equivalence import (
    ALL, EMPTY, LM, OWN_LABEL_SETS, PRED_KINDS, check, is_capturing,
    pred_targets,
)
from .errors import DivergenceBudgetExceededError, LbisimError, ParseError
from .lts import its_transitions, ordinary_transitions, instantiate
from .reduction import reduct_terms
from .terms import (
    Amb, Calculus, Cap, Hole, Label, Msg, Nil, Node, Par, Prefix,
    ProcVar, Recv, Restrict, Send, Substitution, Sum, Tau, Term,
    _ren_action, free_names, par, plug, rename_free,
)
from .syntax import (is_name, parse_label, parse_term, print_label,
                     print_term)


# --- enumeration -----------------------------------------------------------

def _actions(calc: Calculus, names):
    if calc is Calculus.MA:
        return [Cap(op, n) for op in ("in", "out", "open") for n in names]
    acts = [Tau()] + [Recv(a) for a in names]
    if calc is Calculus.CCS:
        acts += [Send(a) for a in names]
    return acts


@lru_cache(maxsize=None)
def _terms_of_size(calc: Calculus, names: tuple, size: int,
                   max_depth: int) -> tuple:
    """Raw terms of exactly `size` constructors and depth <= `max_depth`."""
    if size <= 0 or max_depth < 0:
        return ()
    if size == 1:
        base = [Nil()]
        if calc is Calculus.ACCS:
            base += [Msg(a) for a in names]
        return tuple(base)
    out = []
    acts = _actions(calc, names)
    for body in _terms_of_size(calc, names, size - 1, max_depth - 1):
        for act in acts:
            out.append(Prefix(act, body))
        for n in names:
            out.append(Restrict(n, body))
        if calc is Calculus.MA:
            for n in names:
                out.append(Amb(n, body))
    for left_size in range(1, size - 1):
        right_size = size - 1 - left_size
        if left_size > right_size:
            break
        lefts = _terms_of_size(calc, names, left_size, max_depth - 1)
        rights = _terms_of_size(calc, names, right_size, max_depth - 1)
        for t1 in lefts:
            for t2 in rights:
                out.append(Par((t1, t2)))
                if calc is not Calculus.MA and _summable(t1) and _summable(t2):
                    out.append(Sum((t1, t2)))
    return tuple(out)


def _summable(node: Node) -> bool:
    return isinstance(node, (Prefix, Sum))


_MAX_SIZE = 7          # the largest term `enumerate_terms` lists


def enumerate_terms(calc: Calculus, names, *, count: int,
                    max_depth: int = 3) -> list[Term]:
    """The first `count` closed terms in (size, canonical-order) order,
    deduplicated up to congruence and capped at `max_depth` and at
    `_MAX_SIZE` constructors."""
    names = tuple(names)
    seen = set()
    out: list[Term] = []
    for size in range(1, _MAX_SIZE + 1):
        batch = []
        for raw in _terms_of_size(calc, names, size, max_depth):
            t = canonical_term(Term(calc, raw))
            if t.node in seen:
                continue
            seen.add(t.node)
            batch.append(t)
        batch.sort(key=lambda t: node_key(t.node))
        out.extend(batch)
        if len(out) >= count:
            return out[:count]
    return out


def _pair_prefix(count: int) -> int:
    """The least k >= 2 whose k terms make at least `count` pairs."""
    k = max(2, (1 + math.isqrt(8 * count)) // 2)
    while k * (k - 1) // 2 < count:
        k += 1
    return k


def term_pairs(terms, count: int):
    """Deterministic distinct pairs: the first `count` combinations of
    the corpus's first `_pair_prefix(count)` terms (of all of them, if
    the corpus is shorter)."""
    pairs = list(itertools.combinations(terms[:_pair_prefix(count)], 2))
    return pairs[:count]


# --- random terms ----------------------------------------------------------

def random_term(calc: Calculus, names, rng: random.Random, *,
                max_depth: int = 4, allow_vars: bool = False) -> Term:
    names = tuple(names)
    acts = _actions(calc, names)    # built once, drawn from at each prefix
    var_ids = itertools.count(1)
    # the draws, in the order the pinned corpus digests depend on
    tail = (["msg"] if calc is Calculus.ACCS else []) + (
        ["pvar"] if allow_vars else [])
    leaf = ["nil", "prefix", "prefix", *tail]
    inner = ["nil", "prefix", "prefix", "par", "par", "restrict",
             *(["amb", "amb"] if calc is Calculus.MA else ["sum"]), *tail]

    def node(fuel) -> Node:
        match rng.choice(inner if fuel > 0 else leaf):
            case "nil":
                return Nil()
            case "msg":
                return Msg(rng.choice(names))
            case "pvar":
                return ProcVar(f"Y{next(var_ids)}")
            case "prefix":
                return Prefix(rng.choice(acts), node(fuel - 1))
            case "restrict":
                return Restrict(rng.choice(names), node(fuel - 1))
            case "amb":
                return Amb(rng.choice(names), node(fuel - 1))
            case "par":
                k = rng.choice((2, 2, 3))
                return Par(tuple(node(fuel - 1) for _ in range(k)))
            case "sum":
                return Sum(tuple(Prefix(rng.choice(acts), node(fuel - 1))
                                 for _ in range(rng.choice((2, 2, 3)))))
        raise AssertionError

    return Term(calc, node(max_depth))


# --- congruent shuffling ---------------------------------------------------

_POOL = tuple(f"g{i}" for i in range(8))


def congruent_shuffle(term: Term, rng: random.Random) -> Term:
    """A provably congruent variant: applies literal congruence axioms
    (commutativity, associativity, units, alpha, vacuous restriction, and
    scope mobility across parallel composition, ambients and capability
    prefixes) at random positions, in three passes."""
    node = term.node
    for _ in range(3):
        node = _shuffle(node, rng)
    return Term(term.calculus, node)


def _shuffle(node: Node, rng) -> Node:
    match node:
        case Prefix(action=act, body=b):
            b = _shuffle(b, rng)
            node = Prefix(act, b)
            if type(act) is Cap and isinstance(b, Restrict) \
                    and rng.random() < 0.3:
                blocked = free_names(Prefix(act, Nil()))
                if b.name not in blocked:
                    node = Restrict(b.name, Prefix(act, b.body))
        case Amb(name=n, body=b):
            b = _shuffle(b, rng)
            node = Amb(n, b)
            if isinstance(b, Restrict) and b.name != n \
                    and rng.random() < 0.3:
                node = Restrict(b.name, Amb(n, b.body))
        case Par(children=cs) | Sum(children=cs):
            op = type(node)
            cs = [_shuffle(c, rng) for c in cs]
            rng.shuffle(cs)
            if rng.random() < 0.2:
                cs.append(Nil())
            if len(cs) > 2 and rng.random() < 0.3:
                i = rng.randrange(len(cs) - 1)
                cs[i:i + 2] = [op(tuple(cs[i:i + 2]))]
            # scope extrusion: pull a restriction out of one child
            outs = [i for i, c in enumerate(cs)
                    if op is Par and isinstance(c, Restrict)
                    and all(c.name not in free_names(d)
                            for j, d in enumerate(cs) if j != i)]
            if outs and rng.random() < 0.4:
                i = rng.choice(outs)
                inner = list(cs)
                inner[i] = cs[i].body
                return Restrict(cs[i].name, Par(tuple(inner)))
            node = op(tuple(cs)) if len(cs) > 1 else cs[0]
        case Restrict(name=n, body=b):
            b = _shuffle(b, rng)
            node = Restrict(n, b)
            r = rng.random()
            if r < 0.25:
                # alpha-rename the binder
                fresh = [m for m in _POOL
                         if m != n and m not in free_names(b)]
                if fresh:
                    m = rng.choice(fresh)
                    node = Restrict(m, rename_free(b, {n: m}))
            elif r < 0.4 and isinstance(b, Restrict):
                node = Restrict(b.name, Restrict(n, b.body))
            elif r < 0.55 and isinstance(b, Par):
                # push the binder onto the children that use the name
                using = [c for c in b.children if n in free_names(c)]
                spare = [c for c in b.children if n not in free_names(c)]
                if spare and len(using) >= 1:
                    kept = Restrict(n, using[0] if len(using) == 1
                                    else Par(tuple(using)))
                    node = Par(tuple([kept] + spare))
            elif r < 0.65 and n not in free_names(b):
                node = b  # drop a vacuous restriction
        case _:
            pass
    if rng.random() < 0.08:
        scrap = [m for m in _POOL if m not in free_names(node)]
        if scrap:
            node = Restrict(rng.choice(scrap), node)  # vacuous restriction
    if rng.random() < 0.08:
        node = Par((node, Nil())) if rng.random() < 0.5 else Par((Nil(), node))
    return node


# --- literal axiom closure (completeness oracle) ---------------------------

def _with_child(node: Node, i: int, child: Node) -> Node:
    match node:
        case Prefix(action=act):
            return Prefix(act, child)
        case Restrict(name=n):
            return Restrict(n, child)
        case Amb(name=n):
            return Amb(n, child)
        case Par(children=cs):
            return Par(cs[:i] + (child,) + cs[i + 1:])
        case Sum(children=cs):
            return Sum(cs[:i] + (child,) + cs[i + 1:])
    raise TypeError


def _children(node: Node):
    match node:
        case Prefix(body=b) | Restrict(body=b) | Amb(body=b):
            return (b,)
        case Par(children=cs) | Sum(children=cs):
            return cs
        case _:
            return ()


def _axiom_neighbours(node: Node, pool):
    """One literal axiom step at the root, both directions; a binder
    crosses an ambient or a capability prefix, never a channel prefix."""
    match node:
        case Par(children=cs) | Sum(children=cs):
            op = type(node)
            for perm in itertools.permutations(cs):
                if perm != cs:
                    yield op(perm)
            for i in range(len(cs) - 1):       # nest two neighbours
                yield op(cs[:i] + (op(cs[i:i + 2]),) + cs[i + 2:])
            for i, c in enumerate(cs):
                if isinstance(c, op):          # flatten a nested one
                    yield op(cs[:i] + c.children + cs[i + 1:])
                if isinstance(c, Nil):         # drop a unit
                    rest = cs[:i] + cs[i + 1:]
                    yield rest[0] if len(rest) == 1 else op(rest)
                # scope extrusion, inward-out
                if op is Par and isinstance(c, Restrict):
                    others = cs[:i] + cs[i + 1:]
                    if all(c.name not in free_names(d) for d in others):
                        yield Restrict(c.name,
                                       Par((c.body,) + others)
                                       if others else c.body)
            yield op(cs + (Nil(),))
        case Restrict(name=n, body=b):
            for m in pool:                     # alpha
                if m != n and m not in free_names(b):
                    yield Restrict(m, rename_free(b, {n: m}))
            if isinstance(b, Restrict):        # swap binders
                yield Restrict(b.name, Restrict(n, b.body))
            if isinstance(b, Par):             # extrusion, outward-in
                for i, c in enumerate(b.children):
                    others = b.children[:i] + b.children[i + 1:]
                    if all(n not in free_names(d) for d in others):
                        inner = Restrict(n, c)
                        yield Par((inner,) + others)
            if isinstance(b, Amb) and isinstance(b.name, str) \
                    and b.name != n:
                yield Amb(b.name, Restrict(n, b.body))
            if isinstance(b, Prefix) and type(b.action) is Cap \
                    and n not in free_names(Prefix(b.action, Nil())):
                yield Prefix(b.action, Restrict(n, b.body))
            if n not in free_names(b):         # convention: vacuous drop
                yield b
        case Amb(name=n, body=b):
            if isinstance(b, Restrict) and b.name != n:
                yield Restrict(b.name, Amb(n, b.body))
        case Prefix(action=act, body=b):
            if type(act) is Cap and isinstance(b, Restrict) \
                    and b.name not in free_names(Prefix(act, Nil())):
                yield Restrict(b.name, Prefix(act, b.body))
    # unit introduction anywhere
    yield Par((node, Nil()))
    for m in pool:
        if m not in free_names(node):
            yield Restrict(m, node)            # convention, reverse


def _all_neighbours(node: Node, pool):
    yield from _axiom_neighbours(node, pool)
    for i, c in enumerate(_children(node)):
        for c2 in _all_neighbours(c, pool):
            yield _with_child(node, i, c2)


def _closure(t: Term, pool):
    """The raw syntax trees reachable from t by literal axiom steps,
    breadth-first: t first, then every new tree once."""
    seen = {t.node}
    frontier = [t.node]
    yield t.node
    while frontier:
        nxt = []
        for n in frontier:
            for m in _all_neighbours(n, pool):
                if m not in seen:
                    seen.add(m)
                    nxt.append(m)
                    yield m
        frontier = nxt


def axiom_closure(t1: Term, t2: Term, *, max_terms: int = 20000):
    """Is t2 reachable from t1 by literal axiom steps?  Returns True or
    None (budget hit; the step space is infinite, so absence is never
    definite)."""
    pool = tuple(sorted(free_names(t1.node) | free_names(t2.node)))[:3] \
        + ("f0", "f1")
    # t1, never over budget, then new trees until the closure holds more
    # than max_terms, the tree that overflows it tested too
    reach = itertools.islice(_closure(t1, pool), max(max_terms, 1) + 1)
    return True if t2.node in reach else None


def bounded_closure(t: Term, max_terms: int) -> set:
    """Up to `max_terms` distinct raw syntax trees reachable from t by
    literal axiom steps (t itself at least)."""
    pool = tuple(sorted(free_names(t.node)))[:2] + ("f0",)
    return set(itertools.islice(_closure(t, pool), max(max_terms, 1)))


# --- check suite -----------------------------------------------------------

@dataclass
class CheckOutcome:
    name: str
    total: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {"name": self.name, "total": self.total,
                "failures": self.failures[:10], "ok": self.ok}


def _random_check(name: str, calc: Calculus, count: int, rng, names, bad,
                  *, vars_every: int = 0, max_depth: int = 4) -> CheckOutcome:
    """`count` random terms of `calc` over `names`, every `vars_every`-th
    with process variables (none if 0).  `bad(t)` is the failure text of
    a term that breaks the check's property, None if it holds."""
    fails = []
    for k in range(count):
        t = random_term(calc, names, rng, max_depth=max_depth,
                        allow_vars=vars_every > 0 and k % vars_every == 0)
        case = bad(t)
        if case is not None:
            fails.append(case)
    return CheckOutcome(f"{name}-{calc.value}", count, fails)


def check_roundtrip(calc: Calculus, count: int, rng: random.Random,
                    names=("a", "b", "c")) -> CheckOutcome:
    def bad(t):
        text = print_term(t)
        back = parse_term(text, calc)
        if back.node != t.node or print_term(back) != text:
            return text
    return _random_check("roundtrip", calc, count, rng, names, bad,
                         vars_every=5)


def _respelled(node: Node, fresh, ren: dict) -> Node:
    """A spelling of `node` with its free names renamed by `ren`, in
    which only a chain of prefixes and ambients down to a leaf may be
    canonical: each binder is renamed to the next name of the iterator
    `fresh`, whose names occur nowhere in `node`, and each sum and
    parallel composition has its children reversed and a 0 added."""
    match node:
        case Restrict(name=n, body=b):
            m = next(fresh)
            return Restrict(m, _respelled(b, fresh, {**ren, n: m}))
        case Prefix(action=act, body=b):
            return Prefix(_ren_action(act, ren), _respelled(b, fresh, ren))
        case Amb(name=n, body=b):
            return Amb(ren.get(n, n), _respelled(b, fresh, ren))
        case Msg(channel=a):
            return Msg(ren.get(a, a))
        case Par(children=cs) | Sum(children=cs):
            return type(node)((*(_respelled(c, fresh, ren)
                                 for c in reversed(cs)), Nil()))
    return node


def check_idempotence(calc: Calculus, count: int, rng: random.Random,
                      names=("a", "b", "c")) -> CheckOutcome:
    """c1 = canonical_term(t) must be the canonical form of its printed
    text read back and of its `_respelled` spelling.  `canonical_term(c1)`
    would return c1 unread, as c1 carries the mark of a canonical node
    (see `congruence`).  The respelling carries a mark only on a chain of
    prefixes and ambients down to a leaf, which is its own canonical
    form with nothing in it to sort or place, so all of the rest of c1
    is canonicalised again: every cluster searched, every composition
    and sum flattened and sorted."""
    def bad(t):
        c1 = canonical_term(t)
        if canonical_term(parse_term(print_term(c1), calc)).node != c1.node:
            return print_term(t)
        fresh = (m for i in itertools.count()
                 if (m := f"r{i}") not in c1.node.free)
        again = canonical_term(Term(calc, _respelled(c1.node, fresh, {})))
        if again.node != c1.node:
            return print_term(t)
    return _random_check("canonical-idempotent", calc, count, rng, names,
                         bad, vars_every=7)


def check_axiom_soundness(calc: Calculus, count: int, rng: random.Random,
                          names=("a", "b", "c")) -> CheckOutcome:
    """Every literal axiom step must be invisible to `canonical_term`:
    each random term is compared with up to 300 trees of its closure."""
    def bad(t):
        want = canonical_term(t).node
        if any(canonical_term(Term(calc, n)).node != want
               for n in bounded_closure(t, 300)):
            return print_term(t)
    return _random_check("axiom-soundness", calc, count, rng, names, bad,
                         max_depth=3)


def _against_shuffle(same, rng):
    """The `bad` of a check that a random term and a congruent shuffle
    of it are `same`."""
    def bad(t):
        s = congruent_shuffle(t, rng)
        if not same(t, s):
            return f"{print_term(t)}  vs  {print_term(s)}"
    return bad


def check_shuffle_equiv(calc: Calculus, count: int, rng: random.Random,
                        names=("a", "b", "c")) -> CheckOutcome:
    return _random_check("shuffle-congruent", calc, count, rng, names,
                         _against_shuffle(equiv, rng))


def _reduct_keys(t: Term) -> list:
    return sorted(node_key(x.node) for x in reduct_terms(t))


def check_reducts_invariance(calc: Calculus, count: int, rng: random.Random,
                             names=("a", "b", "c")) -> CheckOutcome:
    return _random_check(
        "reducts-congruence-invariant", calc, count, rng, names,
        _against_shuffle(lambda t, s: _reduct_keys(t) == _reduct_keys(s),
                         rng))


def _expected_its(calc: Calculus, term: Term):
    """The ITS transition set predicted by the ordinary semantics."""
    x1 = ProcVar("X1")
    expected = set()
    for tr in ordinary_transitions(term):
        if tr.action == "tau":
            label, tgt = Hole(), tr.target.node
        elif calc is Calculus.CCS:
            if tr.action.startswith("'"):
                label = par(Hole(), Prefix(Recv(tr.action[1:]), x1))
            else:
                label = par(Hole(), Prefix(Send(tr.action), x1))
            tgt = par(tr.target.node, x1)
        else:
            if tr.action.startswith("'"):
                label = par(Hole(), Prefix(Recv(tr.action[1:]), x1))
                tgt = par(tr.target.node, x1)
            else:
                label = par(Hole(), Msg(tr.action))
                tgt = tr.target.node
        lab = canonical_label(Label(calc, label))
        expected.add((lab.body,
                      canonical_term(Term(calc, tgt)).node))
    return expected


def check_lts_correspondence(calc: Calculus, corpus) -> CheckOutcome:
    fails = []
    for t in corpus:
        actual = {(tr.label.body, tr.target.node) for tr in its_transitions(t)}
        expected = _expected_its(calc, t)
        if actual != expected:
            fails.append(print_term(t))
    return CheckOutcome(f"lts-correspondence-{calc.value}", len(corpus), fails)


def check_barb_capturing(corpus) -> CheckOutcome:
    """MA: P has barb n iff P has a transition labelled - | open n.X1,
    the label LM keeps for a barb, over the corpus's barbs and free
    names."""
    fails = [f"{t} barb {e.barb}"
             for e in is_capturing(LM, Calculus.MA, corpus).entries
             for t in e.violations]
    return CheckOutcome("barb-capturing-ma", len(corpus), fails)


def _acted_on(label: Label):
    """The name the prefix of a `- | open n.X1`, `- | a.X1` or
    `- | 'a.X1` label acts on."""
    for part in components(label.body):
        match part:
            case Prefix(action=Cap(amb=n) | Recv(channel=n) | Send(channel=n)):
                return n
    return None


_PRED_RULES = {"open": "CoOpen", "out": "Rcv", "in": "Snd", "tau": "Tau"}


def check_pred(calc: Calculus, corpus, t1_pool) -> CheckOutcome:
    """Each predicate kind of `calc` against the ITS transitions of its
    rule.  For every name the prefix may act on (the term's free names,
    or one name if it has none) and every T1, `pred_targets` must give
    the targets of the transitions acting on that name with X1 := T1.
    A tau step acts on no name and has no X1, so tau is checked once
    per term.  `pred` is membership in what `pred_targets` gives, so
    this checks it too."""
    fails = []
    for t in corpus:
        trs = its_transitions(t)
        names = sorted(free_names(t.node)) or [_DEFAULT_NAMES[calc][0]]
        for kind, rule in _PRED_RULES.items():
            if PRED_KINDS[kind] is not calc:
                continue
            here = [tr for tr in trs if tr.rule == rule]
            for name in [None] if kind == "tau" else names:
                on = [tr for tr in here if _acted_on(tr.label) == name]
                for t1 in [None] if name is None else t1_pool:
                    if t1 is None:
                        want = {tr.target.node for tr in on}
                    else:
                        subst = Substitution.make(calc, procs={"X1": t1})
                        want = {instantiate(tr, subst).target.node
                                for tr in on}
                    if set(pred_targets(kind, t, name, t1)) != want:
                        fails.append(f"{print_term(t)} {kind}" + (
                            "" if name is None
                            else f" {name} T1={print_term(t1)}"))
    return CheckOutcome(f"pred-{calc.value}", len(corpus), fails)


def _played(name: str, cases, play) -> CheckOutcome:
    """Play each case: `play(*case)` is its failure text, or None if it
    passes.  A case on which a game runs out of budget is skipped and
    not counted."""
    fails = []
    done = 0
    for case in cases:
        try:
            failure = play(*case)
        except DivergenceBudgetExceededError:
            continue
        done += 1
        if failure is not None:
            fails.append(failure)
    return CheckOutcome(name, done, fails)


def check_coincidence(calc: Calculus, pairs, *,
                      max_pairs: int) -> CheckOutcome:
    """Verdict agreement between l-bisim on the calculus's own label set
    and its classical counterpart: strong on CCS (LCCS), async on ACCS
    (LA).  A pair on which either game runs out of budget is skipped."""
    classical = "strong" if calc is Calculus.CCS else "async"
    labels = OWN_LABEL_SETS[calc]

    def play(p, q):
        if check(classical, p, q, max_pairs=max_pairs).verdict \
                != check("l-bisim", p, q, labels=labels,
                         max_pairs=max_pairs).verdict:
            return f"{print_term(p)}  vs  {print_term(q)}"
    return _played(f"coincidence-{classical}-{labels.name.lower()}", pairs,
                   play)


def check_endpoints(calc: Calculus, pairs, *,
                    max_pairs: int) -> CheckOutcome:
    """L-bisimilarity lies between its endpoints: for the calculus's L,
    IPO-equivalent pairs are L-equivalent and L-equivalent pairs are
    semi-saturated-equivalent.  A pair on which any of the three games
    runs out of budget is skipped."""
    chain = (ALL, OWN_LABEL_SETS[calc], EMPTY)

    def play(p, q):
        verdicts = [check("l-bisim", p, q, labels=labels,
                          max_pairs=max_pairs).verdict for labels in chain]
        for i in range(2):      # at most one: the middle verdict decides
            if verdicts[i] and not verdicts[i + 1]:
                return (f"{print_term(p)}  vs  {print_term(q)} "
                        f"({chain[i].name} but not {chain[i + 1].name})")
    return _played(f"endpoints-{calc.value}", pairs, play)


_CONTEXTS = {
    Calculus.CCS: ("- | a.0", "- | 'a.0", "- | a.b.0", "(nu a) -", "(nu c) -",
                   "b.-", "tau.-", "'a.-"),
    Calculus.ACCS: ("- | a.0", "- | 'a", "- | tau.0", "(nu a) -", "(nu c) -",
                    "b.-", "tau.-"),
    Calculus.MA: ("- | n[0]", "- | open n.0", "- | in m.0", "(nu n) -",
                  "(nu p) -", "k[-]", "n[-]", "open m.-", "in m.-",
                  "out m.-"),
}

# Pairs that l-bisim on the calculus's own label set relates although
# their canonical forms differ, so no plugged game is settled by
# canonical form alone.  The first ACCS pair is the paper's flagship:
# LA-equivalent, not IPO-equivalent.  The MA pairs are the firewall law
# and its variants.
_LAWS = {
    Calculus.CCS: (("0", "(nu a) a.0"), ("a.0 | b.0", "a.b.0 + b.a.0"),
                   ("a.0 + a.0", "a.0"), ("(nu a)(a.0 | 'a.b.0)", "tau.b.0"),
                   ("tau.0 | (nu c) c.0", "tau.0")),
    Calculus.ACCS: (("a.'a + tau.0", "tau.0"), ("0", "(nu a) 'a"),
                    ("a.0 + a.0", "a.0"), ("(nu a)(a.b.0 | 'a)", "tau.b.0"),
                    ("'a | (nu c) 'c", "'a")),
    Calculus.MA: (("(nu k) k[0]", "0"), ("m[(nu k) k[0]]", "m[0]"),
                  ("(nu k) k[(nu j) j[0]]", "0"),
                  ("n[0] | (nu k) k[0]", "n[0]"),
                  ("open n.0 | (nu k) k[0]", "open n.0")),
}


def check_congruence(calc: Calculus, count: int, *,
                     max_pairs: int) -> CheckOutcome:
    """l-bisim on the calculus's own label set survives plugging: `count`
    cases, each law of `_LAWS` in each context of `_CONTEXTS` in turn,
    starting over after the last.  A case that runs out of budget is
    skipped."""
    labels = OWN_LABEL_SETS[calc]
    laws = [(parse_term(p, calc), parse_term(q, calc)) for p, q in _LAWS[calc]]
    contexts = [parse_label(c, calc) for c in _CONTEXTS[calc]]
    cases = itertools.cycle(itertools.product(laws, contexts))

    def play(law, ctx):
        p, q = law
        if not check("l-bisim", plug(ctx, p), plug(ctx, q), labels=labels,
                     max_pairs=max_pairs).verdict:
            return (f"{print_term(p)} ~ {print_term(q)} "
                    f"under {print_label(ctx)}")
    return _played(f"congruence-{labels.name}-{calc.value}",
                   itertools.islice(cases, count), play)


# --- suite driver ----------------------------------------------------------

DEFAULT_CHECKS = {
    Calculus.CCS: ("roundtrip", "idempotence", "axioms", "shuffle", "reducts",
                   "lts", "coincidence", "endpoints", "pred", "congruence"),
    Calculus.ACCS: ("roundtrip", "idempotence", "axioms", "shuffle",
                    "reducts", "lts", "coincidence", "endpoints",
                    "congruence"),
    Calculus.MA: ("roundtrip", "idempotence", "axioms", "shuffle", "reducts",
                  "barbs", "pred", "endpoints", "congruence"),
}

_DEFAULT_NAMES = {Calculus.MA: ("n", "m"), Calculus.CCS: ("a", "b"),
                  Calculus.ACCS: ("a", "b")}
_DEFAULT_T1 = {Calculus.MA: ("0", "k[0]"), Calculus.CCS: ("0", "c.0"),
               Calculus.ACCS: ("0",)}


def _spec_int(spec: dict, field: str, default: int, least=0) -> int:
    value = spec.get(field, default)
    if type(value) is not int or least is not None and value < least:
        kind = {None: "an", 0: "a non-negative", 1: "a positive"}[least]
        raise LbisimError(f"corpus spec {field} must be {kind} integer, "
                          f"got {value!r}")
    return value


def _spec_strings(spec: dict, field: str, default) -> tuple:
    value = spec.get(field)
    if value is None or value == []:     # missing, null or empty
        return tuple(default)
    if type(value) is not list or not all(type(v) is str for v in value):
        raise LbisimError(f"corpus spec {field} must be a list of strings, "
                          f"got {value!r}")
    return tuple(value)


def _spec_terms(field: str, texts, calc: Calculus) -> list[Term]:
    """The parsed terms of a spec field, which must have no variables."""
    terms = []
    for text in texts:
        try:
            terms.append(parse_term(text, calc))
        except ParseError as exc:
            raise LbisimError(f"corpus spec {field} term {text!r}: "
                              f"parse error: {exc}") from None
    impure = [text for text, t in zip(texts, terms) if t.node.vars]
    if impure:
        raise LbisimError(f"corpus spec {field} must hold terms without "
                          f"variables, got {', '.join(map(repr, impure))}")
    return terms


def run_suite(spec: dict) -> list[CheckOutcome]:
    """Run the cross-check matrix described by a corpus spec (a parsed
    JSON object); see the CLI `corpus` verb.  A malformed spec raises
    LbisimError naming the field.

    `lts`, `barbs` and `pred` read all `count` enumerated terms.
    `coincidence` plays the first `pairs` pairs of `term_pairs` and each
    of the first 30 terms against a congruent shuffle of itself, and
    `endpoints` plays the first max(60, `pairs` // 3) of those, or all
    of an explicit `pair_list` (which replaces both kinds of pairs).  A
    run enumerates only the prefix of the corpus that its checks read.
    The 30 shuffles are drawn from the suite's random generator before
    any check runs, whichever checks are selected, so the first random
    check of a run starts from the same generator state in every run;
    each later one goes on where the random check before it stopped, so
    run alone it draws other terms."""
    if type(spec) is not dict:
        raise LbisimError(f"corpus spec must be a JSON object, got {spec!r}")
    try:
        calc = Calculus(spec["calculus"])
    except (KeyError, ValueError) as exc:
        raise LbisimError(f"corpus spec needs a valid calculus: {exc}")
    names = _spec_strings(spec, "names", _DEFAULT_NAMES[calc])
    bad = [n for n in names if not is_name(n)]
    if bad:
        raise LbisimError(f"corpus spec names must be names the grammar "
                          f"can write, got {', '.join(map(repr, bad))}")
    count = _spec_int(spec, "count", 300)
    seed = _spec_int(spec, "seed", 0, least=None)
    max_pairs = _spec_int(spec, "max_pairs", 4000, least=1)
    random_n = _spec_int(spec, "random", 150)
    pair_n = _spec_int(spec, "pairs", 200)
    triples = _spec_int(spec, "triples", 60)
    checks = _spec_strings(spec, "checks", DEFAULT_CHECKS[calc])
    bad = [c for c in checks if c not in DEFAULT_CHECKS[calc]]
    if bad:
        raise LbisimError(f"unknown or inapplicable checks for "
                          f"{calc.value}: {', '.join(bad)}")
    pair_list = spec.get("pair_list")
    if pair_list not in (None, []) and (type(pair_list) is not list or not all(
            type(pq) is list and len(pq) == 2
            and all(type(t) is str for t in pq) for pq in pair_list)):
        raise LbisimError(f"corpus spec pair_list must be a list of pairs "
                          f"of strings, got {pair_list!r}")
    listed = [tuple(map(canonical_term, _spec_terms("pair_list", pq, calc)))
              for pq in pair_list or ()]
    t1_pool = _spec_terms("t1_pool",
                          _spec_strings(spec, "t1_pool", _DEFAULT_T1[calc]),
                          calc)
    rng = random.Random(seed)
    # enumerate only what the checks read: lts, barbs and pred read every
    # term, the pairs the prefix of term_pairs and 30 terms to shuffle
    if any(c in ("lts", "barbs", "pred") for c in checks):
        read = count
    elif listed:
        read = 0
    else:
        read = min(count, max(30, _pair_prefix(pair_n)))
    corpus = enumerate_terms(calc, names, count=read)
    if listed:
        pairs = endpoint_pairs = listed
    else:
        pairs = term_pairs(corpus, pair_n)
        pairs += [(t, congruent_shuffle(t, rng)) for t in corpus[:30]]
        endpoint_pairs = pairs[:max(60, pair_n // 3)]
    rnames = names
    if len(rnames) < 3:
        rnames = rnames + (("k",) if calc is Calculus.MA else ("c",))
    run = {
        "roundtrip": lambda: check_roundtrip(calc, random_n, rng, rnames),
        "idempotence": lambda: check_idempotence(calc, random_n, rng, rnames),
        "axioms": lambda: check_axiom_soundness(
            calc, max(10, random_n // 10), rng, rnames),
        "shuffle": lambda: check_shuffle_equiv(calc, random_n, rng, rnames),
        "reducts": lambda: check_reducts_invariance(calc, random_n, rng,
                                                    rnames),
        "lts": lambda: check_lts_correspondence(calc, corpus),
        "barbs": lambda: check_barb_capturing(corpus),
        "pred": lambda: check_pred(calc, corpus, t1_pool),
        "coincidence": lambda: check_coincidence(calc, pairs,
                                                 max_pairs=max_pairs),
        "endpoints": lambda: check_endpoints(calc, endpoint_pairs,
                                             max_pairs=max_pairs),
        "congruence": lambda: check_congruence(calc, triples,
                                               max_pairs=max_pairs),
    }
    return [run[name]() for name in checks]
