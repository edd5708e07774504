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
import random
from dataclasses import dataclass, field
from functools import lru_cache

from .congruence import (
    canonical_label, canonical_term, components, equiv, node_key,
)
from .equivalence import (
    ALL, EMPTY, LM, OWN_LABEL_SETS, ccs_targets, check, is_capturing,
    open_targets, pred_ccs, pred_open,
)
from .errors import DivergenceBudgetExceededError, LbisimError
from .lts import its_transitions, ordinary_transitions, instantiate
from .reduction import barbs, reduct_terms
from .terms import (
    Amb, Calculus, Cap, Hole, Label, Msg, Nil, Node, Par, Prefix,
    ProcVar, Recv, Restrict, Send, Substitution, Sum, Tau, Term,
    free_names, par, plug, rename_free,
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
    for body in _terms_of_size(calc, names, size - 1, max_depth - 1):
        for act in _actions(calc, names):
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


def depth(node: Node) -> int:
    match node:
        case Nil() | Msg() | ProcVar() | Hole():
            return 0
        case Prefix(body=b) | Restrict(body=b) | Amb(body=b):
            return 1 + depth(b)
        case Par(children=cs) | Sum(children=cs):
            return 1 + max(depth(c) for c in cs)
    raise TypeError(f"not a node: {node!r}")


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


def term_pairs(terms, count: int):
    """Deterministic distinct pairs: combinations of a prefix of the
    corpus just large enough to supply `count` pairs."""
    k = 2
    while k * (k - 1) // 2 < count and k < len(terms):
        k += 1
    pairs = list(itertools.combinations(terms[:k], 2))
    return pairs[:count]


# --- random terms ----------------------------------------------------------

def random_term(calc: Calculus, names, rng: random.Random, *,
                max_depth: int = 4, allow_vars: bool = False) -> Term:
    node = _random_node(calc, tuple(names), rng, max_depth, allow_vars,
                        itertools.count(1))
    return Term(calc, node)


def _random_node(calc, names, rng, fuel, allow_vars, var_ids) -> Node:
    choices = ["nil", "prefix", "prefix"]
    if fuel > 0:
        choices += ["par", "par", "restrict"]
        if calc is not Calculus.MA:
            choices += ["sum"]
        if calc is Calculus.MA:
            choices += ["amb", "amb"]
    if calc is Calculus.ACCS:
        choices += ["msg"]
    if allow_vars:
        choices += ["pvar"]
    match rng.choice(choices):
        case "nil":
            return Nil()
        case "msg":
            return Msg(rng.choice(names))
        case "pvar":
            return ProcVar(f"Y{next(var_ids)}")
        case "prefix":
            act = rng.choice(_actions(calc, names))
            return Prefix(act, _random_node(calc, names, rng, fuel - 1,
                                            allow_vars, var_ids))
        case "restrict":
            return Restrict(rng.choice(names),
                            _random_node(calc, names, rng, fuel - 1,
                                         allow_vars, var_ids))
        case "amb":
            return Amb(rng.choice(names),
                       _random_node(calc, names, rng, fuel - 1,
                                    allow_vars, var_ids))
        case "par":
            k = rng.choice((2, 2, 3))
            return Par(tuple(_random_node(calc, names, rng, fuel - 1,
                                          allow_vars, var_ids)
                             for _ in range(k)))
        case "sum":
            parts = []
            for _ in range(rng.choice((2, 2, 3))):
                act = rng.choice(_actions(calc, names))
                parts.append(Prefix(act, _random_node(calc, names, rng,
                                                      fuel - 1, allow_vars,
                                                      var_ids)))
            return Sum(tuple(parts))
    raise AssertionError


# --- congruent shuffling ---------------------------------------------------

_POOL = tuple(f"g{i}" for i in range(8))


def congruent_shuffle(term: Term, rng: random.Random) -> Term:
    """A provably congruent variant: applies literal congruence axioms
    (commutativity, associativity, units, alpha, scope mobility, vacuous
    restriction) at random positions, in three passes."""
    node = term.node
    for _ in range(3):
        node = _shuffle(node, rng, term.calculus)
    return Term(term.calculus, node)


def _shuffle(node: Node, rng, calc) -> Node:
    match node:
        case Prefix(action=act, body=b):
            b = _shuffle(b, rng, calc)
            node = Prefix(act, b)
            if calc is Calculus.MA and isinstance(b, Restrict) \
                    and rng.random() < 0.3:
                blocked = free_names(Prefix(act, Nil()))
                if b.name not in blocked:
                    node = Restrict(b.name, Prefix(act, b.body))
        case Amb(name=n, body=b):
            b = _shuffle(b, rng, calc)
            node = Amb(n, b)
            if calc is Calculus.MA and isinstance(b, Restrict) \
                    and b.name != n and rng.random() < 0.3:
                node = Restrict(b.name, Amb(n, b.body))
        case Sum(children=cs):
            cs = [_shuffle(c, rng, calc) for c in cs]
            rng.shuffle(cs)
            if rng.random() < 0.2:
                cs.append(Nil())
            if len(cs) > 2 and rng.random() < 0.3:
                i = rng.randrange(len(cs) - 1)
                cs[i:i + 2] = [Sum(tuple(cs[i:i + 2]))]
            node = Sum(tuple(cs)) if len(cs) > 1 else cs[0]
        case Par(children=cs):
            cs = [_shuffle(c, rng, calc) for c in cs]
            rng.shuffle(cs)
            if rng.random() < 0.2:
                cs.append(Nil())
            if len(cs) > 2 and rng.random() < 0.3:
                i = rng.randrange(len(cs) - 1)
                cs[i:i + 2] = [Par(tuple(cs[i:i + 2]))]
            # scope extrusion: pull a restriction out of one child
            outs = [i for i, c in enumerate(cs)
                    if isinstance(c, Restrict)
                    and all(c.name not in free_names(d)
                            for j, d in enumerate(cs) if j != i)]
            if outs and rng.random() < 0.4:
                i = rng.choice(outs)
                inner = list(cs)
                inner[i] = cs[i].body
                return Restrict(cs[i].name, Par(tuple(inner)))
            node = Par(tuple(cs)) if len(cs) > 1 else cs[0]
        case Restrict(name=n, body=b):
            b = _shuffle(b, rng, calc)
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


def _axiom_neighbours(node: Node, calc: Calculus, pool):
    """One literal axiom step at the root, both directions."""
    match node:
        case Par(children=cs):
            for perm in itertools.permutations(cs):
                if perm != cs:
                    yield Par(perm)
            for i in range(len(cs) - 1):       # nest two neighbours
                yield Par(cs[:i] + (Par(cs[i:i + 2]),) + cs[i + 2:])
            for i, c in enumerate(cs):         # flatten a nested par
                if isinstance(c, Par):
                    yield Par(cs[:i] + c.children + cs[i + 1:])
                if isinstance(c, Nil):         # drop a unit
                    rest = cs[:i] + cs[i + 1:]
                    yield rest[0] if len(rest) == 1 else Par(rest)
                if isinstance(c, Restrict):    # scope extrusion, inward-out
                    others = cs[:i] + cs[i + 1:]
                    if all(c.name not in free_names(d) for d in others):
                        yield Restrict(c.name,
                                       Par((c.body,) + others)
                                       if others else c.body)
            yield Par(cs + (Nil(),))
        case Sum(children=cs):
            for perm in itertools.permutations(cs):
                if perm != cs:
                    yield Sum(perm)
            for i in range(len(cs) - 1):
                yield Sum(cs[:i] + (Sum(cs[i:i + 2]),) + cs[i + 2:])
            for i, c in enumerate(cs):
                if isinstance(c, Sum):
                    yield Sum(cs[:i] + c.children + cs[i + 1:])
                if isinstance(c, Nil):
                    rest = cs[:i] + cs[i + 1:]
                    yield rest[0] if len(rest) == 1 else Sum(rest)
            yield Sum(cs + (Nil(),))
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
            if calc is Calculus.MA:
                if isinstance(b, Amb) and isinstance(b.name, str) \
                        and b.name != n:
                    yield Amb(b.name, Restrict(n, b.body))
                if isinstance(b, Prefix) \
                        and n not in free_names(Prefix(b.action, Nil())):
                    yield Prefix(b.action, Restrict(n, b.body))
            if n not in free_names(b):         # convention: vacuous drop
                yield b
        case Amb(name=n, body=b):
            if calc is Calculus.MA and isinstance(b, Restrict) \
                    and b.name != n:
                yield Restrict(b.name, Amb(n, b.body))
        case Prefix(action=act, body=b):
            if calc is Calculus.MA and isinstance(b, Restrict) \
                    and b.name not in free_names(Prefix(act, Nil())):
                yield Restrict(b.name, Prefix(act, b.body))
    # unit introduction anywhere
    yield Par((node, Nil()))
    for m in pool:
        if m not in free_names(node):
            yield Restrict(m, node)            # convention, reverse


def _all_neighbours(node: Node, calc, pool):
    yield from _axiom_neighbours(node, calc, pool)
    for i, c in enumerate(_children(node)):
        for c2 in _all_neighbours(c, calc, pool):
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
            for m in _all_neighbours(n, t.calculus, pool):
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


def check_axiom_soundness(calc: Calculus, count: int, rng: random.Random,
                          names=("a", "b", "c")) -> CheckOutcome:
    """Every literal axiom step must be invisible to `canonical_term`:
    each random term is compared with up to 300 trees of its closure."""
    fails = []
    for _ in range(count):
        t = random_term(calc, names, rng, max_depth=3)
        want = canonical_term(t).node
        for n in bounded_closure(t, 300):
            if canonical_term(Term(calc, n)).node != want:
                fails.append(print_term(t))
                break
    return CheckOutcome(f"axiom-soundness-{calc.value}", count, fails)


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


def check_roundtrip(calc: Calculus, count: int, rng: random.Random,
                    names=("a", "b", "c")) -> CheckOutcome:
    fails = []
    for k in range(count):
        t = random_term(calc, names, rng, allow_vars=(k % 5 == 0))
        text = print_term(t)
        back = parse_term(text, calc)
        if back.node != t.node:
            fails.append(text)
        elif print_term(back) != text:
            fails.append(text)
    return CheckOutcome(f"roundtrip-{calc.value}", count, fails)


def check_idempotence(calc: Calculus, count: int, rng: random.Random,
                      names=("a", "b", "c")) -> CheckOutcome:
    fails = []
    for k in range(count):
        t = random_term(calc, names, rng, allow_vars=(k % 7 == 0))
        c1 = canonical_term(t)
        c2 = canonical_term(c1)
        if c1.node != c2.node:
            fails.append(print_term(t))
            continue
        reparsed = canonical_term(parse_term(print_term(c1), calc))
        if reparsed.node != c1.node:
            fails.append(print_term(t))
    return CheckOutcome(f"canonical-idempotent-{calc.value}", count, fails)


def check_shuffle_equiv(calc: Calculus, count: int, rng: random.Random,
                        names=("a", "b", "c")) -> CheckOutcome:
    fails = []
    for _ in range(count):
        t = random_term(calc, names, rng)
        s = congruent_shuffle(t, rng)
        if not equiv(t, s):
            fails.append(f"{print_term(t)}  vs  {print_term(s)}")
    return CheckOutcome(f"shuffle-congruent-{calc.value}", count, fails)


def check_reducts_invariance(calc: Calculus, count: int, rng: random.Random,
                             names=("a", "b", "c")) -> CheckOutcome:
    fails = []
    for _ in range(count):
        t = random_term(calc, names, rng)
        s = congruent_shuffle(t, rng)
        r1 = sorted(node_key(x.node) for x in reduct_terms(t))
        r2 = sorted(node_key(x.node) for x in reduct_terms(s))
        if r1 != r2:
            fails.append(f"{print_term(t)}  vs  {print_term(s)}")
    return CheckOutcome(f"reducts-congruence-invariant-{calc.value}", count,
                        fails)


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
    """MA: P has barb n iff P has a transition labelled - | open n.X1."""
    fails = []
    x1 = ProcVar("X1")
    names: set[str] = set()
    for t in corpus:
        names |= free_names(t.node) | {b for b in barbs(t)
                                       if not b.startswith("?")}
    for t in corpus:
        have = barbs(t)
        labels = {tr.label.body for tr in its_transitions(t)}
        for n in sorted(names):
            lab = canonical_label(
                Label(Calculus.MA,
                      par(Hole(), Prefix(Cap("open", n), x1)))).body
            if (n in have) != (lab in labels):
                fails.append(f"{print_term(t)} barb {n}")
    report = is_capturing(LM, Calculus.MA, corpus)
    if not report.ok:
        fails.append("is_capturing(LM) disagrees")
    return CheckOutcome("barb-capturing-ma", len(corpus), fails)


def _check_marker(t: Term, here, t1_pool, targets, holds, what: str,
                  fails: list) -> None:
    """Check a predicate of t against its ITS transitions `here`: for
    every T1 the predicate's `targets(t1)` must be their targets with
    X1 := T1, and `holds(y, t1)` true of exactly those among them and
    some decoys."""
    decoys = {canonical_term(t).node, Nil(),
              *(r.node for r in reduct_terms(t))}
    for t1 in t1_pool:
        subst = Substitution.make(t.calculus, procs={"X1": t1})
        want = {instantiate(tr, subst).target.node for tr in here}
        if set(targets(t1)) != want:
            fails.append(f"{print_term(t)} {what} T1={print_term(t1)}")
            continue
        for y in want | decoys:
            if holds(Term(t.calculus, y), t1) != (y in want):
                fails.append(f"{print_term(t)} {what} verdict")


def _acted_on(label: Label):
    """The name the prefix of a `- | open n.X1`, `- | a.X1` or
    `- | 'a.X1` label acts on."""
    for part in components(label.body):
        match part:
            case Prefix(action=Cap(amb=n) | Recv(channel=n) | Send(channel=n)):
                return n
    return None


def check_pred_open(corpus, t1_pool) -> CheckOutcome:
    fails = []
    for t in corpus:
        opens = [tr for tr in its_transitions(t) if tr.rule == "CoOpen"]
        for n in sorted(free_names(t.node)) or ["n"]:
            here = [tr for tr in opens if _acted_on(tr.label) == n]
            _check_marker(t, here, t1_pool,
                          lambda t1: open_targets(t, n, t1),
                          lambda y, t1: pred_open(t, y, n, t1),
                          f"open {n}", fails)
    return CheckOutcome("pred-open-ma", len(corpus), fails)


def check_pred_ccs(corpus, t1_pool) -> CheckOutcome:
    fails = []
    rules = {"out": "Rcv", "in": "Snd"}
    for t in corpus:
        names = sorted(free_names(t.node)) or ["a"]
        trs = its_transitions(t)
        for kind, rule in rules.items():
            for a in names:
                here = [tr for tr in trs
                        if tr.rule == rule and _acted_on(tr.label) == a]
                _check_marker(t, here, t1_pool,
                              lambda t1: ccs_targets(kind, t, a, t1),
                              lambda y, t1: pred_ccs(kind, t, y, a, t1),
                              f"{kind} {a}", fails)
        tau_targets = {tr.target.node for tr in trs if tr.rule == "Tau"}
        red_targets = {r.node for r in reduct_terms(t)}
        if tau_targets != red_targets:
            fails.append(f"{print_term(t)} tau")
        for y in red_targets | {canonical_term(t).node, Nil()}:
            if pred_ccs("tau", t, Term(Calculus.CCS, y)) != (y in red_targets):
                fails.append(f"{print_term(t)} tau verdict")
    return CheckOutcome("pred-ccs", len(corpus), fails)


def check_coincidence(calc: Calculus, pairs) -> CheckOutcome:
    """Verdict agreement between l-bisim on the calculus's own label set
    and its classical counterpart: strong on CCS (LCCS), async on ACCS
    (LA)."""
    classical = "strong" if calc is Calculus.CCS else "async"
    labels = OWN_LABEL_SETS[calc]
    fails = []
    for p, q in pairs:
        if check(classical, p, q).verdict \
                != check("l-bisim", p, q, labels=labels).verdict:
            fails.append(f"{print_term(p)}  vs  {print_term(q)}")
    return CheckOutcome(f"coincidence-{classical}-{labels.name.lower()}",
                        len(pairs), fails)


def check_endpoints(calc: Calculus, pairs, *, max_pairs=2000) -> CheckOutcome:
    """L-bisimilarity lies between its endpoints: for the calculus's L,
    IPO-equivalent pairs are L-equivalent and L-equivalent pairs are
    semi-saturated-equivalent.  A pair on which any of the three games
    runs out of budget is skipped."""
    chain = (ALL, OWN_LABEL_SETS[calc], EMPTY)
    fails = []
    for p, q in pairs:
        try:
            verdicts = [check("l-bisim", p, q, labels=labels,
                              max_pairs=max_pairs).verdict
                        for labels in chain]
        except DivergenceBudgetExceededError:
            continue
        for i in range(2):
            if verdicts[i] and not verdicts[i + 1]:
                fails.append(f"{print_term(p)}  vs  {print_term(q)} "
                             f"({chain[i].name} but not {chain[i + 1].name})")
    return CheckOutcome(f"endpoints-{calc.value}", len(pairs), fails)


_CONTEXTS = {
    Calculus.CCS: ("- | a.0", "- | 'a.0", "- | a.b.0", "(nu a) -", "(nu c) -",
                   "b.-", "tau.-", "'a.-"),
    Calculus.ACCS: ("- | a.0", "- | 'a", "- | tau.0", "(nu a) -", "(nu c) -",
                    "b.-", "tau.-"),
    Calculus.MA: ("- | n[0]", "- | open n.0", "- | in m.0", "(nu n) -",
                  "(nu p) -", "k[-]", "n[-]", "open m.-", "in m.-",
                  "out m.-"),
}


def find_equivalent_pairs(calc: Calculus, corpus, count: int,
                          rng: random.Random, *, max_pairs=3000):
    """Equivalent pairs: congruent shuffles plus corpus pairs that
    l-bisim on the calculus's own label set accepts (skipping any that
    exhaust the game budget)."""
    labels = OWN_LABEL_SETS[calc]
    out = []
    for t in corpus[:count]:
        out.append((t, congruent_shuffle(t, rng)))
        if len(out) >= count // 2:
            break
    for p, q in itertools.combinations(corpus[:40], 2):
        if len(out) >= count:
            break
        try:
            if check("l-bisim", p, q, labels=labels,
                     max_pairs=max_pairs).verdict:
                out.append((p, q))
        except DivergenceBudgetExceededError:
            continue
    return out[:count]


def check_congruence(calc: Calculus, base_pairs, count: int, *,
                     max_pairs=4000) -> CheckOutcome:
    """l-bisim on the calculus's own label set survives plugging into
    unary contexts."""
    labels = OWN_LABEL_SETS[calc]
    contexts = [parse_label(c, calc) for c in _CONTEXTS[calc]]
    fails = []
    done = 0
    i = 0
    while done < count and base_pairs:
        p, q = base_pairs[i % len(base_pairs)]
        ctx = contexts[i % len(contexts)]
        i += 1
        cp, cq = plug(ctx, p), plug(ctx, q)
        try:
            if not check("l-bisim", cp, cq, labels=labels,
                         max_pairs=max_pairs).verdict:
                fails.append(f"{print_term(p)} ~ {print_term(q)} "
                             f"under {print_label(ctx)}")
        except DivergenceBudgetExceededError:
            continue
        done += 1
    return CheckOutcome(f"congruence-{labels.name}-{calc.value}", done, fails)


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
    if not value:
        return tuple(default)
    if type(value) is not list or not all(type(v) is str for v in value):
        raise LbisimError(f"corpus spec {field} must be a list of strings, "
                          f"got {value!r}")
    return tuple(value)


def run_suite(spec: dict) -> list[CheckOutcome]:
    """Run the cross-check matrix described by a corpus spec (a parsed
    JSON object); see the CLI `corpus` verb.  A malformed spec raises
    LbisimError naming the field."""
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
    if pair_list and (type(pair_list) is not list or not all(
            type(pq) is list and len(pq) == 2
            and all(type(t) is str for t in pq) for pq in pair_list)):
        raise LbisimError(f"corpus spec pair_list must be a list of pairs "
                          f"of strings, got {pair_list!r}")
    t1_texts = _spec_strings(spec, "t1_pool", _DEFAULT_T1[calc])
    rng = random.Random(seed)
    corpus = enumerate_terms(calc, names, count=count)
    if pair_list:
        pairs = [(canonical_term(parse_term(a, calc)),
                  canonical_term(parse_term(b, calc)))
                 for a, b in pair_list]
    else:
        pairs = term_pairs(corpus, pair_n)
        pairs += [(t, congruent_shuffle(t, rng)) for t in corpus[:30]]
    t1_pool = [parse_term(s, calc) for s in t1_texts]
    rnames = names
    if len(rnames) < 3:
        rnames = rnames + (("k",) if calc is Calculus.MA else ("c",))
    out = []
    for name in checks:
        if name == "roundtrip":
            out.append(check_roundtrip(calc, random_n, rng, rnames))
        elif name == "idempotence":
            out.append(check_idempotence(calc, random_n, rng, rnames))
        elif name == "axioms":
            out.append(check_axiom_soundness(calc, max(10, random_n // 10),
                                             rng, rnames))
        elif name == "shuffle":
            out.append(check_shuffle_equiv(calc, random_n, rng, rnames))
        elif name == "reducts":
            out.append(check_reducts_invariance(calc, random_n, rng, rnames))
        elif name == "lts":
            out.append(check_lts_correspondence(calc, corpus))
        elif name == "coincidence":
            out.append(check_coincidence(calc, pairs))
        elif name == "endpoints":
            out.append(check_endpoints(calc, pairs[:max(60, pair_n // 3)],
                                       max_pairs=max_pairs))
        elif name == "barbs":
            out.append(check_barb_capturing(corpus))
        elif name == "pred":
            if calc is Calculus.MA:
                out.append(check_pred_open(corpus, t1_pool))
            else:
                out.append(check_pred_ccs(corpus, t1_pool))
        elif name == "congruence":
            base = find_equivalent_pairs(calc, corpus, 30, rng,
                                         max_pairs=max_pairs)
            out.append(check_congruence(calc, base, triples,
                                        max_pairs=max_pairs))
    return out
