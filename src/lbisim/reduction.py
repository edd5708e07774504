"""One-step reduction and barbs.

MA reduces by the three mobility axioms

    n[in m.P | Q] | m[R]      >  m[n[P | Q] | R]
    m[n[out m.P | Q] | R]     >  n[P | Q] | m[R]
    open n.P | n[Q]           >  P | Q

closed under restriction, ambient nesting, parallel contexts and
structural congruence.  CCS and ACCS share two rules,

    tau.P + M                 >  P
    (a.P + M) | O             >  P | Q

where the output O is a summand 'a.Q + N in CCS and the particle 'a in
ACCS, which leaves Q = 0.  Working on canonical forms gives closure
under congruence for free; a redex never sits under a prefix, so only
the top binder cluster and (for MA) ambient nesting need searching.

Barbs are the calculus-specific observations: for MA the names of
unrestricted top-level ambients, for CCS the channels of unrestricted
input and output summands (written a and 'a), for ACCS the channels of
unrestricted output particles only.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .congruence import (
    CanonicalForm, _summands, canonical_term, canonicalize, components,
    node_key, summand_matches, particle_matches, ambient_matches,
)
from .terms import (
    Amb, Calculus, Cap, Msg, Prefix, Recv, Send, Tau, Term, par, restricts,
)


@dataclass(frozen=True)
class ReductionStep:
    source: Term      # canonical
    rule: str
    position: tuple   # ambient indices, then (rule tag, *component indices)
    target: Term      # canonical


def _drop2(parts, i, j):
    return [p for k, p in enumerate(parts) if k not in (i, j)]


def _ma_steps(parts: tuple, path: tuple):
    """Yield (rule, position, new_parts) for one location of an MA term."""
    for i, c in enumerate(parts):
        match c:
            case Prefix(action=Cap(op="open", amb=n), body=p1):
                for j, d in enumerate(parts):
                    if j != i and isinstance(d, Amb) and d.name == n:
                        new = _drop2(parts, i, j) + [p1, d.body]
                        yield "Open", path + (("open", i, j),), new
    for i, c in enumerate(parts):
        if not isinstance(c, Amb):
            continue
        inner = components(c.body)
        for j, d in enumerate(inner):
            match d:
                case Prefix(action=Cap(op="in", amb=m), body=p1):
                    for k, e in enumerate(parts):
                        if k != i and isinstance(e, Amb) and e.name == m:
                            moved = Amb(c.name,
                                        par(p1, *_drop2(inner, j, j)))
                            grown = Amb(m, par(moved, e.body))
                            new = _drop2(parts, i, k) + [grown]
                            yield "In", path + (("in", i, j, k),), new
                case Amb(name=n2, body=b2):
                    inner2 = components(b2)
                    for k, e in enumerate(inner2):
                        match e:
                            case Prefix(action=Cap(op="out", amb=m), body=p1) \
                                    if m == c.name:
                                escaped = Amb(n2, par(p1, *_drop2(inner2, k, k)))
                                stays = Amb(c.name, par(*_drop2(inner, j, j)))
                                new = _drop2(parts, i, i) + [stays, escaped]
                                yield "Out", path + (("out", i, j, k),), new
        for rule, pos, newinner in _ma_steps(inner, path + (i,)):
            new = list(parts)
            new[i] = Amb(c.name, par(*newinner))
            yield rule, pos, new


def _channel_steps(cf: CanonicalForm):
    """Yield (rule, position, new_parts) for CCS and ACCS.  A receive meets
    an output summand 'a.Q in CCS and an output particle 'a in ACCS; the
    grammar keeps each to its own calculus, so the partner's node type
    says which it is."""
    # tau steps first: `reducts` keeps the first step to each target
    parts = cf.parts
    for i, c in enumerate(parts):
        for s in _summands(c):
            if isinstance(s.action, Tau):
                yield "Tau", (("tau", i),), [s.body, *_drop2(parts, i, i)]
    for i, c in enumerate(parts):
        for s in _summands(c):
            if not isinstance(s.action, Recv):
                continue
            a = s.action.channel
            for j, d in enumerate(parts):
                if j == i:
                    continue
                if isinstance(d, Msg):
                    if d.channel == a:
                        new = _drop2(parts, i, j) + [s.body]
                        yield "Comm", (("comm", i, j),), new
                    continue
                for s2 in _summands(d):
                    if isinstance(s2.action, Send) and s2.action.channel == a:
                        new = _drop2(parts, i, j) + [s.body, s2.body]
                        yield "Comm", (("comm", i, j),), new


@lru_cache(maxsize=1 << 16)
def reducts(term: Term) -> tuple[ReductionStep, ...]:
    """All one-step reducts up to structural congruence.

    Targets are canonical and deduplicated; process variables are inert.
    """
    cf = canonicalize(term)
    source = cf.term
    if cf.calculus is Calculus.MA:
        raw = _ma_steps(cf.parts, ())
    else:
        raw = _channel_steps(cf)
    steps = []
    seen = set()
    for rule, pos, new_parts in raw:
        target = canonical_term(
            Term(cf.calculus, restricts(cf.binders, par(*new_parts))))
        if target.node in seen:
            continue
        seen.add(target.node)
        steps.append(ReductionStep(source, rule, pos, target))
    steps.sort(key=lambda s: (node_key(s.target.node), s.rule, s.position))
    return tuple(steps)


def reduct_terms(term: Term) -> tuple[Term, ...]:
    return tuple(s.target for s in reducts(term))


@lru_cache(maxsize=1 << 16)
def barbs(term: Term) -> frozenset[str]:
    """Observable names, rendered in concrete syntax ("n", "a", "'a")."""
    cf = canonicalize(term)
    out: set[str] = set()
    if cf.calculus is Calculus.MA:
        for n, _, _ in ambient_matches(cf):
            out.add(n if isinstance(n, str) else f"?{n.name}")
    elif cf.calculus is Calculus.CCS:
        for action, _, _ in summand_matches(cf, Recv):
            out.add(action.channel)
        for action, _, _ in summand_matches(cf, Send):
            out.add(f"'{action.channel}")
    else:
        for a, _ in particle_matches(cf):
            out.add(f"'{a}")
    return frozenset(out)
