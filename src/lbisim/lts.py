"""Ordinary labelled semantics and the instance transition systems (ITS).

An ITS transition P --C[-]--> P' says: the smallest context C[-] enabling
a reduction of C[P] was borrowed from the environment, and P' is what the
combined system becomes.  Labels are unary contexts over the extended
syntax; the label variables are X1, X2 (processes) and x (an ambient
name).  A source that already holds some of these takes, in their place,
the first of X1, X2, X3, ... and of x, x1, x2, ... that it does not hold,
so that no target holds a variable twice.  A `-` label is an internal
step and coincides with one-step reduction.

MA rules (label / target, from a premise P == (nu A)(...), side
conditions keep the interacting name unrestricted):

  Tau     -                     one-step reduct
  Open    - | n[X1]             (nu A)(P1 | P2 | X1)
  CoOpen  - | open n.X1         (nu A)(P1 | X1 | P2)
  In      x[- | X1] | m[X2]     (nu A) m[x[P1 | P2 | X1] | X2]
  InAmb   - | m[X1]             (nu A)(m[n[P1 | P2] | X1] | P3)
  CoIn    - | x[in m.X1 | X2]   (nu A)(m[x[X1 | X2] | P1] | P2)
  Out     m[x[- | X1] | X2]     (nu A)(m[X2] | x[P1 | P2 | X1])
  OutAmb  m[- | X1]             (nu A)(m[P3 | X1] | n[P1 | P2])

CCS:  Rcv  - | 'a.X1  and  Snd  - | a.X1, both with target
(nu A)(Q | R | X1).  ACCS:  Rcv  - | 'a with target (nu A)(Q | R) — an
output particle is consumed whole, so no variable — and Snd - | a.X1
with target (nu A)(Q | X1).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .congruence import (
    ambient_cap_matches, ambient_matches, canonical_label, canonical_term,
    canonicalize, cap_matches, node_key, particle_matches, summand_matches,
)
from .errors import DivergenceBudgetExceededError, MAUnsupportedError
from .reduction import reducts
from .syntax import print_label, print_term
from .terms import (
    Amb, Calculus, Cap, Hole, Label, Msg, NameVar, Prefix, ProcVar, Recv,
    Send, Substitution, Term, apply_subst, close_label, par, restricts,
)

X1 = ProcVar("X1")
X2 = ProcVar("X2")
XN = NameVar("x")


def _label_vars(node) -> tuple:
    """The two process variables and the name variable of the labels of a
    source `node`: X1, X2 and x, or the next ones `node` does not hold."""
    if not node.vars:
        return X1, X2, XN       # a pure source, as every game state is
    held = set(node.vars)
    procs = (ProcVar(f"X{i}") for i in itertools.count(1)
             if ("proc", f"X{i}") not in held)
    names = (NameVar(f"x{i or ''}") for i in itertools.count()
             if ("name", f"x{i or ''}") not in held)
    return next(procs), next(procs), next(names)


@dataclass(frozen=True)
class OrdinaryTransition:
    source: Term
    action: str        # "tau", "a" or "'a"
    target: Term
    rule: str

    @property
    def label(self) -> str:
        """The action: the label a game reads off an ordinary move."""
        return self.action


@dataclass(frozen=True)
class ItsTransition:
    source: Term
    label: Label
    target: Term
    rule: str


@lru_cache(maxsize=1 << 16)
def ordinary_transitions(term: Term) -> tuple[OrdinaryTransition, ...]:
    """The textbook labelled semantics; undefined for MA."""
    if term.calculus is Calculus.MA:
        raise MAUnsupportedError("MA has no ordinary labelled semantics here")
    cf = canonicalize(term)
    source = cf.term
    out = []
    for step in reducts(source):
        out.append((source, "tau", step.target, "tau"))
    for action, q, rest in summand_matches(cf, Recv):
        target = canonical_term(
            Term(cf.calculus, restricts(cf.binders, par(q, *rest))))
        out.append((source, action.channel, target, "recv"))
    if cf.calculus is Calculus.CCS:
        for action, q, rest in summand_matches(cf, Send):
            target = canonical_term(
                Term(cf.calculus, restricts(cf.binders, par(q, *rest))))
            out.append((source, f"'{action.channel}", target, "send"))
    else:
        for a, rest in particle_matches(cf):
            target = canonical_term(
                Term(cf.calculus, restricts(cf.binders, par(*rest))))
            out.append((source, f"'{a}", target, "send"))
    uniq = {}
    for source, action, target, rule in out:
        uniq.setdefault((action, target.node), (source, action, target, rule))
    trs = [OrdinaryTransition(*v) for v in uniq.values()]
    trs.sort(key=lambda t: (t.action, node_key(t.target.node)))
    return tuple(trs)


def _mk(cf, label_body, target_body, rule, acc):
    label = canonical_label(Label(cf.calculus, label_body))
    target = canonical_term(Term(cf.calculus, target_body))
    acc.append(ItsTransition(cf.term, label, target, rule))


@lru_cache(maxsize=1 << 16)
def its_transitions(term: Term) -> tuple[ItsTransition, ...]:
    """Context-borrowing transitions of the instance transition system."""
    cf = canonicalize(term)
    calc = cf.calculus
    acc: list[ItsTransition] = []
    hole = Hole()
    X1, X2, XN = _label_vars(cf.term.node)
    for step in reducts(cf.term):
        _mk(cf, hole, step.target.node, "Tau", acc)
    nu = cf.binders
    if calc is Calculus.MA:
        for n, p1, rest in cap_matches(cf, "open"):
            _mk(cf,
                par(hole, Amb(n, X1)),
                restricts(nu, par(p1, *rest, X1)),
                "Open", acc)
        for n, p1, rest in ambient_matches(cf):
            _mk(cf,
                par(hole, Prefix(Cap("open", n), X1)),
                restricts(nu, par(p1, X1, *rest)),
                "CoOpen", acc)
            _mk(cf,
                par(hole, Amb(XN, par(Prefix(Cap("in", n), X1), X2))),
                restricts(nu, par(Amb(n, par(Amb(XN, par(X1, X2)), p1)),
                                  *rest)),
                "CoIn", acc)
        for m, p1, rest in cap_matches(cf, "in"):
            _mk(cf,
                par(Amb(XN, par(hole, X1)), Amb(m, X2)),
                restricts(nu, Amb(m, par(Amb(XN, par(p1, *rest, X1)), X2))),
                "In", acc)
        for n, m, p1, inner_rest, rest in ambient_cap_matches(cf, "in"):
            _mk(cf,
                par(hole, Amb(m, X1)),
                restricts(nu, par(Amb(m, par(Amb(n, par(p1, *inner_rest)),
                                             X1)),
                                  *rest)),
                "InAmb", acc)
        for m, p1, rest in cap_matches(cf, "out"):
            _mk(cf,
                Amb(m, par(Amb(XN, par(hole, X1)), X2)),
                restricts(nu, par(Amb(m, X2),
                                  Amb(XN, par(p1, *rest, X1)))),
                "Out", acc)
        for n, m, p1, inner_rest, rest in ambient_cap_matches(cf, "out"):
            _mk(cf,
                Amb(m, par(hole, X1)),
                restricts(nu, par(Amb(m, par(*rest, X1)),
                                  Amb(n, par(p1, *inner_rest)))),
                "OutAmb", acc)
    elif calc is Calculus.CCS:
        for action, q, rest in summand_matches(cf, Recv):
            _mk(cf,
                par(hole, Prefix(Send(action.channel), X1)),
                restricts(nu, par(q, *rest, X1)),
                "Rcv", acc)
        for action, q, rest in summand_matches(cf, Send):
            _mk(cf,
                par(hole, Prefix(Recv(action.channel), X1)),
                restricts(nu, par(q, *rest, X1)),
                "Snd", acc)
    else:
        for action, q, rest in summand_matches(cf, Recv):
            _mk(cf,
                par(hole, Msg(action.channel)),
                restricts(nu, par(q, *rest)),
                "Rcv", acc)
        for a, rest in particle_matches(cf):
            _mk(cf,
                par(hole, Prefix(Recv(a), X1)),
                restricts(nu, par(*rest, X1)),
                "Snd", acc)
    uniq = {}
    for tr in acc:
        uniq.setdefault((tr.label.body, tr.target.node), tr)
    trs = list(uniq.values())
    trs.sort(key=lambda t: (node_key(t.label.body), node_key(t.target.node)))
    return tuple(trs)


def instantiate(tr: ItsTransition, subst: Substitution) -> ItsTransition:
    """Close a symbolic transition; the substitution must cover every
    label variable and the result is pure."""
    label = canonical_label(close_label(tr.label, subst))
    target = canonical_term(apply_subst(tr.target, subst))
    return ItsTransition(tr.source, label, target, tr.rule)


def reachable(term: Term, kind: str = "its", max_states: int = 2000):
    """Breadth-first closure under the ITS or the ordinary transitions;
    raises DivergenceBudgetExceededError when the state budget is
    exhausted (the MA ITS may be infinite)."""
    if kind == "its":
        outgoing = its_transitions
    elif kind == "ordinary":
        outgoing = ordinary_transitions
    else:
        raise ValueError(f"unknown transition-system kind {kind!r}")
    root = canonical_term(term)
    states = [root]
    index = {root.node: 0}
    edges = []
    frontier = [root]
    while frontier:
        nxt = []
        for state in frontier:
            for tr in outgoing(state):
                if tr.target.node not in index:
                    if len(states) >= max_states:
                        raise DivergenceBudgetExceededError(
                            max_states, len(states) + 1)
                    index[tr.target.node] = len(states)
                    states.append(tr.target)
                    nxt.append(tr.target)
                edges.append(tr)
        frontier = nxt
    return states, edges


def _label_text(tr) -> str:
    if isinstance(tr, OrdinaryTransition):
        return tr.action
    return print_label(tr.label)


def lts_to_json(states, edges) -> dict:
    texts = [print_term(s) for s in states]
    return {
        "states": texts,
        "transitions": [
            {
                "source": print_term(tr.source),
                "label": _label_text(tr),
                "target": print_term(tr.target),
                "rule": tr.rule,
            }
            for tr in edges
        ],
    }


def _gvquote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def lts_to_dot(states, edges) -> str:
    lines = ["digraph lts {"]
    for s in states:
        lines.append(f"  {_gvquote(print_term(s))};")
    for tr in edges:
        lines.append(
            f"  {_gvquote(print_term(tr.source))} -> "
            f"{_gvquote(print_term(tr.target))} "
            f"[label={_gvquote(_label_text(tr) + ' (' + tr.rule + ')')}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
