"""Equivalence checking as on-the-fly bisimulation games.

All relations are decided by one engine playing an attacker/defender game
on pairs of states.  A pair dies when some attack has no surviving
answer; the engine alternates breadth-first expansion with a refutation
fixpoint, so a finite disproof is found even when the full symbolic state
space is infinite (possible in MA, where environment ambients can keep
entering).  The verdict is `True` only once every reachable pair is
expanded and alive, `False` when the root dies; running out of budget
raises DivergenceBudgetExceededError.

The relations.  `check(relation, p, q, ...)` decides each name of
RELATIONS; `_game` is the one place that maps a name to its game, which
`verify_witness` replays.

  * strong and async play on the ordinary labelled semantics (async uses
    the asynchronous input clause: an input may also be answered by an
    internal step, leaving the message `'a` next to the defender's
    residual).
  * l-bisim with a label set L plays one game on the instance transition
    systems: attacks whose label lies in L must be answered by the same
    label; any other attack C[-] is answered by one reduction step of
    C[defender].  The endpoints are this game with a fixed L: ipo is
    L = ALL, semi-sat is L = EMPTY, and barbed-semi-sat is L = EMPTY
    that additionally requires equal barbs at every pair: the two
    states' barbs, as `reduction.barbs` reads them, must be the same
    set.  With a pool, the same game closes label variables over the
    pool instead of playing them symbolically.

Game states hold no process variables.  Symbolic moves carry the
canonical label variables X1, X2 and x.  A process variable @X1 or @X2
stands for a process the environment supplies and the state never looks
at: it has no move, no reduction and no barb, and no label can name it
(a label names only its own variables and the state's name variables).
So erasing it, replacing it by 0, commutes with every ITS move, with
plugging into a label and with reduction, and {(t, t with its process
variables erased)} is an L-bisimulation for every L, barbed or not: a
pair is related exactly when its erased pair is.  The game plays the
erased game: `_SymbolicGame.attacks` and `answers` hand back each target
and answer erased and canonical again (`_erased`), so every state stays
as small as its own processes, and no game state holds a process
variable.  The name variable x stays, since a later label may name the
ambient ?x it stands for (the ambient ?p10 of `- | open ?p10.@X1`): the
defender is then plugged into the same context.  The game asks for moves
only of its stored pairs, whose name variables carry class names
(below), and a witness replay only of states whose name variables are
w1, w2, ...; neither is ever x, so a label's x never clashes with a
variable of the state it leaves.

Pairs up to renaming.  A name variable is never restricted, so renaming
a pair's name variables injectively renames its moves and changes
nothing else.  So the game keeps one pair per renaming class: `_solve`
renames a pair's name variables jointly, in sorted order, to p10, p11,
... (the class names: a number spelt as its digit count and then its
digits, so p19 < p210 as strings), and stores the pair under them.  This
is the only renaming of game variables.  Canonical forms compare a
variable only with variables of its own kind, by name, and normalisation
never looks at variables; so a renaming that keeps the order of a
canonical state's name variables leaves it canonical, and the stored
states are canonical as they stand.  Class names sort below x, so
class-naming a successor numbers the variables it keeps from its parent
first, in their order, and the label's x after them.  Each answer links
its successor's key with the inverse renaming, from the successor's
class names back to the names of the pair that played it.  Witnesses
follow those links: they number the x of each move w1, w2, ... step by
step, in states and in labels alike, carry that numbering to the next
pair through the inverse renaming and print each answer as it was
played; a label's @X1 and @X2 print as they are.  `verify_witness`
replays a witness through the attacks and answers of the game that
produced it, so it replays the erased game too.  The solver erases and
answers only the attacks it reaches: a pair that dies on its first
attack erases and answers none of the rest.  A refutation is printed
as a witness only when the result's `.witness` is first read.

Pairs up to context.  A game's `residual` strips the largest common
evaluation context of a pair's two canonical states: repeatedly, the
parallel components both share that mention no bound name, then a top
ambient n[-] (or ?v[-]) that each side is, n free, the binders moving
inside it; nothing under a prefix or a binder.  So p = C[p'] and
q = C[q'] for C built from `- | R` and `n[-]`, and (p', q') is the
residual, itself its own residual.  A residual whose two sides are inert
(ambients of restricted names holding no capability: no move, no
reduction, no barb) is alive as it stands, so `_solve` settles its pair
at once, without playing a move; the MA firewall law (nu k) k[0] = 0
ends there in every context.  Any other pair is played as before: barbs,
then its attacks and answers, and an attack without answer kills it at
once.  Then, when its residual differs and is not dead (it is played at
once if new), the pair holds its successors back and depends on the
residual alone; it interns and plays them only when the residual dies.
A pair dies only through its own attacks, so witnesses and
`verify_witness` stay in the plain game, and cancelling a context is
never taken as a refutation.  When no pair the root depends on is left
to expand, the verdict is `True`: a pair still holding back is alive
because its residual is.  A dead residual still guides the search for
the pair's own refutation: the new successors of the pair's attacks that
repeat the residual's failing attack (or, if none does, of those that
open an ambient, peeling a context off) are expanded first, the others a
round later.  That changes the order of expansion only.

Why that is sound.  Let S hold the live pairs that play their own
successors, the pairs of equal states and the inert residuals (which
have no attack and no barb to answer).  Every live pair is in S or is
C[r] for its residual r in S, so each attack of a pair in S is
answered into the context closure C(S): S is a bisimulation up to
context (Sangiorgi, MSCS 1998; Pous & Sangiorgi 2011), and it lies in
the relation as soon as the closure under `- | R` and `n[-]` is
compatible with the game's bisimulation functional: from S progressing
to C(S) it follows that C(S) progresses to C(S).  The congruence proofs
give exactly that step.  A move of C[p] is a move of the context alone,
answered by the same move of C[q]; a move of p inside C, answered by
q's answer inside C; or an interaction of p with C, which decomposes
into a move of p under a larger label, answered by q and recomposed
(Leifer & Milner, CONCUR 2000, for labels that are minimal contexts).
Each answer leaves a pair C'[p''], C'[q''] with (p'', q'') related.
R never names a binder of either side, so (nu A)(R | P) = R | (nu A)P,
and n[(nu A)P] = (nu A)n[P] for n not in A.  A name variable ?p10 is
never restricted, so the argument holds for states that contain one.
Per relation:

  * strong (CCS, ACCS) and async (ACCS): the decomposition is the rule
    for parallel composition; in the async game, an input of p answered
    by a tau of q that leaves 'a answers C[p] by C[q] the same way, to
    C[p''] against C[q'' | 'a].
  * l-bisim(ALL) and l-bisim(EMPTY), barbed or not, in all three
    calculi: IPO bisimilarity and (barbed) semi-saturated bisimilarity
    are congruences of the reactive system, by the decomposition above;
    the barbs of R | p are those of R and of p, and those of n[p] are n.
  * l-bisim(LCCS) on CCS, l-bisim(LA) on ACCS and l-bisim(LM) on MA: the
    paper's instances, whose L meets its conditions for L-bisimilarity
    to be a congruence.

For every other label set (pattern files, or a built-in set on another
calculus) and for pool games, which decide an approximation closed over
the pool, no argument is stated here: their residual is the pair
itself.  The tests play the full game, whose residual is the pair
itself, as the oracle of the game up to context.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import permutations, product

from .congruence import (
    canonical_label, canonical_node, canonical_term, components, node_key,
    strip_restricts,
)
from .errors import (
    DivergenceBudgetExceededError, LbisimError, MalformedTermError,
    MAUnsupportedError,
)
from .lts import instantiate, its_transitions, ordinary_transitions
from .reduction import barbs, reduct_terms
from .syntax import is_name, print_label, print_node, print_term
from .terms import (
    NIL, Amb, Calculus, Cap, Hole, Label, Msg, NameVar, Nil, Node, Par,
    Prefix, ProcVar, Recv, Restrict, Send, Substitution, Sum, Term,
    _subst, free_names, fresh_name, par, plug, rename_vars, restricts,
    same_calculus,
)

DEFAULT_MAX_PAIRS = 50_000


# --- label sets ------------------------------------------------------------

def _two_parts(body: Node):
    """The canonical body of a context `- | T`, if it has that shape."""
    if isinstance(body, Par) and len(body.children) == 2:
        a, b = body.children
        if isinstance(a, Hole):
            return b
        if isinstance(b, Hole):
            return a
    return None


def _match(pat: Node, node: Node, bnd: dict) -> bool:
    match pat:
        case ProcVar(name=v):
            if isinstance(node, Hole):
                return False
            if v in bnd:
                return bnd[v] == node
            bnd[v] = node
            return True
        case Hole():
            return isinstance(node, Hole)
        case Nil() | Msg():
            return pat == node
        case Prefix(action=pact, body=pb):
            return (isinstance(node, Prefix)
                    and _match_action(pact, node.action, bnd)
                    and _match(pb, node.body, bnd))
        case Amb(name=pn, body=pb):
            return (isinstance(node, Amb)
                    and _match_name(pn, node.name, bnd)
                    and _match(pb, node.body, bnd))
        case Par(children=ps) | Sum(children=ps):
            if type(node) is not type(pat):
                return False
            ns = node.children
            if len(ps) != len(ns):
                return False
            for perm in permutations(range(len(ns))):
                trial = dict(bnd)
                if all(_match(ps[i], ns[perm[i]], trial)
                       for i in range(len(ps))):
                    bnd.update(trial)
                    return True
            return False
        case _:
            return pat == node


def _match_name(pn, n, bnd) -> bool:
    if isinstance(pn, NameVar):
        key = "?" + pn.name
        if key in bnd:
            return bnd[key] == n
        bnd[key] = n
        return True
    return pn == n


def _match_action(pact, act, bnd) -> bool:
    match pact:
        case Cap(op=op, amb=pn):
            return (isinstance(act, Cap) and act.op == op
                    and _match_name(pn, act.amb, bnd))
        case _:
            return pact == act


@dataclass(frozen=True)
class LabelSet:
    """A set of ITS labels an attacker move can be required to match."""
    name: str
    kind: str                      # all | empty | lm | la | lccs | patterns
    patterns: tuple[Label, ...] = ()

    def contains(self, label: Label) -> bool:
        if self.kind == "all":
            return True
        if self.kind == "empty":
            return False
        body = canonical_label(label).body
        match self.kind:
            case "lm":
                other = _two_parts(body)
                return (isinstance(other, Prefix)
                        and isinstance(other.action, Cap)
                        and other.action.op == "open")
            case "la":
                if isinstance(body, Hole):
                    return True
                other = _two_parts(body)
                return (isinstance(other, Prefix)
                        and isinstance(other.action, Recv))
            case "lccs":
                if isinstance(body, Hole):
                    return True
                other = _two_parts(body)
                return (isinstance(other, Prefix)
                        and isinstance(other.action, (Recv, Send)))
            case "patterns":
                return any(p.calculus is label.calculus
                           and _match(canonical_label(p).body, body, {})
                           for p in self.patterns)
        raise LbisimError(f"unknown label-set kind {self.kind!r}")

    def barb_candidates(self, barb: str, calculus: Calculus) -> list[Label]:
        """Labels whose presence could witness the barb, filtered to this
        set."""
        x1 = ProcVar("X1")
        raw: list[Label] = []
        if calculus is Calculus.MA:
            n = NameVar(barb[1:]) if barb.startswith("?") else barb
            raw.append(Label(calculus, par(Hole(), Prefix(Cap("open", n), x1))))
            raw.append(Label(calculus,
                             par(Hole(),
                                 Amb(NameVar("x"),
                                     par(Prefix(Cap("in", n), x1),
                                         ProcVar("X2"))))))
        elif calculus is Calculus.CCS:
            if barb.startswith("'"):
                raw.append(Label(calculus,
                                 par(Hole(), Prefix(Recv(barb[1:]), x1))))
            else:
                raw.append(Label(calculus, par(Hole(), Prefix(Send(barb), x1))))
        else:
            if barb.startswith("'"):
                raw.append(Label(calculus,
                                 par(Hole(), Prefix(Recv(barb[1:]), x1))))
        return [canonical_label(l) for l in raw if self.contains(l)]


ALL = LabelSet("ALL", "all")
EMPTY = LabelSet("EMPTY", "empty")
LM = LabelSet("LM", "lm")
LA = LabelSet("LA", "la")
LCCS = LabelSet("LCCS", "lccs")

BUILTIN_LABEL_SETS = {"ALL": ALL, "EMPTY": EMPTY, "LM": LM, "LA": LA,
                      "LCCS": LCCS}

# Each calculus's own label set: the paper's L for it, under which
# L-bisimilarity is a congruence (and is strong bisimilarity on CCS,
# asynchronous bisimilarity on ACCS).
OWN_LABEL_SETS = {Calculus.CCS: LCCS, Calculus.ACCS: LA, Calculus.MA: LM}


def pattern_label_set(name: str, patterns) -> LabelSet:
    return LabelSet(name, "patterns", tuple(patterns))


# --- game engine -----------------------------------------------------------

@dataclass(frozen=True)
class _Attack:
    side: int                      # 0: left state attacks, 1: right
    action: "str | None"           # ordinary games: the action
    label: "Label | None"          # ITS games: the label
    target: Term

    def text(self, names: dict) -> str:
        """The move as a witness prints it: the action, or the label with
        the state's name variables renamed."""
        if self.label is None:
            return self.action
        label = self.label
        body = rename_vars(label.body, {}, names)
        if body is not label.body:
            label = canonical_label(Label(label.calculus, body))
        return print_label(label)


class _PairNode:
    __slots__ = ("p", "q", "status", "rank", "expanded", "attacks", "fail",
                 "index", "residual", "held", "slow")

    def __init__(self, p, q, index):
        self.p = p
        self.q = q
        self.status = "open"       # open | true (equal states, or an
                                   # inert residual) | dead
        self.rank = None
        self.expanded = False
        self.attacks = []          # [(attack, [(answer_term, pair_key,
                                   #             inverse renaming)])]
        self.fail = None           # ("barb", side, name) | ("attack", i)
        self.index = index         # creation order (perfbench's tracer
                                   # subclasses this signature)
        self.residual = None       # key of the residual pair, if any
        self.held = None           # [(attack, [answer_term])] held back
                                   # while the residual lives
        self.slow = False          # waits a round before its expansion


@dataclass
class WitnessMove:
    pair: tuple[str, str]
    side: str                      # "left" | "right"
    kind: str                      # "move" | "barb"
    move: str                      # label/action text, or the barb
    attacker_target: "str | None"
    defender_target: "str | None"
    intro_vars: dict
    reason: "str | None"

    def to_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "side": self.side,
            "kind": self.kind,
            "move": self.move,
            "attacker_target": self.attacker_target,
            "defender_target": self.defender_target,
            "intro_vars": dict(self.intro_vars),
            "reason": self.reason,
        }


class GameResult:
    """A game's verdict, the refutation of its root when the verdict is
    False, and its counts.  `witness` is given as the list of moves, as
    None, or as a function that builds the list: the refutation is then
    built when `.witness` is first read, and kept, so a caller that reads
    only the verdict never builds it.  Until then the result holds its
    game's pair table.  A plain class, not a dataclass: `==`, `repr` and
    `to_dict()` cover its six fields."""

    _FIELDS = ("verdict", "witness", "pairs_explored", "rounds", "expanded",
               "residuals")

    def __init__(self, verdict: bool,
                 witness: "list[WitnessMove] | Callable[[], list] | None",
                 pairs_explored: int, rounds: int, expanded: int,
                 residuals: int):
        self.verdict = verdict
        self._witness = witness
        self.pairs_explored = pairs_explored
        self.rounds = rounds
        self.expanded = expanded       # pairs whose moves were played
        self.residuals = residuals     # pairs left alive through their
                                       # residual

    @property
    def witness(self) -> "list[WitnessMove] | None":
        if callable(self._witness):
            self._witness = self._witness()
        return self._witness

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f)
                   for f in self._FIELDS)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._FIELDS)
        return f"{self.__class__.__qualname__}({fields})"

    def to_dict(self) -> dict:
        return {
            "verdict": "equivalent" if self.verdict else "inequivalent",
            "witness": None if self.witness is None
            else [m.to_dict() for m in self.witness],
            "stats": {"pairs": self.pairs_explored, "rounds": self.rounds,
                      "expanded": self.expanded,
                      "residuals": self.residuals},
        }


_NO_VARS: dict = {}                # the renaming of a pair without variables


def _solve(game, p0: Term, q0: Term, max_pairs: int) -> GameResult:
    pairs: dict = {}               # in creation order
    waiting: dict = {}             # residual key -> [(key, inverse renaming)]
                                   # of the pairs holding their successors
                                   # back on it

    def intern(p: Term, q: Term):
        """The key of the pair's renaming class, interned if new, and the
        renaming from its class names back to the pair's variables."""
        p, q, back = _class_named(p, q)
        key = (p.node, q.node)
        if key not in pairs:
            if len(pairs) >= max_pairs:
                raise _budget_exceeded(pairs, max_pairs)
            node = pairs[key] = _PairNode(p, q, len(pairs))
            if p.node == q.node:
                node.status = "true"
        return key, back

    def link(node, moves, dead_residual=None, residual_back=_NO_VARS):
        """Intern the answers of an expanded pair as its successors.  New
        successors of the moves that do not follow the pair's dead
        residual wait a round before they are expanded."""
        follow = _following(moves, dead_residual, residual_back)
        for i, (attack, found) in enumerate(moves):
            answers = []
            for ans in found:
                known = len(pairs)
                if attack.side == 0:
                    k, back = intern(attack.target, ans)
                else:
                    k, back = intern(ans, attack.target)
                answers.append((ans, k, back))
                if i in follow:
                    pairs[k].slow = False
                elif len(pairs) > known:
                    pairs[k].slow = True
            node.attacks.append((attack, answers))

    def frontier():
        """The unexpanded open pairs the root's verdict still depends on,
        breadth-first: a held pair depends on its residual only, a dead
        pair on nothing."""
        seen = {root}
        todo = [root]
        out = []
        for key in todo:
            node = pairs[key]
            if node.status != "open":
                continue
            if not node.expanded:
                out.append(key)
                continue
            if node.held is not None:
                succ = (node.residual,)
            else:
                succ = [k for _, answers in node.attacks
                        for _, k, _ in answers]
            for k in succ:
                if k not in seen:
                    seen.add(k)
                    todo.append(k)
        return out

    def play(node):
        """A pair's own attacks with their answers, or None when it dies
        at once: on its barbs or on an attack without answer."""
        nonlocal expanded
        node.expanded = True
        expanded += 1
        bad = game.pair_barb_fail(node.p, node.q)
        if bad is not None:
            node.status = "dead"
            node.rank = 0
            node.fail = bad
            return None
        moves = []
        for attack in game.attacks(node.p, node.q):
            found = game.answers(attack, node.q if attack.side == 0
                                 else node.p)
            if not found:
                node.attacks = [(attack, [])]
                node.status = "dead"
                node.rank = 0
                node.fail = ("attack", 0)
                return None
            moves.append((attack, found))
        return moves

    def expand(key):
        """Play a pair's own moves; hold its successors back while its
        residual, played at once if new, is not dead.  A pair whose
        residual has no move on either side is alive unplayed."""
        nonlocal settled
        node = pairs[key]
        rp, rq = game.residual(node.p, node.q)
        if rp is node.p and rq is node.q:
            moves = play(node)
            if moves is not None:
                link(node, moves)
            return
        if _inert(rp.node) and _inert(rq.node):
            node.status = "true"
            settled += 1
            return
        moves = play(node)
        if moves is None:
            return
        rkey, rback = intern(rp, rq)
        rnode = pairs[rkey]
        if rnode.status == "open" and not rnode.expanded:
            # a residual is its own residual
            rmoves = play(rnode)
            if rmoves is not None:
                link(rnode, rmoves)
        if rnode.status != "dead":
            node.residual = rkey
            node.held = moves
            waiting.setdefault(rkey, []).append((key, rback))
            return
        link(node, moves, rnode, rback)

    def result(verdict, witness=None):
        return GameResult(verdict, witness, len(pairs), rounds, expanded,
                          settled + sum(map(len, waiting.values())))

    root, root_back = intern(canonical_term(p0), canonical_term(q0))
    rounds = 0
    expanded = 0
    settled = 0                    # pairs alive through an inert residual
    while True:
        pending = frontier()
        if not pending:
            return result(True)
        ready = [k for k in pending if not pairs[k].slow] or pending
        for key in pending:
            pairs[key].slow = False
        for key in ready:
            if not pairs[key].expanded:
                expand(key)
        while True:
            # refutation fixpoint
            changed = True
            while changed:
                changed = False
                rounds += 1
                for node in pairs.values():
                    if node.status != "open" or not node.expanded:
                        continue
                    for i, (attack, answers) in enumerate(node.attacks):
                        if answers and all(pairs[k].status == "dead"
                                           for _, k, _ in answers):
                            node.status = "dead"
                            node.rank = rounds
                            node.fail = ("attack", i)
                            changed = True
                            break
            # a pair whose residual died plays its own successors
            dead = [k for k in waiting if pairs[k].status == "dead"]
            for rkey in dead:
                for key, rback in waiting.pop(rkey):
                    node = pairs[key]
                    link(node, node.held, pairs[rkey], rback)
                    node.held = None
            if not dead:
                break
        if pairs[root].status == "dead":
            # built on first read; the module-level name is looked up
            # then, so a wrapper installed on it meanwhile sees the call
            return result(False,
                          lambda: _build_witness(pairs, root, root_back))


def _budget_exceeded(pairs: dict, max_pairs: int):
    """The error of a game whose budget is full, naming how many open
    pairs were never expanded and how long the largest stored state,
    the one of most syntax nodes, prints."""
    sizes: dict = {}               # node -> syntax nodes in its tree

    def size(node):
        n = sizes.get(node)
        if n is None:
            match node:
                case Prefix(body=b) | Restrict(body=b) | Amb(body=b):
                    n = 1 + size(b)
                case Par(children=cs) | Sum(children=cs):
                    n = 1 + sum(map(size, cs))
                case _:
                    n = 1
            sizes[node] = n
        return n

    states = (t.node for node in pairs.values() for t in (node.p, node.q))
    largest = max(states, key=size, default=None)
    return DivergenceBudgetExceededError(
        max_pairs, len(pairs) + 1,
        sum(node.status == "open" and not node.expanded
            for node in pairs.values()),
        0 if largest is None else len(print_node(largest)))


def _class_named(p: Term, q: Term):
    """A pair of canonical states with its name variables renamed
    jointly, in sorted order, to p10, p11, ..., and the renaming back;
    see the module docstring."""
    if not (p.node.vars or q.node.vars):
        return p, q, _NO_VARS
    nvars = {v for kind, v in (*p.node.vars, *q.node.vars) if kind == "name"}
    names = {v: "p" + _spell(i) for i, v in enumerate(sorted(nvars))}
    return (Term(p.calculus, rename_vars(p.node, {}, names)),
            Term(q.calculus, rename_vars(q.node, {}, names)),
            {c: v for v, c in names.items()})


def _following(moves, dead_residual, back) -> "set | range":
    """Indices of the moves that follow a dead residual's refutation: the
    attacks repeating its failing attack (same side, same label, with the
    residual's class names renamed back by `back`), else those that open
    an ambient, peeling a context off; all moves when there is no
    residual or nothing matches."""
    everything = range(len(moves))
    if dead_residual is None or dead_residual.fail[0] != "attack":
        return everything
    failing = _move_key(dead_residual.attacks[dead_residual.fail[1]][0],
                        back)
    follow = {i for i, (attack, _) in enumerate(moves)
              if _move_key(attack) == failing}
    return follow or {i for i, (attack, _) in enumerate(moves)
                      if attack.label is not None
                      and LM.contains(attack.label)} or everything


def _move_key(attack: _Attack, back=_NO_VARS):
    """The attack's side and action or label, the label's variables
    renamed by `back`."""
    return (attack.side, attack.action,
            attack.label and rename_vars(attack.label.body, {}, back))


def _show(term: Term, names: dict) -> str:
    """Print a game state with its name variables renamed."""
    return print_term(canonical_term(
        Term(term.calculus, rename_vars(term.node, {}, names))))


def _build_witness(pairs, root, root_back) -> list[WitnessMove]:
    """The refutation of the root, whose variables the witness calls by
    the names `root_back` gives its class names."""
    moves: list[WitnessMove] = []
    ren = dict(root_back)          # the pair's name var -> witness name
    counter = 0
    key = root
    while True:
        node = pairs[key]
        pair_text = (_show(node.p, ren), _show(node.q, ren))
        kind, *info = node.fail
        if kind == "barb":
            side, name = info
            moves.append(WitnessMove(pair_text, "left" if side == 0 else "right",
                                     "barb", name, None, None, {},
                                     "barb unmatched"))
            return moves
        attack, answers = node.attacks[info[0]]
        att_text = _show(attack.target, ren)
        move = attack.text(ren)
        intro = {}
        for var in _label_variables(attack):
            counter += 1
            intro[var] = f"w{counter}"
        side_text = "left" if attack.side == 0 else "right"
        if not answers:
            moves.append(WitnessMove(pair_text, side_text, "move", move,
                                     att_text, None, intro, "no answer"))
            return moves
        answer, key, inv = min(
            answers, key=lambda a: (pairs[a[1]].rank, node_key(a[0].node)))
        moves.append(WitnessMove(pair_text, side_text, "move", move,
                                 att_text, _show(answer, ren), intro, None))
        ren |= intro
        ren = {c: ren[v] for c, v in inv.items()}


# --- residuals: pairs up to their common context ----------------------------

def _without(parts: tuple, drop: Counter) -> tuple:
    left = Counter(drop)
    out = []
    for c in parts:
        if left[c]:
            left[c] -= 1
        else:
            out.append(c)
    return tuple(out)


def _rebuilt(calc: Calculus, binders: tuple, parts: tuple,
             dropped: set) -> Term:
    node = restricts(binders, par(*parts))
    if binders and any(n[:1] == "f" and n[1:].isdigit() for n in dropped):
        # a binder may now take a smaller fresh name
        return canonical_term(Term(calc, node))
    return Term(calc, node)


def _strip_context(p: Term, q: Term) -> tuple[Term, Term]:
    """The residual of a pair of canonical states: what is left once
    their largest common evaluation context is stripped.

    Repeats until nothing changes: drop the parallel components the two
    sides share that mention no bound name, then, if each side is one
    ambient of the same free name, strip it (the binders move inward).
    Nothing under a prefix or a binder is touched.  The residual is
    canonical as built: the binders keep their names and the kept
    components their order, unless a dropped free name is one the
    binders may now take, which costs one canonicalisation."""
    bp, cp = strip_restricts(p.node)
    bq, cq = strip_restricts(q.node)
    cp, cq = components(cp), components(cq)
    if set(cp).isdisjoint(cq) and not (len(cp) == 1 == len(cq)
                                       and type(cp[0]) is Amb
                                       and type(cq[0]) is Amb):
        return p, q                # the common case: nothing shared
    bound = {*bp, *bq}
    dropped: set = set()
    stripped = False
    while True:
        if not set(cp).isdisjoint(cq):
            common = Counter(cp) & Counter(cq)
            if bound:
                for c in list(common):
                    names = free_names(c)
                    if names.isdisjoint(bound):
                        dropped |= names
                    else:
                        del common[c]
            if common:
                cp, cq = _without(cp, common), _without(cq, common)
                stripped = True
        if len(cp) == 1 == len(cq) and isinstance(cp[0], Amb) \
                and isinstance(cq[0], Amb) and cp[0].name == cq[0].name \
                and cp[0].name not in bound:
            if isinstance(cp[0].name, str):
                dropped.add(cp[0].name)
            cp, cq = components(cp[0].body), components(cq[0].body)
            stripped = True
            continue
        break
    if not stripped:
        return p, q
    return (_rebuilt(p.calculus, tuple(bp), cp, dropped),
            _rebuilt(q.calculus, tuple(bq), cq, dropped))


def _inert(node: Node) -> bool:
    """Has a canonical state no move, no reduction and no barb?  So it is
    when its components are ambients of restricted names that hold no
    capability."""
    binders, core = strip_restricts(node)
    return all(isinstance(c, Amb) and c.name in binders and _capless(c.body)
               for c in components(core))


def _capless(node: Node) -> bool:
    match node:
        case Nil():
            return True
        case Amb(body=b):
            return _capless(b)
        case Par(children=cs):
            return all(_capless(c) for c in cs)
    return False


def _no_residual(self, p, q):
    """The residual of games for which no soundness argument is stated:
    the pair itself."""
    return p, q


# --- concrete games --------------------------------------------------------

class _OrdinaryGame:
    """Strong bisimulation on the ordinary labelled semantics."""

    def residual(self, p, q):
        """The pair up to its common context; see the module docstring."""
        return _strip_context(p, q)

    def __init__(self, calculus: Calculus):
        self.calculus = calculus

    def pair_barb_fail(self, p, q):
        return None

    def attacks(self, p, q):
        out = []
        for side, state in ((0, p), (1, q)):
            for tr in ordinary_transitions(state):
                out.append(_Attack(side, tr.action, None, tr.target))
        return out

    def answers(self, attack, defender):
        return [tr.target for tr in ordinary_transitions(defender)
                if tr.action == attack.action]


class _AsyncGame(_OrdinaryGame):
    """Asynchronous bisimulation: inputs may be answered by a tau step
    that leaves the consumed message beside the residual."""

    def answers(self, attack, defender):
        exact = super().answers(attack, defender)
        action = attack.action
        if action == "tau" or action.startswith("'"):
            return exact
        extra = [
            canonical_term(Term(defender.calculus,
                                par(tr.target.node, Msg(action))))
            for tr in ordinary_transitions(defender) if tr.action == "tau"
        ]
        return exact + extra


def _spell(n: int) -> str:
    """n as its digit count followed by its digits: spelt numbers sort
    as strings in numeric order."""
    digits = str(n)
    return f"{len(digits)}{digits}"


def _label_variables(attack: _Attack) -> list:
    """The variables a move introduces into the states: the label's name
    variable x, if it has one (its process variables are erased, and its
    other name variables are the state's own)."""
    if attack.label is not None and ("name", "x") in attack.label.body.vars:
        return ["x"]
    return []


def _erased(term: Term) -> Term:
    """The state with its process variables replaced by 0, canonical
    again: the state the game plays (see the module docstring)."""
    procs = {v: NIL for kind, v in term.node.vars if kind == "proc"}
    if not procs:
        return term
    return canonical_term(Term(term.calculus, _subst(
        term.node, procs, {}, None, frozenset(), frozenset())))


class _SymbolicGame:
    """l-bisim(L) on the symbolic ITS: an attack whose label lies in L is
    answered by the same label, any other attack C[-] by one reduction of
    C[defender].  L = ALL gives IPO bisimilarity, L = EMPTY
    semi-saturated bisimilarity."""

    def __init__(self, calculus: Calculus, labels: LabelSet, barbed: bool):
        self.calculus = calculus
        self.labels = labels
        self.barbed = barbed

    def pair_barb_fail(self, p, q):
        if not self.barbed:
            return None
        bp, bq = barbs(p), barbs(q)
        if bp == bq:
            return None
        only_p = sorted(bp - bq)
        if only_p:
            return ("barb", 0, only_p[0])
        return ("barb", 1, sorted(bq - bp)[0])

    def residual(self, p, q):
        """The pair up to its common context where the module docstring
        states why that is sound, else the pair itself."""
        if self.labels.kind in ("all", "empty",
                                OWN_LABEL_SETS[self.calculus].kind):
            return _strip_context(p, q)
        return p, q

    def moves(self, state):
        """The state's ITS transitions."""
        return its_transitions(state)

    def attacks(self, p, q):
        """The states' ITS moves, each target erased as it is reached."""
        for side, state in ((0, p), (1, q)):
            for tr in self.moves(state):
                yield _Attack(side, None, tr.label, _erased(tr.target))

    def answers(self, attack, defender):
        if self.labels.contains(attack.label):
            # the defender's moves with the attack's label
            return [_erased(tr.target) for tr in self.moves(defender)
                    if tr.label.body == attack.label.body]
        return [_erased(t) for t in reduct_terms(plug(attack.label, defender))]


class _InstantiatedGame(_SymbolicGame):
    """l-bisim(L) with label variables closed over a finite pool, so
    every move carries a closed label and no state has variables."""

    residual = _no_residual

    def __init__(self, calculus, labels: LabelSet, barbed: bool,
                 pool: tuple[Term, ...], names: tuple[str, ...]):
        super().__init__(calculus, labels, barbed)
        self.pool = pool
        self.names = names

    def moves(self, state):
        """Every closure of each ITS transition over the pool, each
        (label, target) once, in first-seen order."""
        out = {}
        for tr in its_transitions(state):
            label_vars = dict.fromkeys(tr.label.body.vars)
            if not label_vars:
                out.setdefault((tr.label.body, tr.target.node), tr)
                continue
            pvars = [name for kind, name in label_vars if kind == "proc"]
            nvars = [name for kind, name in label_vars if kind == "name"]
            for procs in product(self.pool, repeat=len(pvars)):
                for names in product(self.names, repeat=len(nvars)):
                    inst = instantiate(tr, Substitution.make(
                        self.calculus, procs=dict(zip(pvars, procs)),
                        names=dict(zip(nvars, names))))
                    out.setdefault((inst.label.body, inst.target.node), inst)
        return list(out.values())


def _pool_names(p, q, pool) -> tuple[str, ...]:
    names = set(free_names(p.node)) | set(free_names(q.node))
    for t in pool:
        names |= free_names(t.node)
    names.add(fresh_name(names))
    return tuple(sorted(names))


# --- the relations and their entry point -----------------------------------

# The label set of each relation decided by a game on the ITS with a fixed
# L; l-bisim takes its L from the caller.
_FIXED_LABELS = {"ipo": ALL, "semi-sat": EMPTY, "barbed-semi-sat": EMPTY}

RELATIONS = ("strong", "async", *_FIXED_LABELS, "l-bisim")


def _game(relation: str, calc: Calculus, p: Term, q: Term,
          labels: "LabelSet | None", pool):
    """The game that decides `relation` between p and q, which `check`
    plays and `verify_witness` replays.  The one place that maps a
    relation name to its game, and that refuses what a relation does not
    take."""
    if relation not in RELATIONS:
        raise LbisimError(f"unknown relation {relation!r}; use one of "
                          f"{', '.join(RELATIONS)}")
    if relation == "l-bisim" and labels is None:
        raise LbisimError("l-bisim needs a label set (--labels, or the "
                          "labels keyword)")
    if relation != "l-bisim" and labels is not None:
        raise LbisimError(f"{relation} takes no label set (--labels, or "
                          f"the labels keyword); only l-bisim does")
    if relation in ("strong", "async"):
        if pool is not None:
            raise LbisimError(f"{relation} takes no instantiation pool "
                              f"(--mode, or the pool keyword); only the "
                              f"contextual relations do")
        if relation == "async":
            if calc is not Calculus.ACCS:
                raise LbisimError(
                    "asynchronous bisimilarity is an ACCS relation")
            return _AsyncGame(calc)
        if calc is Calculus.MA:
            raise MAUnsupportedError("strong bisimilarity needs an ordinary "
                                     "LTS; MA has none here")
        return _OrdinaryGame(calc)
    labels = _FIXED_LABELS.get(relation, labels)
    barbed = relation == "barbed-semi-sat"
    if pool is None:
        return _SymbolicGame(calc, labels, barbed)
    pool = tuple(canonical_term(t) for t in pool)
    if not pool:
        raise MalformedTermError("the instantiation pool is empty, so no "
                                 "move with a label variable has an instance")
    for t in pool:
        if t.calculus is not calc or t.node.vars:
            raise MalformedTermError("instantiation pool terms must be "
                                     "pure terms of the same calculus")
    return _InstantiatedGame(calc, labels, barbed, pool,
                             _pool_names(p, q, pool))


def _entry(p: Term, q: Term) -> Calculus:
    calc = same_calculus(p, q)
    for t in (p, q):
        if t.node.vars:
            raise MalformedTermError(
                "equivalence queries take pure terms "
                "(variables appear only in game states)")
    return calc


def check(relation: str, p: Term, q: Term, *,
          labels: "LabelSet | None" = None, pool=None,
          max_pairs: int = DEFAULT_MAX_PAIRS) -> GameResult:
    """Decide `relation`, one of RELATIONS, between two pure terms.

    `labels` is l-bisim's label set, and only l-bisim takes one.  `pool`,
    a non-empty list of pure terms, closes the label variables of the
    contextual relations' games over it.  A game that needs more than
    `max_pairs` pairs stops with DivergenceBudgetExceededError."""
    calc = _entry(p, q)
    return _solve(_game(relation, calc, p, q, labels, pool), p, q,
                  max_pairs)


# --- reduction predicates behind the non-capturable labels -----------------

def _marker(p: Term, name: str, t1: Term) -> str:
    """A marker name fresh for p, T1 and `name`, the name the label's
    prefix acts on, which must be one the grammar can write."""
    if not is_name(name):
        raise LbisimError(f"{name!r} is not a name")
    return fresh_name(free_names(p.node) | free_names(t1.node) | {name})


def _marker_outcomes(p: Term, ctx: Label, marker: str, barb: str):
    """What C[p] becomes in two reductions, the first showing the
    marker's barb and the second losing it, with the marker gone."""
    for mid in reduct_terms(plug(ctx, p)):
        if barb in barbs(mid):
            for out in reduct_terms(mid):
                if barb not in barbs(out) and marker not in out.node.free:
                    yield out.node


def _pure(what: str, *terms, ma: bool = False) -> None:
    """Refuse terms with variables and, for an MA predicate, terms of
    another calculus."""
    for t in terms:
        if ma and t.calculus is not Calculus.MA:
            raise MAUnsupportedError(f"{what} is an MA predicate")
        if t.node.vars:
            raise MalformedTermError(f"{what} takes pure terms")


def open_targets(p: Term, amb_name: str, t1: Term):
    """The targets of p's `- | open n.X1` transitions with X1 := T1, found
    purely from reductions and barbs, as a generator.

    Uses the context  - | open n.(m[0] | open m.T1)  with m fresh: the
    first reduction must unleash the marker ambient m, the second must
    consume it again, and the result must have lost the m barb.
    """
    _pure("pred_open", p, t1, ma=True)
    m = _marker(p, amb_name, t1)
    ctx = Label(Calculus.MA,
                par(Hole(),
                    Prefix(Cap("open", amb_name),
                           par(Amb(m, Nil()),
                               Prefix(Cap("open", m), t1.node)))))
    return _marker_outcomes(p, ctx, m, m)


def pred_open(p: Term, target: Term, amb_name: str, t1: Term) -> bool:
    """Does p have an open-label transition to `target`, decided purely
    from reductions and barbs?  See `open_targets`."""
    _pure("pred_open", target, ma=True)
    want = canonical_node(target)
    return any(out == want for out in open_targets(p, amb_name, t1))


def ccs_targets(kind: str, p: Term, channel: "str | None", t1: "Term | None"):
    """The targets of p's `- | 'a.X1` ("out") or `- | a.X1` ("in")
    transitions with X1 := T1, found purely from reductions and barbs, as
    a generator.

    The marker is a fresh channel i: the context offers the prefix on `a`
    with continuation ('i.0 | T1), plus a probe i.0.  The first step must
    fire the prefix (observable as the 'i barb), the second consumes the
    marker pair, and the result must have lost the 'i barb.
    """
    if kind not in ("out", "in"):
        raise LbisimError(f"unknown predicate kind {kind!r}")
    if channel is None or t1 is None:
        raise LbisimError("kinds 'out' and 'in' need a channel and a term")
    _pure("pred_ccs", p, t1)
    i = _marker(p, channel, t1)
    inner = par(Prefix(Send(i), Nil()), t1.node)
    probe = (Prefix(Send(channel), inner) if kind == "out"
             else Prefix(Recv(channel), inner))
    ctx = Label(Calculus.CCS, par(Hole(), probe, Prefix(Recv(i), Nil())))
    return _marker_outcomes(p, ctx, i, f"'{i}")


def pred_ccs(kind: str, p: Term, target: Term, channel: "str | None" = None,
             t1: "Term | None" = None) -> bool:
    """CCS counterpart: "out" asks for a - | 'a.T1 transition (the context
    offers an output), "in" for - | a.T1 (see `ccs_targets`), "tau" for a
    silent step."""
    if p.calculus is not Calculus.CCS:
        raise LbisimError("pred_ccs is a CCS predicate")
    if kind == "tau":
        outs = (out.node for out in reduct_terms(p))
    else:
        outs = ccs_targets(kind, p, channel, t1)
        _pure("pred_ccs", target)
    want = canonical_node(target)
    return any(out == want for out in outs)


# --- capturing check -------------------------------------------------------

@dataclass
class BarbReport:
    barb: str
    label_text: "str | None"
    ok: bool
    violations: list[str] = field(default_factory=list)


@dataclass
class CapturingReport:
    label_set: str
    calculus: str
    entries: list[BarbReport]
    ok: bool


def is_capturing(labels: LabelSet, calculus: Calculus, corpus) \
        -> CapturingReport:
    """Check, over a corpus, that every barb is equivalent to having a
    transition with some fixed label of the set."""
    corpus = [canonical_term(t) for t in corpus]
    # The barbs a term of the corpus could show: its own, and each free
    # name n as the barb n (MA, and CCS input) and 'n (CCS and ACCS
    # output).
    checked: set[str] = set()
    for t in corpus:
        checked |= barbs(t)
        for n in free_names(t.node):
            if calculus is not Calculus.ACCS:
                checked.add(n)
            if calculus is not Calculus.MA:
                checked.add(f"'{n}")
    observed = {}
    for t in corpus:
        observed[t.node] = {tr.label.body for tr in its_transitions(t)}
    entries = []
    for barb in sorted(checked, key=lambda b: (b.lstrip("'"), b)):
        cands = labels.barb_candidates(barb, calculus)
        best = None
        for cand in cands:
            bad = [t for t in corpus
                   if (barb in barbs(t)) != (cand.body in observed[t.node])]
            if not bad:
                best = (cand, [])
                break
            if best is None or len(bad) < len(best[1]):
                best = (cand, bad)
        if best is None:
            entries.append(BarbReport(barb, None, False))
            continue
        cand, bad = best
        entries.append(BarbReport(barb, print_label(cand), not bad,
                                  [print_term(t) for t in bad[:5]]))
    return CapturingReport(labels.name, calculus.value, entries,
                           all(e.ok for e in entries))


# --- witness replay --------------------------------------------------------

def verify_witness(p: Term, q: Term, result: GameResult, relation: str,
                   labels: "LabelSet | None" = None, pool=None) -> bool:
    """Replay a failure witness through the game that produced it.

    Every step's attacker move must be one of the game's attacks, every
    recorded defender answer one of the game's answers to it, and the
    last step a genuine dead end (no answer, or an unmatched barb).
    Witness states rename the name variable x each move introduces to
    w1, w2, ...; `intro_vars` of each step records that renaming, and the
    replay applies it to the next pair.  Like `check`, it takes pure
    terms only.
    """
    if result.verdict or not result.witness:
        raise LbisimError("only inequivalence results carry a witness")
    calc = _entry(p, q)
    game = _game(relation, calc, p, q, labels, pool)
    cur_p, cur_q = canonical_term(p), canonical_term(q)
    for step in result.witness:
        if (print_term(cur_p), print_term(cur_q)) != step.pair:
            return False
        side = 0 if step.side == "left" else 1
        if step.kind == "barb":
            return game.pair_barb_fail(cur_p, cur_q) == ("barb", side,
                                                         step.move)
        for attack in game.attacks(cur_p, cur_q):
            if attack.side == side and attack.text({}) == step.move \
                    and _show(attack.target, {}) == step.attacker_target:
                break
        else:
            return False
        answers = game.answers(attack, cur_q if side == 0 else cur_p)
        if step.defender_target is None:
            return not answers and step.reason == "no answer"
        chosen = next((a for a in answers
                       if _show(a, {}) == step.defender_target), None)
        ren = step.intro_vars
        if chosen is None or set(ren) != set(_label_variables(attack)):
            return False
        nxt_att = canonical_term(
            Term(calc, rename_vars(attack.target.node, {}, ren)))
        nxt_def = canonical_term(
            Term(calc, rename_vars(chosen.node, {}, ren)))
        cur_p, cur_q = ((nxt_att, nxt_def) if side == 0
                        else (nxt_def, nxt_att))
    return False
