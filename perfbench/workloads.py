"""Seeded workload inputs and the hand-written oracle.

Every case carries the answer a correct program must give and the law
or theorem that fixes it.  Nothing here imports ``lbisim``: the oracle
is independent of the program it judges.

The seed renames channels and ambients, permutes parallel components
and swaps the two sides of a query.  It never changes the shape of a
case, so every seed costs the program the same amount of work and the
spread between seeds is measurement noise, not a different workload.
The literal ROADMAP baselines and firewall-law pairs are not renamed.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

# Per-query pair budgets (``--max-pairs``).  ccs-games passes the
# program's default explicitly so that LBISIM_MAX_PAIRS cannot change it.
CCS_BUDGET = 50_000
MA_BUDGET = 2_000

# Corpus check lists per calculus, as in lbisim.corpus.DEFAULT_CHECKS.
CORPUS_CHECKS = {
    "ccs": ("roundtrip", "idempotence", "axioms", "shuffle", "reducts",
            "lts", "coincidence", "endpoints", "pred", "congruence"),
    "accs": ("roundtrip", "idempotence", "axioms", "shuffle", "reducts",
             "lts", "coincidence", "endpoints", "congruence"),
    "ma": ("roundtrip", "idempotence", "axioms", "shuffle", "reducts",
           "barbs", "pred", "endpoints", "congruence"),
}

# Names the seed may pick; keywords and the program's fresh names
# (f0, f1, ...) are left out.
_NAMES = tuple("abcdeghjlmpqrsuvwyz")

EQ, NEQ, UNKNOWN = "equivalent", "inequivalent", "unknown"

# ROADMAP defect under which the seed gives a false "inequivalent".
FRESHEN_DEFECT = "MA games freshen a state's own name variables"


@dataclass
class Case:
    """One timed call: a `check` query, a corpus check or a pipeline."""
    name: str
    kind: str                      # check | corpus | pipeline
    argv: list = field(default_factory=list)
    expect: str = UNKNOWN          # check: verdict; pipeline: see below
    law: str = ""
    budget: int = 0
    known_defect: str = ""
    # pipeline cases
    text: str = ""
    calculus: str = ""
    reducts: int = 0
    its_rules: tuple = ()


def _renamer(rng: random.Random, slots: str):
    picked = rng.sample(_NAMES, len(slots))
    return dict(zip(slots, picked))


def _par(parts) -> str:
    return " | ".join(parts)


def _check(prefix, calc, rel, p, q, expect, law, budget, rng=None,
           known_defect=""):
    """A `check` query named <prefix>/<relation>; `rng` swaps the sides."""
    if rng is not None and rng.random() < 0.5:
        p, q = q, p
    rel_args = rel.split()
    if rel_args[0] == "l-bisim":
        rel_args = ["l-bisim", "--labels", rel_args[1]]
    argv = ["check", "--format", "json", "--calculus", calc,
            "--max-pairs", str(budget), "--rel", *rel_args, p, q]
    return Case(f"{prefix}/{rel.replace(' ', ':')}", "check", argv, expect,
                law, budget, known_defect)


def _sum_ladders(rng, prefix, calc, ladders, rels, slots):
    """C | P + P against C | P for each (C, P) and relation."""
    cases = []
    for ctx, summand in ladders:
        for rel in rels:
            ren = _renamer(rng, slots)
            parts = [c.format(**ren) for c in ctx]
            s = summand.format(**ren)
            left = parts + [f"{s} + {s}"]
            right = parts + [s]
            rng.shuffle(left)
            rng.shuffle(right)
            cases.append(_check(f"{prefix}/{len(ctx) + 1}", calc, rel,
                                _par(left), _par(right), EQ, _SUM_LAW,
                                CCS_BUDGET, rng))
    return cases


# --- ccs-games --------------------------------------------------------------

_CCS_RELS = ("strong", "ipo", "semi-sat", "barbed-semi-sat",
             "l-bisim LCCS", "l-bisim ALL", "l-bisim EMPTY")
_ACCS_RELS = ("strong", "async", "ipo", "semi-sat", "barbed-semi-sat",
              "l-bisim LA", "l-bisim ALL", "l-bisim EMPTY")

_SUM_LAW = ("P + P ~ P: both sides have the same moves, so C[P + P] ~ C[P] "
            "under every relation of the family")

# (context components, summand P); the context size gives 2 to 5 parts.
_CCS_LADDERS = (
    (("'{a}.0",), "{a}.0"),
    (("{b}.0", "'{c}.0"), "{a}.0"),
    (("{b}.0", "'{c}.0", "{d}.0"), "{a}.0"),
    (("{b}.0", "{b}.0", "{c}.0", "{c}.0"), "{a}.0"),
)
_ACCS_LADDERS = (
    (("'{c}", "{d}.0"), "{a}.'{b}"),
    (("'{a}", "{b}.0", "'{c}"), "{a}.0"),
)
_FLAGSHIP_CONTEXTS = (
    ("'{b}",),
    ("{b}.0", "'{c}"),
    ("'{b}", "{c}.0", "'{d}"),
)
_FLAGSHIP = {
    "strong": (NEQ, "only the left side has an input on the flagship channel"),
    "async": (EQ, "flagship async pair; asynchronous bisimilarity is a "
                  "congruence"),
    "l-bisim LA": (EQ, "flagship async pair; LA-bisimilarity = asynchronous "
                       "bisimilarity"),
    "semi-sat": (EQ, "asynchronous bisimilarity is contained in "
                     "semi-saturated bisimilarity (L-monotonicity)"),
    "l-bisim EMPTY": (EQ, "EMPTY = semi-saturated; contains asynchronous "
                          "bisimilarity"),
    "barbed-semi-sat": (EQ, "asynchronous bisimilarity is a barb-preserving "
                            "congruence"),
    "ipo": (NEQ, "the - | 'a move has no same-label answer: the context has "
                 "no input on a"),
    "l-bisim ALL": (NEQ, "ALL = IPO; the - | 'a move has no same-label "
                         "answer"),
}
_DIFF_CCS = {
    "strong": "the distinguishing action exists on one side only",
    "l-bisim LCCS": "LCCS = strong on CCS; one side has an action the "
                    "other lacks",
    "ipo": "every CCS label lies in LCCS, so IPO = LCCS = strong",
    "l-bisim ALL": "ALL = IPO = LCCS on CCS",
    "barbed-semi-sat": "the barbs differ at the root",
    "semi-sat": "the plugged defender has no reduction to answer the "
                "first attack",
    "l-bisim EMPTY": "EMPTY = semi-saturated; the plugged defender has no "
                     "reduction",
}


def ccs_games(seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    base_p = "a.b.0 | 'a.0 | 'b.0 | c.0"
    base_q = "'b.0 | a.b.0 | 'a.0 | c.0 + c.0"
    for rel in ("semi-sat", "l-bisim LCCS", "strong", "ipo"):
        cases.append(_check("baseline", "ccs", rel, base_p, base_q, EQ,
                            "structural congruence and P + P ~ P "
                            "(ROADMAP baseline pair)", CCS_BUDGET))
    cases += _sum_ladders(rng, "ccs-sum", "ccs", _CCS_LADDERS, _CCS_RELS,
                          "abcde")
    for rel in _CCS_RELS:
        ren = _renamer(rng, "abcd")
        ctx = ["{c}.0".format(**ren), "'{d}.0".format(**ren)]
        left = ctx + ["{a}.0".format(**ren)]
        right = ctx + ["{b}.0".format(**ren)]
        rng.shuffle(left)
        rng.shuffle(right)
        cases.append(_check("ccs-diff", "ccs", rel, _par(left), _par(right),
                            NEQ, _DIFF_CCS[rel], CCS_BUDGET, rng))
    for ctx in _FLAGSHIP_CONTEXTS:
        for rel in _ACCS_RELS:
            ren = _renamer(rng, "abcd")
            parts = [c.format(**ren) for c in ctx]
            a = ren["a"]
            left = parts + [f"{a}.'{a} + tau.0"]
            right = parts + ["tau.0"]
            rng.shuffle(left)
            rng.shuffle(right)
            expect, law = _FLAGSHIP[rel]
            cases.append(_check(f"flagship/{len(ctx)}", "accs", rel,
                                _par(left), _par(right), expect, law,
                                CCS_BUDGET, rng))
    cases += _sum_ladders(rng, "accs-sum", "accs", _ACCS_LADDERS, _ACCS_RELS,
                          "abcd")
    return cases


# --- ma-games ---------------------------------------------------------------

_MA_RELS = ("ipo", "semi-sat", "barbed-semi-sat", "l-bisim LM",
            "l-bisim ALL", "l-bisim EMPTY")

FIREWALL_PAIRS = (
    ("m[(nu k) k[0]]", "m[0]"),
    ("in n.0", "in n.(nu k) k[0]"),
    ("m[in n.0]", "m[in n.0] | (nu k) k[0]"),
)
_FIREWALL = {
    "semi-sat": "firewall law (nu k) k[0] = 0 plus congruence",
    "barbed-semi-sat": "firewall law (nu k) k[0] = 0 plus congruence",
    "l-bisim LM": "firewall law plus congruence of L-bisimilarity",
    "ipo": "(nu k) k[0] and 0 have no ITS move; IPO bisimilarity is a "
           "congruence",
}
_BARB_DIFF = {
    "ipo": "the - | open n.X1 move has no same-label answer",
    "l-bisim ALL": "ALL = IPO; the - | open n.X1 move is unmatched",
    "l-bisim LM": "- | open n.X1 lies in LM and is unmatched",
    "barbed-semi-sat": "the barbs differ at the root",
    "semi-sat": "the plugged defender is inert: no reduction answers "
                "- | open n.X1",
    "l-bisim EMPTY": "EMPTY = semi-saturated; the plugged defender is inert",
}
_CAP_DIFF = {
    "ipo": "the in-move - | m[X1] has no same-label answer",
    "l-bisim ALL": "ALL = IPO; the in-move - | m[X1] is unmatched",
    "l-bisim LM": "- | m[X1] lies outside LM; the plugged defender is inert",
    "barbed-semi-sat": "the plugged defender has no reduction",
    "semi-sat": "the plugged defender has no reduction",
    "l-bisim EMPTY": "the plugged defender has no reduction",
}
_OPEN_CHAIN = ("after the shared open steps, one side opens an ambient the "
               "other cannot: no same-label answer and no reduction of the "
               "plugged defender")
_MA_FIREWALL_TOP = ("firewall law: (nu k) k[0] and 0 both have no ITS move "
                    "and no reduction")
_MA_SHUFFLE = ("structural congruence: the sides differ by parallel order "
               "and bound names only")


def ma_games(seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for p, q in FIREWALL_PAIRS:
        for rel in ("semi-sat", "barbed-semi-sat", "l-bisim LM", "ipo"):
            defect = "" if rel == "ipo" else FRESHEN_DEFECT
            cases.append(_check(f"firewall/{p}", "ma", rel, p, q, EQ,
                                _FIREWALL[rel], MA_BUDGET,
                                known_defect=defect))
    for ctx in (("{j}[0]",), ("{j}[{i}[0]]", "{h}[0]")):
        for rel in _MA_RELS:
            ren = _renamer(rng, "nmkjih")
            parts = [c.format(**ren) for c in ctx]
            left = parts + ["{n}[{k}[0]]".format(**ren)]
            right = parts + ["{m}[{k}[0]]".format(**ren)]
            rng.shuffle(left)
            rng.shuffle(right)
            cases.append(_check(f"ma-barb/{len(ctx)}", "ma", rel,
                                _par(left), _par(right), NEQ,
                                _BARB_DIFF[rel], MA_BUDGET, rng))
    for rel in _MA_RELS:
        ren = _renamer(rng, "nmj")
        left = ["{n}[in {m}.0]".format(**ren), "{j}[0]".format(**ren)]
        right = ["{n}[out {m}.0]".format(**ren), "{j}[0]".format(**ren)]
        rng.shuffle(left)
        rng.shuffle(right)
        cases.append(_check("ma-cap", "ma", rel, _par(left), _par(right),
                            NEQ, _CAP_DIFF[rel], MA_BUDGET, rng))
    for depth in (2, 3):
        for rel in _MA_RELS:
            ren = _renamer(rng, "abcmp")
            shared = ["open {a}", "open {b}", "open {c}"][:depth - 1]
            left = ".".join(s.format(**ren) for s in shared)
            p = f"{left}.open {ren['m']}.0"
            q = f"{left}.open {ren['p']}.0"
            cases.append(_check(f"ma-open/{depth}", "ma", rel, p, q, NEQ,
                                _OPEN_CHAIN, MA_BUDGET, rng))
    for rel in _MA_RELS:
        k = rng.choice(_NAMES)
        cases.append(_check("ma-firewall-top", "ma", rel, f"(nu {k}) {k}[0]",
                            "0", EQ, _MA_FIREWALL_TOP, MA_BUDGET, rng))
    for rel in _MA_RELS:
        ren = _renamer(rng, "nmkx")
        parts = ["{n}[in {m}.0]", "(nu {k}) {k}[open {n}.0]", "{m}[0]"]
        left = [c.format(**ren) for c in parts]
        right = [c.format(**ren) for c in parts]
        right[1] = "(nu {x}) {x}[open {n}.0]".format(**ren)
        rng.shuffle(left)
        rng.shuffle(right)
        cases.append(_check("ma-shuffle", "ma", rel, _par(left), _par(right),
                            EQ, _MA_SHUFFLE, MA_BUDGET, rng))
    return cases


# --- corpus-sweep -----------------------------------------------------------

def corpus_sweep(seed: int) -> list[Case]:
    """One call of `lbisim corpus` per check of each calculus's default
    spec, so that every check is a timed case of its own.  Like every
    case, each starts from cold caches, as a fresh `lbisim corpus`
    process would.

    The suite draws its random terms from its own spec seed, and their
    cost varies from one suite seed to the next by more than the bounds
    allow; so the spec keeps the suite's default seed 0 and --seed only
    sets the order in which the calculi run."""
    order = list(CORPUS_CHECKS)
    random.Random(seed).shuffle(order)
    cases = []
    for calc in order:
        for check in CORPUS_CHECKS[calc]:
            spec = json.dumps({"calculus": calc, "seed": 0,
                               "checks": [check]})
            cases.append(Case(f"corpus/{calc}/{check}", "corpus",
                              ["corpus", "--format", "json", spec],
                              "ok", "the suite's own cross-checks"))
    return cases


# --- big-terms --------------------------------------------------------------

# Chains reach past the depth at which the seed's recursive parser and
# canonicaliser overflow the interpreter stack; the 8-name asymmetric
# cluster is one more than the seed's exhaustive-permutation limit.
CHAIN_DEPTHS = tuple(range(10, 201, 10)) + (1200,)
CLUSTER_WIDTHS = tuple(range(1, 9))
SYMMETRIC_WIDTHS = (4, 8)


def _ccs_chain(rng, depth):
    chans = rng.sample(_NAMES, 4)
    acts = [rng.choice(chans) for _ in range(depth)]
    acts = [a if rng.random() < 0.5 else f"'{a}" for a in acts]
    rule = "Snd" if acts[0].startswith("'") else "Rcv"
    return ".".join(acts) + ".0", rule


def _ma_chain(rng, depth):
    names = rng.sample(_NAMES, 4)
    acts = [f"{rng.choice(('in', 'out', 'open'))} {rng.choice(names)}"
            for _ in range(depth)]
    rule = {"in": "In", "out": "Out", "open": "Open"}[acts[0].split()[0]]
    return ".".join(acts) + ".0", rule


def _cluster(rng, width, symmetric):
    """(nu k1..kw) over a ring of nested ambients plus one chord (no
    automorphism), or over w bare replicas, beside a free `open n.0`.
    Restricted ambients carry no capability, so the only move is the
    Open transition of the free component and there is no reduction."""
    ks = [f"k{i}" for i in range(1, width + 1)]
    if symmetric:
        comps = [f"{k}[0]" for k in ks]
    else:
        comps = [f"{ks[i]}[{ks[(i + 1) % width]}[0]]" for i in range(width)]
        if width > 2:
            comps.append(f"{ks[0]}[{ks[2]}[0]]")
    n = rng.choice(_NAMES)
    comps.append(f"open {n}.0")
    rng.shuffle(comps)
    binders = "".join(f"(nu {k}) " for k in ks)
    return f"{binders}({_par(comps)})"


def big_terms(seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for depth in CHAIN_DEPTHS:
        text, rule = _ccs_chain(rng, depth)
        cases.append(Case(f"chain/ccs/{depth}", "pipeline", text=text,
                          calculus="ccs", reducts=0, its_rules=(rule,),
                          law="one prefix chain: no reduction, one move"))
        text, rule = _ma_chain(rng, depth)
        cases.append(Case(f"chain/ma/{depth}", "pipeline", text=text,
                          calculus="ma", reducts=0, its_rules=(rule,),
                          law="one capability chain: no reduction, one move"))
    for width in CLUSTER_WIDTHS:
        cases.append(Case(f"cluster/asym/{width}", "pipeline",
                          text=_cluster(rng, width, False), calculus="ma",
                          reducts=0, its_rules=("Open",),
                          law="inert cluster beside open n.0: one Open move"))
    for width in SYMMETRIC_WIDTHS:
        cases.append(Case(f"cluster/sym/{width}", "pipeline",
                          text=_cluster(rng, width, True), calculus="ma",
                          reducts=0, its_rules=("Open",),
                          law="inert cluster beside open n.0: one Open move"))
    return cases


WORKLOADS = {
    "ccs-games": ccs_games,
    "ma-games": ma_games,
    "corpus-sweep": corpus_sweep,
    "big-terms": big_terms,
}
