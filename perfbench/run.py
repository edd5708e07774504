"""lbisim benchmark: time to a correct verdict, end to end and per layer.

    python3 perfbench/run.py --workload ccs-games --seed 1 --seconds 30 \
        --trace 0

Run from the root of a checkout: the program is imported from ./src.
One process, one client, no threads.  Each timed case starts from cold
memo caches, as a fresh `lbisim` process would.  Cases repeat in passes
until --seconds have passed (the first pass always completes).  Each
call's time is scaled to a reference host speed measured by a
calibration op around it, and a case's time is the median of its calls.
A case is one attempt, whatever the number of its calls: its outcome
must be the same in every call.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 1 two untraced passes are followed by traced passes, and the
metrics are the per-layer split (see README.md).

    python3 perfbench/run.py --selftest --seed 1

checks the outcome classifier on one input per failure class and that
every game's pair count repeats exactly under two PYTHONHASHSEED values.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import io
import itertools
import json
import math
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from workloads import EQ, NEQ, UNKNOWN, WORKLOADS, Case  # noqa: E402

SETUP_REPEATS = 15
TAIL_BEYOND = 10
OK, WRONG, BUDGET, REFUSED, CRASH = "ok", "wrong", "budget", "refused", \
    "crash"
_REACHED = re.compile(r"reached (\d+)")


class Outcome:
    __slots__ = ("status", "seconds", "pairs", "cases", "wrong", "detail")

    def __init__(self, status, seconds, pairs=None, cases=1, wrong=0,
                 detail=""):
        self.status = status
        self.seconds = seconds
        self.pairs = pairs
        self.cases = cases         # suite cases (corpus) or 1
        self.wrong = wrong         # outputs contradicting the oracle
        self.detail = detail


# --- the program under test --------------------------------------------------

def _purge():
    for name in [m for m in sys.modules
                 if m == "lbisim" or m.startswith("lbisim.")]:
        del sys.modules[name]


def import_program(root: Path) -> dict:
    """Import lbisim from <root>/src and return its modules by name."""
    importlib.invalidate_caches()
    lbisim = importlib.import_module("lbisim")
    importlib.import_module("lbisim.cli")
    origin = Path(lbisim.__file__).resolve()
    if (root / "src") not in origin.parents:
        raise SystemExit(f"lbisim imported from {origin}, not {root}/src")
    return {name: mod for name, mod in sys.modules.items()
            if name == "lbisim" or name.startswith("lbisim.")}


def memo_caches(modules: dict) -> dict:
    """Every functools cache in the program, by qualified name."""
    found = {}
    for mod in modules.values():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)) and \
                    callable(getattr(value, "cache_info", None)):
                found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


# --- running one case --------------------------------------------------------

def _call_cli(modules, argv):
    """(return code or None, stdout, exception, seconds)."""
    out = io.StringIO()
    main = modules["lbisim.cli"].main
    exc = None
    rc = None
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except Exception as e:  # any escape from main is a crash
            exc = e
        t1 = time.perf_counter()
    return rc, out.getvalue(), exc, t1 - t0


def classify_check(case: Case, rc, stdout, exc, seconds) -> Outcome:
    if exc is not None:
        return Outcome(CRASH, seconds, detail=type(exc).__name__)
    if rc == 3:
        m = _REACHED.search(stdout)
        return Outcome(BUDGET, seconds, int(m.group(1)) if m else case.budget,
                       detail="budget exhausted")
    if rc == 2:
        return Outcome(REFUSED, seconds, detail=stdout.strip()[:80])
    if rc not in (0, 1):
        return Outcome(CRASH, seconds, detail=f"exit {rc}")
    try:
        payload = json.loads(stdout)
        verdict = payload["verdict"]
        pairs = payload["stats"]["pairs"]
    except (ValueError, KeyError, TypeError):
        return Outcome(CRASH, seconds, detail="unreadable verdict payload")
    if (rc == 0) != (verdict == EQ):
        return Outcome(WRONG, seconds, pairs, wrong=1,
                       detail=f"exit {rc} with verdict {verdict}")
    if case.expect != UNKNOWN and verdict != case.expect:
        return Outcome(WRONG, seconds, pairs, wrong=1, detail=verdict)
    return Outcome(OK, seconds, pairs, detail=verdict)


def classify_corpus(rc, stdout, exc, seconds) -> Outcome:
    if exc is not None:
        return Outcome(CRASH, seconds, cases=0, detail=type(exc).__name__)
    if rc in (2, 3):
        return Outcome(REFUSED if rc == 2 else BUDGET, seconds, cases=0)
    try:
        checks = json.loads(stdout)["checks"]
    except (ValueError, KeyError, TypeError):
        return Outcome(CRASH, seconds, cases=0, detail="unreadable payload")
    total = sum(c["total"] for c in checks)
    bad = sum(len(c["failures"]) or (not c["ok"]) for c in checks)
    if rc != 0 or bad:
        return Outcome(WRONG, seconds, cases=total, wrong=max(bad, 1),
                       detail=f"{bad} suite failures")
    return Outcome(OK, seconds, cases=total, detail=f"{total} cases")


def run_pipeline(modules, case: Case) -> Outcome:
    lb = modules["lbisim"]
    calc = lb.Calculus(case.calculus)
    t0 = time.perf_counter()
    try:
        term = lb.parse_term(case.text, calc)
        canon = lb.canonical_term(term)
        steps = lb.reducts(canon)
        moves = lb.its_transitions(canon)
        printed = lb.print_term(term)
    except lb.LbisimError as exc:
        return Outcome(REFUSED, time.perf_counter() - t0,
                       detail=type(exc).__name__)
    except Exception as exc:
        return Outcome(CRASH, time.perf_counter() - t0,
                       detail=type(exc).__name__)
    seconds = time.perf_counter() - t0
    rules = tuple(m.rule for m in moves)
    if len(steps) != case.reducts or rules != case.its_rules \
            or printed != case.text:
        return Outcome(WRONG, seconds, wrong=1,
                       detail=f"{len(steps)} reducts, rules {rules}")
    return Outcome(OK, seconds, detail=f"rules {rules}")


class Runner:
    """Runs cases; clears the program's caches; accumulates cache
    statistics while a tracer is installed."""

    def __init__(self, modules):
        self.modules = modules
        self.caches = memo_caches(modules)
        self.hits = dict.fromkeys(self.caches, 0)
        self.misses = dict.fromkeys(self.caches, 0)
        self.tracer = None

    def cold(self):
        for key, cache in self.caches.items():
            if self.tracer is not None:
                info = cache.cache_info()
                self.hits[key] += info.hits
                self.misses[key] += info.misses
            cache.cache_clear()
        gc.collect()

    def run(self, case: Case) -> Outcome:
        """One call into the program; the caller clears caches first."""
        if case.kind == "pipeline":
            out = run_pipeline(self.modules, case)
        else:
            rc, stdout, exc, seconds = _call_cli(self.modules, case.argv)
            if case.kind == "check":
                out = classify_check(case, rc, stdout, exc, seconds)
            else:
                out = classify_corpus(rc, stdout, exc, seconds)
        if self.tracer is not None:
            self.tracer.end_case()
        return out


# --- the host's speed --------------------------------------------------------
#
# The shared host's speed drifts by up to a factor of two, on scales from
# a fraction of a second to minutes, and the drift reaches CPU time as
# well as wall time.  So a calibration op of fixed work runs before
# every timed call, and each call's time is scaled by the speed around
# it: reported seconds are seconds on a host where the calibration op
# takes CAL_REF_S.  The op does what the program mostly does: it
# canonicalises small term trees (nested tuples) bottom-up through a
# memo dict, sorting children and building frozensets.  Its trees are
# fixed, so its work never changes with the program under test.

CAL_REF_S = 0.0013
CAL_WINDOW_S = 0.1
CAL_MARKS = 4                          # calibration ops before each call


def calibration_trees() -> list:
    rng = random.Random(7)

    def tree(depth):
        if depth == 0 or rng.random() < 0.3:
            return ("nil",)
        if rng.random() < 0.4:
            return ("pre", rng.choice("abcde"), tree(depth - 1))
        return ("par", tuple(tree(depth - 1)
                             for _ in range(rng.randint(2, 3))))
    return [tree(6) for _ in range(40)]


def calibrate(trees) -> tuple[float, float]:
    """(mid time, seconds) of one calibration op."""
    t0 = time.perf_counter()
    memo = {}

    def canon(t):
        r = memo.get(t)
        if r is None:
            if t[0] == "pre":
                r = ("pre", t[1], canon(t[2]))
            elif t[0] == "par":
                kids = sorted((canon(c) for c in t[1]), key=repr)
                r = ("par", tuple(kids), frozenset(k[0] for k in kids))
            else:
                r = t
            memo[t] = r
        return r

    for t in trees:
        canon(t)
    t1 = time.perf_counter()
    return (t0 + t1) / 2, t1 - t0


class Speed:
    """Calibration marks of a run; scales a span's time to CAL_REF_S."""

    def __init__(self):
        self.trees = calibration_trees()
        self.at = []
        self.took = []
        for _ in range(CAL_MARKS):     # first calls run slower
            calibrate(self.trees)

    def mark(self):
        for _ in range(CAL_MARKS):
            at, took = calibrate(self.trees)
            self.at.append(at)
            self.took.append(took)

    def scale(self, start, end) -> float:
        """Reference seconds of the span [start, end]: its wall time over
        the median calibration time within one span length (at least
        CAL_WINDOW_S) on each side.  The marks that bracket the span
        always count."""
        pad = max(end - start, CAL_WINDOW_S)
        lo = bisect.bisect_left(self.at, start - pad)
        hi = bisect.bisect_right(self.at, end + pad)
        lo = min(lo, max(bisect.bisect_left(self.at, start) - 1, 0))
        hi = max(hi, bisect.bisect_right(self.at, end) + 1)
        return (end - start) * CAL_REF_S / statistics.median(
            self.took[lo:hi])


# --- measurement -------------------------------------------------------------

class Sample:
    __slots__ = ("outcome", "start", "end", "ref_s")

    def __init__(self, outcome, start, end):
        self.outcome = outcome
        self.start = start
        self.end = end
        self.ref_s = None


def sample(runner, cases, seconds, *, whole_passes=False):
    """Passes over `cases` in order until `seconds` have passed.  The
    first pass always completes; later ones end before a call that its
    mean time says would overrun the deadline, or with `whole_passes`
    only between passes.  Before each call the caches are cleared and the
    host's speed is measured.  Returns ({case name: [Sample]}, Speed)."""
    results = {c.name: [] for c in cases}
    speed = Speed()
    deadline = time.perf_counter() + seconds
    for i in itertools.count():
        case = cases[i % len(cases)]
        if i >= len(cases) and (i % len(cases) == 0 or not whole_passes):
            done = results[case.name]
            mean = sum(x.end - x.start for x in done) / len(done)
            if time.perf_counter() + (0 if whole_passes else mean) \
                    >= deadline:
                break
        runner.cold()
        speed.mark()
        t0 = time.perf_counter()
        out = runner.run(case)
        t1 = time.perf_counter()
        results[case.name].append(Sample(out, t0, t1))
    speed.mark()
    for samples in results.values():
        for x in samples:
            x.ref_s = speed.scale(x.start, x.end)
    return results, speed


def summarize(cases, outcomes, times):
    """End-to-end figures from each case's outcomes and its time.  A case
    is one attempt: its outcome must repeat in every sample (consistency
    checks that), and a case that failed counts as infinitely slow."""
    firsts = [outcomes[c.name][0] for c in cases]
    per_case = {c.name: times[c.name] if o.status == OK else math.inf
                for c, o in zip(cases, firsts)}
    good = sum(o.cases for o in firsts if o.status == OK)
    busy = sum(times.values())
    finite = sorted(v for v in per_case.values() if math.isfinite(v))
    if len(finite) > TAIL_BEYOND:
        k = len(finite) - TAIL_BEYOND - 1
        tail, tail_pct = finite[k], 100.0 * (k + 1) / len(finite)
    else:
        tail, tail_pct = (finite[-1] if finite else math.inf), 100.0
    exhausted = [(times[c.name], o.pairs) for c, o in zip(cases, firsts)
                 if o.status == BUDGET]
    failed = sum(o.status != OK for o in firsts)
    return {
        "per_case": per_case,
        "attempted": len(cases),
        "failed": failed,
        "p50": statistics.median(per_case.values()),
        "tail": tail,
        "tail_pct": tail_pct,
        "tail_n": len(finite),
        "cases_per_s": good / busy if busy else 0.0,
        "fail_share": failed / len(cases),
        "wrong": sum(o.wrong for o in firsts),
        "exhaust_us_per_pair": (
            1e6 * sum(t for t, _ in exhausted)
            / sum(p for _, p in exhausted)) if exhausted else None,
    }


def consistency(cases, outcomes, known_wrong):
    """Checks behind `correct`; returns a list of problems."""
    problems = []
    for case in cases:
        outs = outcomes[case.name]
        counts = {o.pairs for o in outs if o.pairs is not None}
        if len(counts) > 1:
            problems.append(f"{case.name}: pair counts differ between "
                            f"calls: {sorted(counts)}")
        statuses = {o.status for o in outs}
        if len(statuses) > 1:
            problems.append(f"{case.name}: outcomes differ between calls: "
                            f"{sorted(statuses)}")
        if WRONG in statuses and case.name not in known_wrong:
            problems.append(f"{case.name}: contradicts the oracle "
                            f"({case.law})")
    return problems


def report_cases(cases, outcomes, times, label):
    for case in cases:
        outs = outcomes[case.name]
        o = outs[0]
        pairs = "" if o.pairs is None else f" pairs={o.pairs}"
        tag = f" [seed defect: {case.known_defect}]" \
            if case.known_defect and o.status == WRONG else ""
        print(f"case {case.name}: {o.status} {o.detail}{pairs} "
              f"{label}={times[case.name] * 1e3:.3f}ms x{len(outs)}{tag}")


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- per-layer metrics -------------------------------------------------------

def _ratio(hits, calls):
    return hits / calls if calls else 0.0


def layer_metrics(runner, tracer, cases, plain, passes, overhead):
    """Per-layer split of the traced passes; outcome counts, time per
    exhausted pair and the suite's case count come from the outcomes of
    the untraced pass `plain`."""
    calls, incl, own = tracer.times()
    hits, misses = runner.hits, runner.misses

    def cache(name):
        key = next((k for k in hits if k.endswith("." + name)), None)
        if key is None:
            return 0, 0
        return hits[key], hits[key] + misses[key]

    canon_hits, canon_calls = cache("_canon_node")
    nk_hits, nk_calls = cache("node_key")
    red_hits, red_calls = cache("reducts")
    barb_hits, barb_calls = cache("barbs")
    its_hits, its_calls = cache("its_transitions")
    per = 1.0 / passes
    solve_incl = incl["equivalence.solve"]
    exhaust = summarize(cases, plain, {c.name: plain[c.name][0].seconds
                                       for c in cases})["exhaust_us_per_pair"]
    first = [plain[c.name][0] for c in cases]
    suite_cases = sum(o.cases for c, o in zip(cases, first)
                      if c.kind == "corpus" and o.status == OK)
    m = {
        "cli.self_s": (own["cli.main"] * per, "s"),
        "syntax.parse_calls": (calls["syntax.parse"] * per, "count"),
        "syntax.parse_s": (own["syntax.parse"] * per, "s"),
        "syntax.print_calls": (calls["syntax.print"] * per, "count"),
        "syntax.print_s": (own["syntax.print"] * per, "s"),
        "terms.plug_calls": (calls["terms.plug"] * per, "count"),
        "terms.plug_s": (own["terms.plug"] * per, "s"),
        "terms.rename_vars_s": (own["terms.rename_vars"] * per, "s"),
        "terms.free_names_calls": (tracer.counts["terms.free_names"] * per,
                                   "count"),
        "congruence.canon_calls": (canon_calls * per, "count"),
        "congruence.canon_s": (own["congruence.canon"] * per, "s"),
        "congruence.canon_hit_ratio": (_ratio(canon_hits, canon_calls),
                                       "ratio"),
        "congruence.node_key_hit_ratio": (_ratio(nk_hits, nk_calls),
                                          "ratio"),
        "congruence.state_nodes_mean": (
            _ratio(tracer.state_nodes, tracer.state_count), "nodes"),
        "reduction.reducts_calls": (red_calls * per, "count"),
        "reduction.reducts_s": (own["reduction.reducts"] * per, "s"),
        "reduction.reducts_hit_ratio": (_ratio(red_hits, red_calls),
                                        "ratio"),
        "reduction.barbs_hit_ratio": (_ratio(barb_hits, barb_calls),
                                      "ratio"),
        "lts.its_calls": (its_calls * per, "count"),
        "lts.its_s": (own["lts.its"] * per, "s"),
        "lts.its_hit_ratio": (_ratio(its_hits, its_calls), "ratio"),
        "lts.its_fanout": (_ratio(tracer.its_results, tracer.its_calls),
                           "moves"),
        "lts.ordinary_s": (own["lts.ordinary"] * per, "s"),
        "equivalence.games": (tracer.games * per, "count"),
        "equivalence.pairs": (tracer.pairs * per, "count"),
        "equivalence.rounds": (tracer.rounds * per, "count"),
        "equivalence.solve_self_s": (own["equivalence.solve"] * per, "s"),
        "equivalence.contains_s": (own["equivalence.contains"] * per, "s"),
        "equivalence.witness_s": (incl["equivalence.witness"] * per, "s"),
        "equivalence.pairs_per_s": (_ratio(tracer.pairs, solve_incl), "1/s"),
        "equivalence.exhaust_us_per_pair": (exhaust or 0.0, "us"),
        "corpus.cases": (suite_cases, "count"),
        "corpus.enumerate_s": (own["corpus.enumerate"] * per, "s"),
        "corpus.check_s": (own["corpus.check"] * per, "s"),
        "outcome.fail_share": (_ratio(sum(o.status != OK for o in first),
                                      len(first)), "ratio"),
        "outcome.wrong_verdicts": (sum(o.wrong for o in first), "count"),
        "outcome.budget_exits": (sum(o.status == BUDGET for o in first),
                                 "count"),
        "outcome.refusals": (sum(o.status == REFUSED for o in first),
                             "count"),
        "outcome.crashes": (sum(o.status == CRASH for o in first), "count"),
        "trace.spans": (tracer.span_count() * per, "count"),
        "trace.overhead_s": (overhead, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# --- entry points ------------------------------------------------------------

def setup(root: Path, workload: str, seed: int):
    """Import the program and build the inputs, SETUP_REPEATS times;
    returns (modules, cases, median reference seconds)."""
    speed = Speed()
    spans = []
    for _ in range(SETUP_REPEATS):
        _purge()
        gc.collect()                   # the last import's modules
        speed.mark()
        t0 = time.perf_counter()
        modules = import_program(root)
        cases = WORKLOADS[workload](seed)
        spans.append((t0, time.perf_counter()))
    speed.mark()
    return modules, cases, statistics.median(
        speed.scale(t0, t1) for t0, t1 in spans)


def print_summary(workload, s, setup_s, peak):
    print(f"workload {workload}: {s['attempted']} cases attempted, "
          f"{s['failed']} failed")
    print(f"setup_s = {setup_s:.6f} s (median of {SETUP_REPEATS})")
    print(f"verdict_p50_s = {s['p50']:.6f} s "
          f"(median over {len(s['per_case'])} cases of each case's median "
          f"call; a failed case counts as infinitely slow)")
    print(f"verdict_tail_s = {s['tail']:.6f} s (p{s['tail_pct']:.1f} of "
          f"{s['tail_n']} correctly answered cases, {TAIL_BEYOND} beyond it)")
    print(f"cases_per_s = {s['cases_per_s']:.4f} 1/s")
    print(f"fail_share = {s['fail_share']:.4f} ratio")
    print(f"wrong_verdicts = {s['wrong']} count")
    if s["exhaust_us_per_pair"] is not None:
        print(f"exhaust_us_per_pair = {s['exhaust_us_per_pair']:.3f} us")
    print(f"peak_rss_mb = {peak:.3f} MB")


def bench(args, root: Path) -> int:
    modules, cases, setup_s = setup(root, args.workload, args.seed)
    runner = Runner(modules)
    known_wrong = {c.name for c in cases if c.known_defect}
    if not args.trace:
        results, speed = sample(runner, cases, args.seconds)
        outcomes = {n: [x.outcome for x in v] for n, v in results.items()}
        times = {n: statistics.median(x.ref_s for x in v)
                 for n, v in results.items()}
        s = summarize(cases, outcomes, times)
        peak = rss_mb()
        report_cases(cases, outcomes, times, "median")
        wall = summarize(cases, outcomes, {
            n: statistics.median(x.end - x.start for x in v)
            for n, v in results.items()})
        print(f"calls: {sum(map(len, results.values()))}; calibration op "
              f"median {statistics.median(speed.took) * 1e3:.3f} ms "
              f"(reference {CAL_REF_S * 1e3:.3f} ms); unscaled wall "
              f"p50 {wall['p50']:.6f} s, tail {wall['tail']:.6f} s, "
              f"{wall['cases_per_s']:.4f} cases/s")
        print_summary(args.workload, s, setup_s, peak)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "verdict_p50_s": {"value": s["p50"], "unit": "s"},
            "verdict_tail_s": {"value": s["tail"], "unit": "s"},
            "cases_per_s": {"value": s["cases_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    else:
        start = time.perf_counter()
        warm, _ = sample(runner, cases, 0)     # first calls run slower
        plain, _ = sample(runner, cases, 0)
        runner.cold()                  # cache statistics start from here
        tracer = runner.tracer = Tracer()
        tracer.install(modules)
        try:
            remaining = args.seconds - (time.perf_counter() - start)
            traced, _ = sample(runner, cases, max(remaining, 0),
                               whole_passes=True)
            runner.cold()              # fold in the last case's statistics
        finally:
            tracer.uninstall()
        n_passes = len(traced[cases[0].name])
        overhead = (sum(x.ref_s for v in traced.values() for x in v)
                    / n_passes
                    - sum(x.ref_s for v in plain.values() for x in v))
        outcomes = {n: [x.outcome for x in warm[n] + plain[n] + traced[n]]
                    for n in plain}
        plain = {n: [x.outcome for x in v] for n, v in plain.items()}
        times = {n: statistics.median(x.ref_s for x in v)
                 for n, v in traced.items()}
        report_cases(cases, outcomes, times, "traced median")
        metrics = layer_metrics(runner, tracer, cases, plain, n_passes,
                                overhead)
        s = summarize(cases, outcomes, times)
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    problems = consistency(cases, outcomes, known_wrong)
    for p in problems:
        print(f"CHECK FAILED {p}")
    print(json.dumps({"correct": not problems, "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": metrics}))
    return 0


def pair_counts(args, root: Path) -> int:
    modules, cases, _ = setup(root, args.workload, args.seed)
    runner = Runner(modules)
    counts = {}
    for case in cases:
        if case.kind == "check":
            runner.cold()
            counts[case.name] = runner.run(case).pairs
    print(json.dumps(counts, sort_keys=True))
    return 0


_SELFTEST = (
    # (expected class, case); expected classes hold at the seed commit
    (CRASH, "depth-3000 prefix chain",
     ["check", "--format", "json", "--calculus", "ccs", "--rel", "strong",
      ".".join(["a"] * 3000) + ".0", "0"], UNKNOWN),
    (REFUSED, "8-name asymmetric binder cluster",
     ["check", "--format", "json", "--calculus", "ma", "--rel", "ipo",
      "(nu k1) (nu k2) (nu k3) (nu k4) (nu k5) (nu k6) (nu k7) (nu k8) "
      "(k1[k2[0]] | k2[k3[0]] | k3[k4[0]] | k4[k5[0]] | k5[k6[0]] | "
      "k6[k7[0]] | k7[k8[0]] | k8[k1[0]] | k1[k3[0]] | open n.0)", "0"],
     UNKNOWN),
    (BUDGET, "MA IPO in n.0 vs in n.(nu k) k[0]",
     ["check", "--format", "json", "--calculus", "ma", "--rel", "ipo",
      "--max-pairs", "2000", "in n.0", "in n.(nu k) k[0]"], EQ),
    (OK, "flagship pair under LA",
     ["check", "--format", "json", "--calculus", "accs", "--rel", "l-bisim",
      "--labels", "LA", "a.'a + tau.0", "tau.0"], EQ),
    (WRONG, "flagship pair under LA against a contradicting oracle",
     ["check", "--format", "json", "--calculus", "accs", "--rel", "l-bisim",
      "--labels", "LA", "a.'a + tau.0", "tau.0"], NEQ),
)

ROADMAP_COUNTS = {"baseline/semi-sat": 11659, "baseline/l-bisim:LCCS": 1071}


def selftest(args, root: Path) -> int:
    modules = import_program(root)
    runner = Runner(modules)
    bad = 0
    for want, label, argv, expect in _SELFTEST:
        case = Case(label, "check", argv, expect, budget=2000)
        runner.cold()
        got = runner.run(case)
        mark = "ok  " if got.status == want else "FAIL"
        bad += got.status != want
        print(f"{mark} classify {label}: {got.status} (expected {want}) "
              f"{got.detail}")
    script = str(Path(__file__).resolve())
    for workload in ("ccs-games", "ma-games"):
        seen = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, script, "--pair-counts", "--workload",
                 workload, "--seed", str(args.seed)],
                cwd=root, env=env, capture_output=True, text=True,
                timeout=170, check=False)
            if proc.returncode != 0:
                print(f"FAIL pair counts {workload} PYTHONHASHSEED="
                      f"{hash_seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            seen.append(json.loads(proc.stdout.splitlines()[-1]))
        same = seen[0] == seen[1]
        bad += not same
        print(f"{'ok  ' if same else 'FAIL'} pair counts of {len(seen[0])} "
              f"{workload} games equal under PYTHONHASHSEED 0 and 1")
        for name, want in ROADMAP_COUNTS.items():
            if name in seen[0]:
                print(f"     {name}: {seen[0][name]} pairs "
                      f"(ROADMAP baseline {want})")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--pair-counts", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "lbisim" / "__init__.py").is_file():
        print(f"no lbisim sources under {root}/src; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2
    # Budgets come from the cases, never from the environment.
    os.environ.pop("LBISIM_MAX_PAIRS", None)
    sys.path.insert(0, str(root / "src"))
    if args.selftest:
        return selftest(args, root)
    if args.workload is None:
        ap.error("--workload is required")
    if args.pair_counts:
        return pair_counts(args, root)
    return bench(args, root)


if __name__ == "__main__":
    sys.exit(main())
