"""Command-line front end.

Exit codes: 0 the relation holds (or every corpus check passed), 1 it
does not hold, 2 usage or parse error, 3 a search budget was exhausted,
4 an internal error (a crash never reports a verdict).
Term arguments are taken literally or, with a leading ``@``, read from a
file.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from .congruence import canonical_term
from .corpus import run_suite
from .equivalence import (
    BUILTIN_LABEL_SETS, DEFAULT_MAX_PAIRS, PRED_KINDS, RELATIONS, check,
    pattern_label_set, pred,
)
from .errors import DivergenceBudgetExceededError, LbisimError, ParseError
from .lts import lts_to_dot, lts_to_json, reachable
from .reduction import barbs, reducts
from .syntax import parse_label, parse_term, print_term
from .terms import Calculus

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _read_arg(text: str) -> str:
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            return fh.read()
    return text


def _parse_in(path: str, parse, text: str, calc: Calculus, line=1):
    """`parse(text, calc)` for text read from the file `path` at `line`;
    a refusal reports FILE:LINE:COL, counted in the file."""
    try:
        return parse(text, calc)
    except ParseError as exc:
        exc.line += line - 1
        exc.args = (f"{path}:{exc.line}:{exc.col}: {exc.message}",)
        raise


def _term(arg: str, calc: Calculus):
    """A term argument, literal or, with a leading `@`, a file's text."""
    if arg.startswith("@"):
        return _parse_in(arg[1:], parse_term, _read_arg(arg), calc)
    return parse_term(arg, calc)


def _parse_lines(path: str, parse, calc: Calculus) -> list:
    """Parse each line of the file `path` that is neither blank nor a
    `#` comment, the column of a refusal counted in the file's own
    line."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip() and not line.lstrip().startswith("#"):
                out.append(_parse_in(path, parse, line.rstrip(), calc,
                                     lineno))
    return out


def _label_set(selector: str, calc: Calculus):
    if selector.startswith("@"):
        patterns = _parse_lines(selector[1:], parse_label, calc)
        return pattern_label_set(os.path.basename(selector[1:]), patterns)
    try:
        return BUILTIN_LABEL_SETS[selector]
    except KeyError:
        raise LbisimError(
            f"unknown label set {selector!r}; use one of "
            f"{', '.join(sorted(BUILTIN_LABEL_SETS))} or @patternfile")


def _pool(mode: str, calc: Calculus):
    if mode is None or mode == "symbolic":
        return None
    if mode.startswith("instantiate:@"):
        return _parse_lines(mode[13:], parse_term, calc)
    raise LbisimError(
        f"unknown mode {mode!r}; use 'symbolic' or 'instantiate:@poolfile'")


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _witness_lines(witness) -> list[str]:
    out = ["witness:"]
    for i, step in enumerate(witness, 1):
        p, q = step.pair
        if step.kind == "barb":
            out.append(f"  {i}. at ({p}  ,  {q}): the {step.side} side "
                       f"shows barb {step.move} and the other does not")
            continue
        line = (f"  {i}. at ({p}  ,  {q}): {step.side} moves "
                f"{step.move}  ->  {step.attacker_target}")
        if step.intro_vars:
            intro = ", ".join(f"{k}:={v}" for k, v in
                              sorted(step.intro_vars.items()))
            line += f"  [{intro}]"
        out.append(line)
        if step.defender_target is None:
            out.append(f"     defender: {step.reason}")
        else:
            out.append(f"     defender answers  ->  {step.defender_target}")
    return out


def _cmd_check(args) -> int:
    calc = Calculus(args.calculus)
    p = _term(args.p, calc)
    q = _term(args.q, calc)
    labels = None if args.labels is None else _label_set(args.labels, calc)
    res = check(args.rel, p, q, labels=labels, pool=_pool(args.mode, calc),
                max_pairs=args.max_pairs or _default_max_pairs())
    payload = res.to_dict()
    payload.update({"relation": args.rel, "calculus": calc.value,
                    "p": print_term(p), "q": print_term(q)})
    if args.labels is not None:
        payload["labels"] = args.labels
    lines = [payload["verdict"]]
    if res.witness:
        lines += _witness_lines(res.witness)
    lines.append(f"explored {res.pairs_explored} pairs "
                 f"in {res.rounds} rounds")
    _emit(args, payload, lines)
    return EXIT_HOLDS if res.verdict else EXIT_FAILS


def _cmd_lts(args) -> int:
    calc = Calculus(args.calculus)
    term = _term(args.term, calc)
    kind = "ordinary" if args.ordinary else "its"
    states, edges = reachable(term, kind, max_states=args.max_states)
    if args.format == "dot":
        sys.stdout.write(lts_to_dot(states, edges))
        return EXIT_HOLDS
    payload = lts_to_json(states, edges)
    payload["kind"] = kind
    lines = [f"{len(states)} states, {len(edges)} transitions"]
    for tr in payload["transitions"]:
        lines.append(f"  {tr['source']}  --[{tr['label']}]-->  "
                     f"{tr['target']}  ({tr['rule']})")
    _emit(args, payload, lines)
    return EXIT_HOLDS


def _cmd_reduce(args) -> int:
    calc = Calculus(args.calculus)
    # the positions of the steps index the canonical form's components
    term = canonical_term(_term(args.term, calc))
    steps = reducts(term)
    payload = {
        "term": print_term(term),
        "reducts": [{"rule": s.rule, "position": list(s.position),
                     "target": print_term(s.target)} for s in steps],
    }
    lines = [f"{len(steps)} reduction(s) from {print_term(term)}"]
    for s in steps:
        where = "/".join(
            f"{e[0]}:{','.join(str(k) for k in e[1:])}"
            if isinstance(e, tuple) else str(e)
            for e in s.position) or "top"
        lines.append(f"  {s.rule} at {where}  ->  {print_term(s.target)}")
    _emit(args, payload, lines)
    return EXIT_HOLDS


def _cmd_barbs(args) -> int:
    calc = Calculus(args.calculus)
    term = _term(args.term, calc)
    got = sorted(barbs(term))
    payload = {"term": print_term(term), "barbs": got}
    _emit(args, payload, got or ["(none)"])
    return EXIT_HOLDS


def _cmd_pred(args) -> int:
    calc = Calculus(args.calculus)
    p = _term(args.p, calc)
    target = _term(args.target, calc)
    t1 = None if args.t1 is None else _term(args.t1, calc)
    verdict = pred(args.kind, p, target, args.name, t1)
    payload = {"kind": args.kind, "p": print_term(p),
               "target": print_term(target), "verdict": verdict}
    if args.name:
        payload["name"] = args.name
    _emit(args, payload, ["holds" if verdict else "does not hold"])
    return EXIT_HOLDS if verdict else EXIT_FAILS


def _cmd_corpus(args) -> int:
    try:
        spec = json.loads(_read_arg(args.spec))
    except json.JSONDecodeError as exc:
        where = f"{exc.lineno}:{exc.colno}"
        if args.spec.startswith("@"):
            where = f"{args.spec[1:]}:{where}"
        raise LbisimError(f"{where}: corpus spec is not JSON: {exc.msg}") \
            from None
    if isinstance(spec, dict):     # run_suite rejects any other spec
        if args.seed is not None:
            spec["seed"] = args.seed
        if args.max_pairs is not None:
            spec["max_pairs"] = args.max_pairs
    outcomes = run_suite(spec)
    payload = {"checks": [o.to_dict() for o in outcomes],
               "ok": all(o.ok for o in outcomes)}
    lines = []
    for o in outcomes:
        mark = "ok  " if o.ok else "FAIL"
        lines.append(f"{mark} {o.name}  ({o.total} cases"
                     + (f", {len(o.failures)} failures)" if o.failures
                        else ")"))
        for f in o.failures[:3]:
            lines.append(f"       {f}")
    lines.append("suite " + ("passed" if payload["ok"] else "FAILED"))
    _emit(args, payload, lines)
    return EXIT_HOLDS if payload["ok"] else EXIT_FAILS


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def _default_max_pairs() -> int:
    """The game budget when `--max-pairs` is not given: LBISIM_MAX_PAIRS,
    else DEFAULT_MAX_PAIRS."""
    raw = os.environ.get("LBISIM_MAX_PAIRS")
    if not raw:
        return DEFAULT_MAX_PAIRS
    try:
        return _positive_int(raw)
    except argparse.ArgumentTypeError as exc:
        raise LbisimError(f"LBISIM_MAX_PAIRS: {exc}") from None


def _add_common(sp, *, fmt=("text", "json")) -> None:
    sp.add_argument("--calculus", required=True,
                    choices=[c.value for c in Calculus])
    sp.add_argument("--format", choices=fmt, default="text")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lbisim",
        description="Behavioural equivalences for CCS, asynchronous CCS "
                    "and communication-free mobile ambients.")
    sub = ap.add_subparsers(dest="verb", required=True)

    check = sub.add_parser("check", help="decide an equivalence query")
    _add_common(check)
    check.add_argument("--max-pairs", type=_positive_int,
                       help="game budget in state pairs (default: "
                            f"LBISIM_MAX_PAIRS, else {DEFAULT_MAX_PAIRS})")
    check.add_argument("--rel", required=True, choices=list(RELATIONS))
    check.add_argument("--labels",
                       help="LM, LA, LCCS, ALL, EMPTY or @patternfile")
    check.add_argument("--mode", default="symbolic",
                       help="symbolic (default) or instantiate:@poolfile")
    check.add_argument("p", metavar="TERM1")
    check.add_argument("q", metavar="TERM2")
    check.set_defaults(run=_cmd_check)

    lts = sub.add_parser("lts", help="dump the reachable transition system")
    _add_common(lts, fmt=("text", "json", "dot"))
    lts.add_argument("--ordinary", action="store_true",
                     help="ordinary CCS/ACCS transition system instead of "
                          "the contextual one")
    lts.add_argument("--max-states", type=_positive_int, default=2000)
    lts.add_argument("term", metavar="TERM")
    lts.set_defaults(run=_cmd_lts)

    red = sub.add_parser("reduce", help="list one-step reducts")
    _add_common(red)
    red.add_argument("term", metavar="TERM")
    red.set_defaults(run=_cmd_reduce)

    bb = sub.add_parser("barbs", help="list observable names")
    _add_common(bb)
    bb.add_argument("term", metavar="TERM")
    bb.set_defaults(run=_cmd_barbs)

    prd = sub.add_parser(
        "pred", help="evaluate a reduction-and-barb transition predicate")
    _add_common(prd)
    prd.add_argument("--kind", required=True, choices=list(PRED_KINDS))
    prd.add_argument("--name", help="ambient name or channel")
    prd.add_argument("--t1", help="instantiation term for the label hole")
    prd.add_argument("p", metavar="TERM")
    prd.add_argument("target", metavar="TARGET")
    prd.set_defaults(run=_cmd_pred)

    corp = sub.add_parser("corpus", help="run a corpus cross-check suite")
    corp.add_argument("--format", choices=("text", "json"), default="text")
    corp.add_argument("--seed", type=int)
    corp.add_argument("--max-pairs", type=_positive_int,
                      help="game budget in state pairs (default: the "
                           "spec's max_pairs)")
    corp.add_argument("spec", metavar="SPECFILE",
                      help="JSON spec, literal or @file")
    corp.set_defaults(run=_cmd_corpus)
    return ap


_PARSER = build_parser()


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    May be called repeatedly in one process: every call reuses the
    parser built at import, as `parse_args` keeps no state between calls.
    """
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except DivergenceBudgetExceededError as exc:
        _fail(args, f"budget exceeded: {exc}")
        return EXIT_BUDGET
    except ParseError as exc:
        _fail(args, f"parse error: {exc}")
        return EXIT_USAGE
    except (LbisimError, OSError, ValueError) as exc:
        _fail(args, str(exc))
        return EXIT_USAGE
    except Exception as exc:
        traceback.print_exc()
        _fail(args, f"internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


def _fail(args, message: str) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps({"error": message}))
    print(message, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
