"""Span tracing at the layer boundaries of an imported ``lbisim``.

The tracer replaces module-level names with timing wrappers: every
module that refers to a wrapped function gets the wrapper, so a call
from one layer into another opens a span.  Functions that call
themselves through their module-level name (node_key, rename_vars) are
wrapped only where other modules refer to them; their recursion stays
inside one span.

A span is (name, start, end, parent).  Spans live in flat arrays until
the run ends; a layer's self time is its span time minus the time its
child spans cover.
"""
from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict

# (module, attribute, span name, wrap the defining module's own name too)
SPANS = (
    ("lbisim.cli", "main", "cli.main", True),
    ("lbisim.syntax", "parse_term", "syntax.parse", True),
    ("lbisim.syntax", "parse_label", "syntax.parse", True),
    ("lbisim.syntax", "print_term", "syntax.print", True),
    ("lbisim.syntax", "print_label", "syntax.print", True),
    ("lbisim.syntax", "print_node", "syntax.print", True),
    ("lbisim.terms", "plug", "terms.plug", True),
    ("lbisim.terms", "rename_vars", "terms.rename_vars", False),
    ("lbisim.congruence", "canonical_term", "congruence.canon", True),
    ("lbisim.congruence", "canonical_node", "congruence.canon", True),
    ("lbisim.congruence", "canonical_label", "congruence.canon", True),
    ("lbisim.congruence", "canonicalize", "congruence.canon", True),
    ("lbisim.congruence", "equiv", "congruence.canon", True),
    ("lbisim.congruence", "node_key", "congruence.canon", False),
    ("lbisim.reduction", "reducts", "reduction.reducts", True),
    ("lbisim.reduction", "reduct_terms", "reduction.reducts", True),
    ("lbisim.reduction", "barbs", "reduction.reducts", True),
    ("lbisim.lts", "its_transitions", "lts.its", True),
    ("lbisim.lts", "instantiate", "lts.its", True),
    ("lbisim.lts", "ordinary_transitions", "lts.ordinary", True),
    ("lbisim.equivalence", "_solve", "equivalence.solve", True),
    ("lbisim.equivalence", "_build_witness", "equivalence.witness", True),
    ("lbisim.corpus", "run_suite", "corpus.check", True),
    ("lbisim.corpus", "enumerate_terms", "corpus.enumerate", True),
)
# Counted, not spanned: called too often inside canonicalisation for a
# span each.
COUNTED = (("lbisim.terms", "free_names", "terms.free_names"),)


def count_nodes(node) -> int:
    n = 0
    todo = [node]
    while todo:
        x = todo.pop()
        n += 1
        kids = getattr(x, "children", None)
        if kids is not None:
            todo.extend(kids)
        else:
            body = getattr(x, "body", None)
            if body is not None:
                todo.append(body)
    return n


class Tracer:
    def __init__(self):
        self.span_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.counts = Counter()
        self.games = 0
        self.pairs = 0
        self.rounds = 0
        self.its_results = 0
        self.its_calls = 0
        self.states: list = []
        self.state_nodes = 0
        self.state_count = 0
        self._patches: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._ids[name]

    def wrap(self, span: str, fn, hook=None):
        nid = self._id(span)
        names, starts, ends, parents = self.name, self.start, self.end, \
            self.parent
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(t0)
            ends.append(t0)
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if hook is not None:
                    hook(None, exc)
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # --- hooks -------------------------------------------------------------

    def _on_solve(self, result, exc):
        self.games += 1
        if result is not None:
            self.pairs += result.pairs_explored
            self.rounds += result.rounds
        elif hasattr(exc, "explored"):
            self.pairs += exc.explored

    def _on_its(self, result, exc):
        self.its_calls += 1
        if result is not None:
            self.its_results += len(result)

    # --- install / remove ----------------------------------------------------

    def _patch(self, modules, home, original, replacement, include_home):
        for mod in modules:
            if mod is home and not include_home:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self, modules: dict):
        hooks = {"_solve": self._on_solve, "its_transitions": self._on_its}
        mods = list(modules.values())
        for modname, attr, span, include_home in SPANS:
            home = modules[modname]
            original = getattr(home, attr)
            self._patch(mods, home, original,
                        self.wrap(span, original, hooks.get(attr)),
                        include_home)
        for modname, attr, key in COUNTED:
            home = modules[modname]
            original = getattr(home, attr)
            self._patch(mods, home, original, self._counter(key, original),
                        False)
        eq = modules["lbisim.equivalence"]
        label_set = eq.LabelSet
        contains = label_set.contains
        self._patches.append((label_set, "contains", contains))
        label_set.contains = self.wrap("equivalence.contains", contains)
        pair_node = eq._PairNode
        states = self.states

        class RecordingPairNode(pair_node):
            __slots__ = ()

            def __init__(self, p, q, index):
                pair_node.__init__(self, p, q, index)
                states.append(p.node)
                states.append(q.node)

        self._patches.append((eq, "_PairNode", pair_node))
        eq._PairNode = RecordingPairNode

    def uninstall(self):
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def end_case(self):
        """Fold the game states of the finished case into the mean size
        and drop them; reset the span stack after an escaped exception."""
        for node in self.states:
            self.state_nodes += count_nodes(node)
        self.state_count += len(self.states)
        self.states.clear()
        del self.stack[1:]

    # --- summaries -----------------------------------------------------------

    def times(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = Counter()
        incl = defaultdict(float)
        own = defaultdict(float)
        for i in range(n):
            name = self.span_names[self.name[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            incl[name] += dur
            own[name] += dur - child[i]
        return calls, incl, own

    def span_count(self) -> int:
        return len(self.start)
