"""Concrete syntax: a regex scanner, a recursive-descent parser and the
matching printer.

Grammar (identical for terms and labels; labels also admit the hole `-`):

    P ::= "0" | NAME "[" P "]" | PREFIX "." P | "'" NAME
        | "(" "nu" NAME ")" P | P "|" P | S "+" S
        | "@" IDENT | "?" IDENT "[" P "]" | "-"
    PREFIX ::= "tau" | NAME | "'" NAME | CAP NAME | CAP "?" IDENT
    CAP ::= "in" | "out" | "open"

`.` binds tightest, then `+`, then `|`; `(nu n)` scopes as far right as
possible.  `tau`, `nu`, `in`, `out` and `open` are reserved words.  Which
productions are legal depends on the calculus: ambients, `?x[...]` and
capability prefixes (`in n`, or `in ?x` on a name variable) are MA-only,
`+` is rejected in MA, the output particle `'a` is ACCS-only and the
output prefix `'a.P` is CCS-only; summands are guarded.  `terms._illegal`
states these rules once: the parser applies it to each node and action
right after building it and refuses a second occurrence of a variable,
each refusal a ParseError at the construct's first token (a sum's at its
first `+`).

The parser and the printer walk a chain of prefixes and restrictions in
a loop; they recurse only into brackets and the components of a
parallel composition or sum.
"""
from __future__ import annotations

import re

from .errors import ParseError
from .terms import (
    Amb, Calculus, Cap, Hole, Label, Msg, NameVar, Nil, Node, Par, Prefix,
    ProcVar, Recv, Restrict, Send, Sum, Tau, Term, _illegal,
)

KEYWORDS = ("tau", "nu", "in", "out", "open")

# One token after any blanks: a symbol or `0`, a word, or any other
# character, which `_scan` refuses.  A word goes on with letters, digits
# and `_` (`\w` is `str.isalnum` or `_`).  It must start with a letter or
# `_`: `[^\W\d]` also admits a numeral such as `²`, which `_scan` refuses
# by `str.isalpha`.
_TOKEN = re.compile(r"[ \t\r\n]*([()\[\].+|'@?\-0]|[^\W\d]\w*|[^ \t\r\n])")
# The tokens whose kind is their text; any other word is a "name".
_FIXED = frozenset("()[].+|'@?-0") | frozenset(KEYWORDS)

# How deep input may nest, counted in the frames of a parser that took
# one per grammar rule it descends through: one per prefix or
# restriction, five per bracket `(...)`, `n[...]` or `?x[...]`
# (expression, parallel, sum, sequent, atom).  The parser walks a chain
# of prefixes and restrictions in a loop; the limit guards the passes
# behind it that recurse once per level of the tree it builds
# (`terms._subst`, `congruence._alpha`, the comparison of nested keys):
# deeper input is refused with a ParseError, so that they stay within
# Python's default limit of 1,000 frames.
MAX_DEPTH = 800


def _scan(text: str) -> tuple[list[str], list[str]]:
    """The kinds and the texts of the tokens of `text`.  A symbol's or a
    keyword's kind is its text, a name's "name"."""
    texts = _TOKEN.findall(text)
    kinds = [t if t in _FIXED else
             "name" if t[0].isalpha() or t[0] == "_" else "" for t in texts]
    if "" in kinds:
        k = kinds.index("")
        raise ParseError(f"unexpected character {texts[k][0]!r}",
                         *_position(text, k))
    return kinds, texts


def _position(text: str, k: int) -> tuple[int, int]:
    """The line and column of token `k` of `text`; past the last token,
    of the end of input, which sits just after the last token, not after
    blanks."""
    offset = 0
    for i, m in enumerate(_TOKEN.finditer(text)):
        if i == k:
            offset = m.start(1)
            break
        offset = m.end(1)
    return (text.count("\n", 0, offset) + 1,
            offset - text.rfind("\n", 0, offset))


def is_name(text: str) -> bool:
    """Does the scanner read `text` as exactly one name token?"""
    try:
        kinds, texts = _scan(text)
    except ParseError:
        return False
    return kinds == ["name"] and texts == [text]


class _Parser:
    def __init__(self, text: str, calculus: Calculus, allow_hole: bool):
        self.text = text
        kinds, texts = _scan(text)
        # three end tokens, so the parser may look two past the first
        self.kinds = kinds + ["eof"] * 3
        self.texts = texts + [""] * 3
        self.pos = 0                # the index of the next token
        self.calc = calculus
        self.allow_hole = allow_hole
        self.seen: set = set()      # the variables read so far

    def found(self) -> str:
        return repr(self.texts[self.pos] or "end of input")

    def expect(self, kind: str) -> None:
        if self.kinds[self.pos] != kind:
            self.fail(f"expected {kind!r}, found {self.found()}")
        self.pos += 1

    def fail(self, message, at=None):
        """Refuse the input at token `at`, by default the next one."""
        raise ParseError(message, *_position(
            self.text, self.pos if at is None else at))

    def within(self, depth: int) -> None:
        if depth > MAX_DEPTH:
            self.fail(f"input nested deeper than the parser's limit of "
                      f"{MAX_DEPTH} frames")

    def name(self) -> str:
        if self.kinds[self.pos] != "name":
            self.fail(f"expected a name, found {self.found()}")
        self.pos += 1
        return self.texts[self.pos - 1]

    def built(self, node, at: int):
        """`node`, just built from the text at token `at`, if the calculus
        admits it there."""
        why = _illegal(self.calc, node, self.allow_hole)
        if why is not None:
            self.fail(why, at)
        return node

    def variable(self, cls):
        """The ProcVar or NameVar after a sigil `@` or `?`."""
        at = self.pos
        self.pos += 1
        var = cls(self.name())
        if var in self.seen:
            self.fail(f"variable {var.name!r} occurs twice", at)
        self.seen.add(var)
        return var

    def at_restriction(self) -> bool:
        return self.kinds[self.pos] == "(" \
            and self.kinds[self.pos + 1] == "nu"

    def restriction(self) -> str:
        """The name `n` of the `(nu n)` at the next token."""
        self.pos += 2
        n = self.name()
        self.expect(")")
        return n

    def whole(self) -> Node:
        node = self.expr(0)
        if self.kinds[self.pos] != "eof":
            self.fail(f"trailing input {self.texts[self.pos]!r}")
        return node

    # Every rule takes the depth of its own frame, as if each prefix or
    # restriction of a chain were one more frame; `expr` and `seq`, one of
    # which lies on every cycle of the grammar, check it per level.
    # expr ::= "(nu n)" expr | par
    def expr(self, depth: int) -> Node:
        binders = []                # (token, name), outermost first
        self.within(depth)
        while self.at_restriction():
            binders.append((self.pos, self.restriction()))
            depth += 1
            self.within(depth)
        node = self.par(depth + 1)
        for at, n in reversed(binders):
            node = self.built(Restrict(n, node), at)
        return node

    def par(self, depth: int) -> Node:
        at = self.pos
        parts = [self.sum(depth + 1)]
        while self.kinds[self.pos] == "|":
            self.pos += 1
            if self.at_restriction():
                # a restriction scopes maximally right, swallowing the
                # rest of the parallel composition
                parts.append(self.expr(depth + 1))
                break
            parts.append(self.sum(depth + 1))
        return parts[0] if len(parts) == 1 else self.built(Par(tuple(parts)),
                                                           at)

    def sum(self, depth: int) -> Node:
        parts = [self.seq(depth + 1)]
        plus = self.pos
        while self.kinds[self.pos] == "+":
            self.pos += 1
            parts.append(self.seq(depth + 1))
        return parts[0] if len(parts) == 1 else self.built(Sum(tuple(parts)),
                                                           plus)

    # seq ::= PREFIX "." seq | "(nu n)" seq | atom
    def seq(self, depth: int) -> Node:
        kinds, texts = self.kinds, self.texts
        chain = []                  # (class, action or name, token)
        while True:
            self.within(depth)
            at = self.pos
            kind = kinds[at]
            if kind == "name" and kinds[at + 1] == ".":
                self.pos += 1
                act = Recv(texts[at])
            elif kind == "'" and kinds[at + 1] == "name" \
                    and kinds[at + 2] == ".":
                self.pos += 2
                act = Send(texts[at + 1])
            elif kind in ("in", "out", "open"):
                self.pos += 1
                act = Cap(kind, self.variable(NameVar)
                          if kinds[at + 1] == "?" else self.name())
            elif kind == "tau":
                self.pos += 1
                act = Tau()
            elif self.at_restriction():
                # under a prefix the restriction scope ends with the sequent
                chain.append((Restrict, self.restriction(), at))
                depth += 1
                continue
            else:
                break
            self.built(act, at)
            self.expect(".")
            chain.append((Prefix, act, at))
            depth += 1
        node = self.atom(depth + 1)
        for cls, x, at in reversed(chain):
            node = self.built(cls(x, node), at)
        return node

    def atom(self, depth: int) -> Node:
        at = self.pos
        match self.kinds[at]:
            case "0":
                self.pos += 1
                return self.built(Nil(), at)
            case "-":
                self.pos += 1
                return self.built(Hole(), at)
            case "'":
                self.pos += 1
                return self.built(Msg(self.name()), at)
            case "@":
                return self.built(self.variable(ProcVar), at)
            case "?":
                x = self.variable(NameVar)
                self.expect("[")
                body = self.expr(depth + 1)
                self.expect("]")
                return self.built(Amb(x, body), at)
            case "name":
                if self.kinds[at + 1] == "[":
                    self.pos += 2
                    body = self.expr(depth + 1)
                    self.expect("]")
                    return self.built(Amb(self.texts[at], body), at)
                self.fail(f"name {self.texts[at]!r} is not a process"
                          " (write a prefix 'name.P' or an ambient 'name[P]')")
            case "(":
                self.pos += 1
                body = self.expr(depth + 1)
                self.expect(")")
                return body
        self.fail(f"expected a process, found {self.found()}")


def parse_term(text: str, calculus: Calculus) -> Term:
    return Term(calculus, _Parser(text, calculus, allow_hole=False).whole())


def parse_label(text: str, calculus: Calculus) -> Label:
    p = _Parser(text, calculus, allow_hole=True)
    node = p.whole()
    if node.holes != 1:
        p.fail("a label needs exactly one hole", 0)
    return Label(calculus, node)


# --- printing --------------------------------------------------------------

def _act_text(act) -> str:
    cls = type(act)
    if cls is Recv:
        return act.channel
    if cls is Send:
        return f"'{act.channel}"
    if cls is Cap:
        amb = act.amb
        return (f"{act.op} ?{amb.name}" if type(amb) is NameVar
                else f"{act.op} {amb}")
    if cls is Tau:
        return "tau"
    raise TypeError(f"not an action: {act!r}")


def _print(node: Node) -> str:
    pieces = []
    opened = 0                      # brackets to close at the end
    while True:                     # down a chain of prefixes and restrictions
        cls = type(node)
        if cls is Prefix:
            pieces.append(f"{_act_text(node.action)}.")
            wrap = isinstance(node.body, (Par, Sum, Restrict))
        elif cls is Restrict:
            pieces.append(f"(nu {node.name}) ")
            wrap = isinstance(node.body, (Par, Sum))
        else:
            pieces.append(_print_other(node))
            break
        if wrap:
            pieces.append("(")
            opened += 1
        node = node.body
    pieces.append(")" * opened)
    return "".join(pieces)


def _print_other(node: Node) -> str:
    """A node that is neither a prefix nor a restriction."""
    match node:
        case Nil():
            return "0"
        case Hole():
            return "-"
        case Msg(channel=a):
            return f"'{a}"
        case ProcVar(name=v):
            return f"@{v}"
        case Amb(name=NameVar(name=x), body=b):
            return f"?{x}[{_print(b)}]"
        case Amb(name=n, body=b):
            return f"{n}[{_print(b)}]"
        case Sum(children=cs):
            parts = [f"({_print(c)})" if isinstance(c, (Sum, Restrict))
                     else _print(c) for c in cs]
            return " + ".join(parts)
        case Par(children=cs):
            parts = [f"({_print(c)})" if isinstance(c, (Par, Restrict))
                     else _print(c) for c in cs]
            return " | ".join(parts)
    raise TypeError(f"not a node: {node!r}")


def print_node(node: Node) -> str:
    return _print(node)


def print_term(term: Term) -> str:
    return _print(term.node)


def print_label(label: Label) -> str:
    return _print(label.body)
