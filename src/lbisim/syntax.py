"""Concrete syntax: a hand-rolled scanner/parser and the matching printer.

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
"""
from __future__ import annotations

from .errors import ParseError
from .terms import (
    Amb, Calculus, Cap, Hole, Label, Msg, NameVar, Nil, Node, Par, Prefix,
    ProcVar, Recv, Restrict, Send, Sum, Tau, Term, _illegal,
)

KEYWORDS = ("tau", "nu", "in", "out", "open")
_SYMBOLS = "()[].+|'@?-"

# How deep the parser may recurse.  It takes one frame per grammar rule
# it descends through: one per prefix or restriction, five per bracket
# `(...)`, `n[...]` or `?x[...]` (expression, parallel, sum, sequent,
# atom).  Deeper input is refused with a ParseError, so the parser, and
# the passes that recurse once per level of the tree it builds, stay
# within Python's default limit of 1,000 frames.
MAX_DEPTH = 800


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _scan(text: str) -> list[_Token]:
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch in _SYMBOLS:
            toks.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch == "0":
            toks.append(_Token("0", "0", line, col))
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = word if word in KEYWORDS else "name"
            toks.append(_Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    # the end of input sits just after the last token, not after blanks
    last = toks[-1] if toks else _Token("", "", 1, 1)
    toks.append(_Token("eof", "", last.line, last.col + len(last.text)))
    return toks


def is_name(text: str) -> bool:
    """Does the scanner read `text` as exactly one name token?"""
    try:
        toks = _scan(text)
    except ParseError:
        return False
    return len(toks) == 2 and toks[0].kind == "name" and toks[0].text == text


class _Parser:
    def __init__(self, text: str, calculus: Calculus, allow_hole: bool):
        self.toks = _scan(text)
        # two more end tokens, so `peek` may look two past the first
        self.toks += self.toks[-1:] * 2
        self.pos = 0
        self.calc = calculus
        self.allow_hole = allow_hole
        self.seen: set = set()      # the variables read so far

    def peek(self, ahead=0) -> _Token:
        return self.toks[self.pos + ahead]

    def take(self) -> _Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {kind!r}, found {tok.text or 'end of input'!r}")
        return self.take()

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def within(self, depth: int) -> None:
        if depth > MAX_DEPTH:
            self.fail(f"input nested deeper than the parser's limit of "
                      f"{MAX_DEPTH} frames")

    def name(self) -> str:
        tok = self.peek()
        if tok.kind != "name":
            self.fail(f"expected a name, found {tok.text or 'end of input'!r}")
        return self.take().text

    def built(self, node, tok: _Token):
        """`node`, just built from the text at `tok`, if the calculus
        admits it there."""
        why = _illegal(self.calc, node, self.allow_hole)
        if why is not None:
            self.fail(why, tok)
        return node

    def variable(self, cls):
        """The ProcVar or NameVar after a sigil `@` or `?`."""
        tok = self.take()
        var = cls(self.name())
        if var in self.seen:
            self.fail(f"variable {var.name!r} occurs twice", tok)
        self.seen.add(var)
        return var

    def whole(self) -> Node:
        node = self.expr(0)
        if self.peek().kind != "eof":
            self.fail(f"trailing input {self.peek().text!r}")
        return node

    # Every rule takes the depth of its own frame; `expr` and `seq`, one
    # of which lies on every cycle of the grammar, check it.
    # expr ::= "(nu n)" expr | par
    def expr(self, depth: int) -> Node:
        self.within(depth)
        tok = self.peek()
        if tok.kind == "(" and self.peek(1).kind == "nu":
            self.take()
            self.take()
            n = self.name()
            self.expect(")")
            return self.built(Restrict(n, self.expr(depth + 1)), tok)
        return self.par(depth + 1)

    def par(self, depth: int) -> Node:
        tok = self.peek()
        parts = [self.sum(depth + 1)]
        while self.peek().kind == "|":
            self.take()
            if self.peek().kind == "(" and self.peek(1).kind == "nu":
                # a restriction scopes maximally right, swallowing the
                # rest of the parallel composition
                parts.append(self.expr(depth + 1))
                break
            parts.append(self.sum(depth + 1))
        return parts[0] if len(parts) == 1 else self.built(Par(tuple(parts)),
                                                           tok)

    def sum(self, depth: int) -> Node:
        parts = [self.seq(depth + 1)]
        plus = self.peek()
        while self.peek().kind == "+":
            self.take()
            parts.append(self.seq(depth + 1))
        return parts[0] if len(parts) == 1 else self.built(Sum(tuple(parts)),
                                                           plus)

    # seq ::= PREFIX "." seq | "(nu n)" seq | atom
    def seq(self, depth: int) -> Node:
        self.within(depth)
        tok = self.peek()
        if tok.kind == "(" and self.peek(1).kind == "nu":
            # under a prefix the restriction scope ends with the sequent
            self.take()
            self.take()
            n = self.name()
            self.expect(")")
            return self.built(Restrict(n, self.seq(depth + 1)), tok)
        if tok.kind in ("in", "out", "open"):
            op = self.take().kind
            act = Cap(op, self.variable(NameVar) if self.peek().kind == "?"
                      else self.name())
        elif tok.kind == "tau":
            self.take()
            act = Tau()
        elif (tok.kind == "'" and self.peek(1).kind == "name"
              and self.peek(2).kind == "."):
            self.take()
            act = Send(self.name())
        elif tok.kind == "name" and self.peek(1).kind == ".":
            act = Recv(self.name())
        else:
            return self.atom(depth + 1)
        self.built(act, tok)
        self.expect(".")
        return self.built(Prefix(act, self.seq(depth + 1)), tok)

    def atom(self, depth: int) -> Node:
        tok = self.peek()
        match tok.kind:
            case "0":
                self.take()
                return self.built(Nil(), tok)
            case "-":
                self.take()
                return self.built(Hole(), tok)
            case "'":
                self.take()
                return self.built(Msg(self.name()), tok)
            case "@":
                return self.built(self.variable(ProcVar), tok)
            case "?":
                x = self.variable(NameVar)
                self.expect("[")
                body = self.expr(depth + 1)
                self.expect("]")
                return self.built(Amb(x, body), tok)
            case "name":
                if self.peek(1).kind == "[":
                    n = self.name()
                    self.take()
                    body = self.expr(depth + 1)
                    self.expect("]")
                    return self.built(Amb(n, body), tok)
                self.fail(f"name {tok.text!r} is not a process"
                          " (write a prefix 'name.P' or an ambient 'name[P]')")
            case "(":
                self.take()
                body = self.expr(depth + 1)
                self.expect(")")
                return body
        self.fail(f"expected a process, found {tok.text or 'end of input'!r}")


def parse_term(text: str, calculus: Calculus) -> Term:
    return Term(calculus, _Parser(text, calculus, allow_hole=False).whole())


def parse_label(text: str, calculus: Calculus) -> Label:
    p = _Parser(text, calculus, allow_hole=True)
    node = p.whole()
    if node.holes != 1:
        p.fail("a label needs exactly one hole", p.toks[0])
    return Label(calculus, node)


# --- printing --------------------------------------------------------------

def _act_text(act) -> str:
    match act:
        case Tau():
            return "tau"
        case Recv(channel=a):
            return a
        case Send(channel=a):
            return f"'{a}"
        case Cap(op=op, amb=NameVar(name=x)):
            return f"{op} ?{x}"
        case Cap(op=op, amb=n):
            return f"{op} {n}"
    raise TypeError(f"not an action: {act!r}")


def _print(node: Node) -> str:
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
        case Prefix(action=act, body=b):
            inner = _print(b)
            if isinstance(b, (Par, Sum, Restrict)):
                inner = f"({inner})"
            return f"{_act_text(act)}.{inner}"
        case Sum(children=cs):
            parts = [f"({_print(c)})" if isinstance(c, (Sum, Restrict))
                     else _print(c) for c in cs]
            return " + ".join(parts)
        case Par(children=cs):
            parts = [f"({_print(c)})" if isinstance(c, (Par, Restrict))
                     else _print(c) for c in cs]
            return " | ".join(parts)
        case Restrict(name=n, body=b):
            inner = _print(b)
            if isinstance(b, (Par, Sum)):
                inner = f"({inner})"
            return f"(nu {n}) {inner}"
    raise TypeError(f"not a node: {node!r}")


def print_node(node: Node) -> str:
    return _print(node)


def print_term(term: Term) -> str:
    return _print(term.node)


def print_label(label: Label) -> str:
    return _print(label.body)
