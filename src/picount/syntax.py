"""Surface syntax for polyadic pi-calculus systems.

Grammar (UTF-8, `#` starts a line comment)::

    proc   ::= unary ('|' unary)*
    unary  ::= '0'
             | '(' proc ')'
             | 'new' ident (',' ident)* 'in' unary
             | '!' label? unary                        -- replication sugar
             | ident '!' label? args ('.' unary)?      -- output
             | ident '?' label? args ('.' unary)?      -- input
             | '*' ident '?' label? args ('.' unary)?  -- replicated input
    args   ::= '[' (ident (',' ident)*)? ']'
    label  ::= integer | ident

A trailing ``.0`` may be omitted.  Labels are optional; unlabeled prefix
sites are numbered by their 1-based preorder position among all sites.
`new x, y in P` scopes over the following unary process, so wrap parallel
compositions in parentheses.

The replication `!l P` is rewritten by :func:`desugar_bang` into a
restricted trigger channel plus a replicated forwarder; the three prefixes
it introduces are labeled `l`, `l'` and `l''` and the trigger variable is
named ``rec@l`` (the ``@`` keeps it out of the user namespace).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

Label = int | str
Var = str

INPUT = "input"
OUTPUT = "output"
FETCH = "fetch"


class SourceError(Exception):
    """Problem in the analyzed system (syntax or well-formedness)."""

    def __init__(self, msg: str, line: int | None = None, col: int | None = None):
        self.msg = msg
        self.line = line
        self.col = col
        where = f" at {line}:{col}" if line is not None else ""
        super().__init__(f"{msg}{where}")


def label_key(l: Label) -> tuple:
    """Total deterministic order over mixed int/str labels."""
    if isinstance(l, int):
        return (0, l, "")
    return (1, 0, str(l))


def fmt_label(l: Label) -> str:
    return str(l)


# --- AST ----------------------------------------------------------------


@dataclass(frozen=True)
class Process:
    pass


@dataclass(frozen=True)
class Nil(Process):
    pass


@dataclass(frozen=True)
class Par(Process):
    left: Process
    right: Process


@dataclass(frozen=True)
class New(Process):
    var: Var
    body: Process


@dataclass(frozen=True)
class Prefix(Process):
    """Input, output or replicated-input (fetch) guarded process."""

    kind: str  # INPUT | OUTPUT | FETCH
    chan: Var
    label: Label
    args: tuple[Var, ...]
    cont: Process


@dataclass(frozen=True)
class Bang(Process):
    """Surface-only replication node, removed by desugaring."""

    label: Label
    body: Process


NIL = Nil()


# --- Tokenizer / parser -------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<comment>\#[^\n]*)
      | (?P<nl>\n)
      | (?P<int>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<punct>[()\[\],.|!?*])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"new", "in"}


@dataclass
class _Tok:
    kind: str  # 'int' | 'ident' | 'kw' | punct char | 'eof'
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise SourceError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(tok)
        elif kind == "int":
            toks.append(_Tok("int", tok, line, col))
            col += len(tok)
        elif kind == "ident":
            k = "kw" if tok in _KEYWORDS else "ident"
            toks.append(_Tok(k, tok, line, col))
            col += len(tok)
        else:
            toks.append(_Tok(tok, tok, line, col))
            col += len(tok)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            found = "end of input" if t.kind == "eof" else repr(t.text)
            raise SourceError(f"expected {kind!r}, found {found}", t.line, t.col)
        return self.next()

    def error(self, msg: str):
        t = self.peek()
        raise SourceError(msg, t.line, t.col)

    # proc := unary ('|' unary)*
    def parse_proc(self) -> Process:
        p = self.parse_unary()
        while self.peek().kind == "|":
            self.next()
            p = Par(p, self.parse_unary())
        return p

    def parse_unary(self) -> Process:
        t = self.peek()
        if t.kind == "int" and t.text == "0":
            self.next()
            return NIL
        if t.kind == "(":
            self.next()
            p = self.parse_proc()
            self.expect(")")
            return p
        if t.kind == "kw" and t.text == "new":
            self.next()
            names = [self.expect("ident").text]
            while self.peek().kind == ",":
                self.next()
                names.append(self.expect("ident").text)
            kw = self.expect("kw")
            if kw.text != "in":
                raise SourceError("expected 'in'", kw.line, kw.col)
            body = self.parse_unary()
            for name in reversed(names):
                body = New(name, body)
            return body
        if t.kind == "!":  # replication sugar
            self.next()
            label = None
            nxt = self.peek()
            if nxt.kind == "int":
                label = self.parse_label()
            elif nxt.kind == "ident" and self.toks[self.i + 1].kind not in ("?", "!"):
                # an identifier directly followed by ?/! is a channel, not a label
                label = self.parse_label()
            return Bang(label, self.parse_unary())
        if t.kind == "*":
            self.next()
            chan = self.expect("ident")
            self.expect("?")
            return self.parse_prefix(FETCH, chan)
        if t.kind == "ident":
            chan = self.next()
            op = self.peek()
            if op.kind == "!":
                self.next()
                return self.parse_prefix(OUTPUT, chan)
            if op.kind == "?":
                self.next()
                return self.parse_prefix(INPUT, chan)
            raise SourceError("expected '!' or '?' after channel", op.line, op.col)
        self.error("unexpected end of input" if t.kind == "eof" else f"unexpected token {t.text!r}")

    def parse_label(self) -> Label | None:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return int(t.text)
        if t.kind == "ident":
            self.next()
            return t.text
        return None

    def parse_prefix(self, kind: str, chan: _Tok) -> Process:
        label = self.parse_label()
        t = self.expect("[")
        args = []
        if self.peek().kind != "]":
            args.append(self.expect("ident").text)
            while self.peek().kind == ",":
                self.next()
                args.append(self.expect("ident").text)
        self.expect("]")
        if kind in (INPUT, FETCH) and len(set(args)) != len(args):
            raise SourceError(f"input tuple variables must be distinct: {args}", t.line, t.col)
        cont: Process = NIL
        if self.peek().kind == ".":
            self.next()
            cont = self.parse_unary()
        return Prefix(kind, chan.text, label, tuple(args), cont)  # label None fixed later


def _number_sites(p: Process, counter: list[int], seen: dict[Label, bool]) -> Process:
    """Assign preorder positions to unlabeled sites and reject duplicate labels."""

    def take(label: Label | None) -> Label:
        counter[0] += 1
        if label is None:
            label = counter[0]
        if label in seen:
            raise SourceError(f"duplicate label {fmt_label(label)}")
        seen[label] = True
        return label

    if isinstance(p, Nil):
        return p
    if isinstance(p, Par):
        left = _number_sites(p.left, counter, seen)
        return Par(left, _number_sites(p.right, counter, seen))
    if isinstance(p, New):
        return New(p.var, _number_sites(p.body, counter, seen))
    if isinstance(p, Prefix):
        label = take(p.label)
        return Prefix(p.kind, p.chan, label, p.args, _number_sites(p.cont, counter, seen))
    if isinstance(p, Bang):
        label = take(p.label)
        return Bang(label, _number_sites(p.body, counter, seen))
    raise AssertionError(p)


def parse_system(text: str) -> Process:
    """Parse a system; every prefix/replication site ends up labeled."""
    parser = _Parser(text)
    p = parser.parse_proc()
    t = parser.peek()
    if t.kind != "eof":
        raise SourceError(f"trailing input {t.text!r}", t.line, t.col)
    return _number_sites(p, [0], {})


# --- Pretty printer -----------------------------------------------------


def pretty(p: Process) -> str:
    if isinstance(p, Nil):
        return "0"
    if isinstance(p, Par):
        return f"({pretty(p.left)} | {pretty(p.right)})"
    if isinstance(p, New):
        return f"new {p.var} in {pretty(p.body)}"
    if isinstance(p, Bang):
        return f"!{fmt_label(p.label)} {pretty(p.body)}"
    if isinstance(p, Prefix):
        star = "*" if p.kind == FETCH else ""
        op = "!" if p.kind == OUTPUT else "?"
        head = f"{star}{p.chan}{op}{fmt_label(p.label)}[{', '.join(p.args)}]"
        if isinstance(p.cont, Nil):
            return head
        return f"{head}.{pretty(p.cont)}"
    raise AssertionError(p)


# --- Replication desugaring ---------------------------------------------


def bang_labels(l: Label) -> tuple[Label, Label, Label]:
    return l, f"{l}'", f"{l}''"


def bang_var(l: Label) -> Var:
    return f"rec@{l}"


def desugar_bang(p: Process) -> Process:
    """Expand every replication node into its trigger-channel encoding."""
    if isinstance(p, (Nil,)):
        return p
    if isinstance(p, Par):
        return Par(desugar_bang(p.left), desugar_bang(p.right))
    if isinstance(p, New):
        return New(p.var, desugar_bang(p.body))
    if isinstance(p, Prefix):
        return Prefix(p.kind, p.chan, p.label, p.args, desugar_bang(p.cont))
    if isinstance(p, Bang):
        l0, l1, l2 = bang_labels(p.label)
        rec = bang_var(p.label)
        body = desugar_bang(p.body)
        repl = Prefix(FETCH, rec, l1, (), Par(Prefix(OUTPUT, rec, l2, (), NIL), body))
        return New(rec, Par(Prefix(OUTPUT, rec, l0, (), NIL), repl))
    raise AssertionError(p)


# --- Static index --------------------------------------------------------


def free_vars(p: Process) -> frozenset[Var]:
    if isinstance(p, Nil):
        return frozenset()
    if isinstance(p, Par):
        return free_vars(p.left) | free_vars(p.right)
    if isinstance(p, New):
        return free_vars(p.body) - {p.var}
    if isinstance(p, Bang):
        return free_vars(p.body)
    if isinstance(p, Prefix):
        inner = free_vars(p.cont)
        if p.kind in (INPUT, FETCH):
            inner = inner - set(p.args)
            return inner | {p.chan}
        return inner | set(p.args) | {p.chan}
    raise AssertionError(p)


def beta(p: Process) -> frozenset[Label]:
    """Labels of the threads spawned when `p` starts running."""
    if isinstance(p, Nil):
        return frozenset()
    if isinstance(p, Par):
        return beta(p.left) | beta(p.right)
    if isinstance(p, New):
        return beta(p.body)
    if isinstance(p, Prefix):
        return frozenset({p.label})
    raise AssertionError(f"beta on desugared trees only: {p}")


@dataclass
class SystemIndex:
    """Per-label static maps of a closed, uniquely-bound, bang-free system."""

    root: Process
    labels: tuple[Label, ...]  # all prefix labels, sorted
    type: dict[Label, str]
    chan: dict[Label, Var]
    arg: dict[Label, tuple[Var, ...]]
    cont: dict[Label, Process]
    iface: dict[Label, frozenset[Var]]  # free variables of comp(l)
    restriction_vars: tuple[Var, ...]  # in binding preorder; the name universe
    root_labels: frozenset[Label]  # beta of the whole system
    fresh: dict[Label, frozenset[Var]]  # restriction vars first bound when cont(l) launches
    warnings: list[str] = field(default_factory=list)

    @property
    def name_universe(self) -> frozenset[Var]:
        return frozenset(self.restriction_vars)

    def interface(self, l: Label) -> frozenset[Var]:
        if l not in self.iface:
            raise SourceError(f"unknown label {fmt_label(l)}")
        return self.iface[l]

    def beta_cont(self, l: Label) -> frozenset[Label]:
        return beta(self.cont[l])

    def sorted_beta_cont(self, l: Label) -> tuple[Label, ...]:
        return tuple(sorted(self.beta_cont(l), key=label_key))


def check_wellformed(p: Process) -> SystemIndex:
    """Verify closedness, label and binder uniqueness; build the static maps."""
    fv = free_vars(p)
    if fv:
        raise SourceError(f"open system, free variable {sorted(fv)[0]}")

    comp: dict[Label, Prefix] = {}
    binders: dict[Var, str] = {}
    restrictions: list[Var] = []

    def bind(v: Var, what: str):
        if v in binders:
            raise SourceError(f"variable {v} bound more than once ({binders[v]} and {what})")
        binders[v] = what

    # preorder, left before right; an explicit stack leaves no reference cycle
    stack = [p]
    while stack:
        q = stack.pop()
        if isinstance(q, Par):
            stack += (q.right, q.left)
        elif isinstance(q, New):
            bind(q.var, "restriction")
            restrictions.append(q.var)
            stack.append(q.body)
        elif isinstance(q, Bang):
            raise SourceError("replication must be desugared before indexing")
        elif isinstance(q, Prefix):
            if q.label in comp:
                raise SourceError(f"duplicate label {fmt_label(q.label)}")
            comp[q.label] = q
            if q.kind in (INPUT, FETCH):
                for a in q.args:
                    bind(a, f"input at {fmt_label(q.label)}")
            stack.append(q.cont)
        elif not isinstance(q, Nil):
            raise AssertionError(q)

    labels = tuple(sorted(comp, key=label_key))
    iface = {l: free_vars(comp[l]) for l in labels}
    fresh = {}
    for l in labels:
        launched = beta(comp[l].cont)
        used = frozenset().union(*(iface[m] for m in launched)) if launched else frozenset()
        fresh[l] = used - free_vars(comp[l].cont)

    warnings = []
    by_chan: dict[Var, set[int]] = {}
    for l in labels:
        by_chan.setdefault(comp[l].chan, set()).add(len(comp[l].args))
    for v, arities in sorted(by_chan.items()):
        if len(arities) > 1:
            warnings.append(
                f"channel variable {v} used with arities {sorted(arities)}; "
                "mismatched prefixes never synchronize"
            )

    return SystemIndex(
        root=p,
        labels=labels,
        type={l: comp[l].kind for l in labels},
        chan={l: comp[l].chan for l in labels},
        arg={l: comp[l].args for l in labels},
        cont={l: comp[l].cont for l in labels},
        iface=iface,
        restriction_vars=tuple(restrictions),
        root_labels=beta(p),
        fresh=fresh,
        warnings=warnings,
    )


def load_system(text: str) -> SystemIndex:
    """parse + desugar + index in one go."""
    return check_wellformed(desugar_bang(parse_system(text)))
