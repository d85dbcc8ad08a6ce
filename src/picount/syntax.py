"""Surface syntax for polyadic pi-calculus systems.

Grammar (UTF-8, `#` starts a line comment)::

    proc   ::= unary ('|' unary)*
    unary  ::= '0'
             | '(' proc ')'
             | 'new' ident (',' ident)* 'in' unary
             | '!' label? unary                        -- replication
             | ident '!' label? args ('.' unary)?      -- output
             | ident '?' label? args ('.' unary)?      -- input
             | '*' ident '?' label? args ('.' unary)?  -- replicated input
    args   ::= '[' (ident (',' ident)*)? ']'
    label  ::= integer | ident

A trailing ``.0`` may be omitted.  Labels are optional; unlabeled prefix
and replication sites are numbered by their 1-based preorder position among
all written sites.  `new x, y in P` scopes over the following unary process,
so wrap parallel compositions in parentheses.

A system is read once, straight into the per-label maps the analysis uses
(`SystemIndex`): no process tree is built.  Every prefix is labeled, and
every replication `!l P` is expanded into a restricted trigger channel plus
a replicated forwarder, whose three prefixes are labeled `l`, `l'` and `l''`
and whose trigger variable is named ``rec@l``.  The system must be closed,
bind each name once and use each label once, generated labels included; a
violation is reported at its token.  The parser reads with an explicit
stack, so nesting is bounded only by memory.  Its tokenizer and cursor also
read `analysis.parse_query`'s queries.
"""

from __future__ import annotations

import re

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


# a term's summary: the labels of the threads it starts, and its free names
Summary = tuple[frozenset[Label], frozenset[Var]]
_NIL: Summary = (frozenset(), frozenset())


# --- Tokenizer / parser -------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<comment>\#[^\n]*)
      | (?P<nl>\n)
      | (?P<int>-?\d+'*)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<punct><=|[()\[\],.|!?*:@{}+])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"new", "in"}


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # 'int' | 'ident' | 'kw' | punct char | 'eof'
        self.text = text
        self.line = line
        self.col = col


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


def _found(t: _Tok) -> str:
    return "end of input" if t.kind == "eof" else repr(t.text)


class _Parser:
    """Reads a system in one pass, straight into the records its index is
    built from.  Each site is labeled as it is read (`take`), each
    replication `!l P` is expanded where it is read, and a repeated label, a
    free name or a second binder is reported at its token.

    A term's summary is `(beta, free)`: the labels of the threads the term
    starts, and its free names.  Each prefix `l` records its site in
    `sites[l]` as `(kind, chan, args, iface, cont)`, where `iface` is the
    prefix's free names and `cont` the summary of its continuation; each
    `new` records its names in `restrictions`.

    No method recurses: `parse_system` reads every construct in one loop
    over a stack of open frames, so nesting costs no interpreter stack.  The
    same cursor (`peek`, `next`, `accept`, `expect`, `listed`, `end`) reads
    a query."""

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.written = 0  # sites read so far: an unlabeled one is numbered by it
        self.seen: set[Label] = set()  # every label taken, written or generated
        self.scope: set[Var] = set()  # the names bound around the next token
        self.binders: dict[Var, str] = {}  # every binder read, with what it is
        self.sites: dict[Label, tuple] = {}
        self.restrictions: set[Var] = set()

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            raise SourceError(f"expected {kind!r}, found {_found(t)}", t.line, t.col)
        return self.next()

    def accept(self, kind: str) -> bool:
        """Read the next token if it is of `kind`."""
        if self.peek().kind != kind:
            return False
        self.i += 1
        return True

    def listed(self, read, sep: str = ",") -> list:
        """`read()`, then again after each `sep` that follows."""
        items = [read()]
        while self.accept(sep):
            items.append(read())
        return items

    def end(self):
        t = self.peek()
        if t.kind != "eof":
            raise SourceError(f"trailing input {t.text!r}", t.line, t.col)

    def take(self, label: Label | None, tok: _Tok) -> Label:
        """Label of the site starting at `tok`: `label`, or when it is None
        the site's 1-based preorder position among all written sites."""
        self.written += 1
        return self.claim(self.written if label is None else label, tok)

    def claim(self, label: Label, tok: _Tok) -> Label:
        if label in self.seen:
            raise SourceError(f"duplicate label {fmt_label(label)}", tok.line, tok.col)
        self.seen.add(label)
        return label

    def bind(self, tok: _Tok, what: str) -> Var:
        v = tok.text
        if v in self.binders:
            raise SourceError(
                f"variable {v} bound more than once ({self.binders[v]} and {what})",
                tok.line,
                tok.col,
            )
        self.binders[v] = what
        return v

    def use(self, tok: _Tok):
        if tok.text not in self.scope:
            raise SourceError(f"open system, free variable {tok.text}", tok.line, tok.col)

    def site(self, kind: str, chan: Var, label: Label, args: tuple[Var, ...], cont: Summary) -> Summary:
        """Record prefix `label`, whose continuation has summary `cont`, and
        return the prefix's own summary.  `cont` keeps an input's bound
        arguments among its free names: `fresh` subtracts them."""
        free = cont[1] | set(args) if kind == OUTPUT else cont[1] - set(args)
        iface = free | {chan}
        self.sites[label] = (kind, chan, args, iface, cont)
        return frozenset({label}), iface

    def parse_system(self) -> Summary:
        """Read the whole system in one loop over a stack of open frames,
        each headed by its kind: `|` a composition (the system itself at the
        bottom, a parenthesis above it), `new` a restriction and `!` a
        replication whose body is being read, and `.` a prefix whose
        continuation is being read.  Each pass reads the start of one unary
        term; a term that ends there closes every frame it completes,
        innermost first."""
        # a `|` frame is ("|", in parentheses, summary of the terms so far)
        stack: list[tuple] = [("|", False, _NIL)]
        while True:
            t = self.next()
            if t.kind == "(":
                stack.append(("|", True, _NIL))
                continue
            if t.kind == "kw" and t.text == "new":
                names = self.listed(lambda: self.bind(self.expect("ident"), "restriction"))
                kw = self.expect("kw")
                if kw.text != "in":
                    raise SourceError("expected 'in'", kw.line, kw.col)
                self.scope.update(names)
                stack.append(("new", names))
                continue
            if t.kind == "!":
                # an identifier directly followed by ?/! is a channel, not a label
                channel = self.peek().kind == "ident" and self.toks[self.i + 1].kind in ("?", "!")
                l = self.take(None if channel else self.parse_label(), t)
                # the generated labels are taken before the body is read
                stack.append(("!", l, self.claim(f"{l}'", t), self.claim(f"{l}''", t)))
                continue
            if t.kind in ("*", "ident"):
                stack.append(self.parse_prefix(t))
                if self.accept("."):
                    continue
            elif not (t.kind == "int" and t.text == "0"):
                msg = "unexpected end of input" if t.kind == "eof" else f"unexpected token {t.text!r}"
                raise SourceError(msg, t.line, t.col)
            summary = _NIL
            while True:
                frame = stack.pop()
                if frame[0] == ".":
                    _, kind, chan, label, args, bound = frame
                    # binders are unique, so leaving the scope removes exactly `bound`
                    self.scope.difference_update(bound)
                    summary = self.site(kind, chan, label, args, summary)
                elif frame[0] == "new":
                    self.scope.difference_update(frame[1])
                    self.restrictions.update(frame[1])
                    summary = summary[0], summary[1].difference(frame[1])
                elif frame[0] == "!":
                    summary = self.replication(*frame[1:], summary)
                else:
                    summary = frame[2][0] | summary[0], frame[2][1] | summary[1]
                    if self.accept("|"):
                        stack.append(("|", frame[1], summary))
                        break
                    if not frame[1]:
                        return summary
                    self.expect(")")

    def replication(self, l: Label, l1: Label, l2: Label, body: Summary) -> Summary:
        """`!l P`, whose body `P` has summary `body`, as a restricted trigger
        channel `rec@l` (the `@` keeps it out of the user namespace, so it is
        not free in `P`) and a replicated forwarder:
        `new rec@l in (rec@l!l[] | *rec@l?l'[].(rec@l!l''[] | P))`."""
        beta, free = body
        rec = f"rec@{l}"
        self.site(OUTPUT, rec, l2, (), _NIL)
        self.site(FETCH, rec, l1, (), (beta | {l2}, free | {rec}))
        self.site(OUTPUT, rec, l, (), _NIL)
        self.restrictions.add(rec)
        return frozenset({l, l1}), free

    def parse_label(self) -> Label | None:
        t = self.peek()
        if t.kind not in ("int", "ident"):
            return None
        if t.kind == "int" and not t.text.isdigit():
            # a signed number, or a primed one, which names a generated label
            raise SourceError(f"unexpected token {t.text!r}", t.line, t.col)
        self.next()
        return int(t.text) if t.kind == "int" else t.text

    def parse_prefix(self, site: _Tok) -> tuple:
        """`chan!l args`, `chan?l args` or `*chan?l args`, whose first token
        `site` has been read, up to its continuation, with the names it binds
        put in scope: the frame `('.', kind, chan, label, args, bound)`."""
        if site.kind == "*":
            chan = self.expect("ident")
            self.expect("?")
            kind = FETCH
        else:
            chan, op = site, self.peek()
            if op.kind not in ("!", "?"):
                raise SourceError("expected '!' or '?' after channel", op.line, op.col)
            self.next()
            kind = OUTPUT if op.kind == "!" else INPUT
        self.use(chan)
        label = self.take(self.parse_label(), site)
        t = self.expect("[")
        toks = [] if self.peek().kind == "]" else self.listed(lambda: self.expect("ident"))
        self.expect("]")
        args = tuple(a.text for a in toks)
        bound = ()
        if kind == OUTPUT:
            for a in toks:
                self.use(a)
        elif len(set(args)) != len(args):
            raise SourceError(f"input tuple variables must be distinct: {list(args)}", t.line, t.col)
        else:
            bound = [self.bind(a, f"input at {fmt_label(label)}") for a in toks]
            self.scope.update(bound)
        return ".", kind, chan.text, label, args, bound


# --- Static index --------------------------------------------------------


class SystemIndex:
    """Per-label static maps of a parsed system."""

    __slots__ = (
        "labels",
        "type",
        "chan",
        "arg",
        "iface",
        "launched",
        "name_universe",
        "root_labels",
        "fresh",
        "warnings",
    )

    def __init__(
        self,
        labels: tuple[Label, ...],
        type: dict[Label, str],
        chan: dict[Label, Var],
        arg: dict[Label, tuple[Var, ...]],
        iface: dict[Label, frozenset[Var]],
        launched: dict[Label, tuple[Label, ...]],
        name_universe: frozenset[Var],
        root_labels: frozenset[Label],
        fresh: dict[Label, frozenset[Var]],
        warnings: list[str] | None = None,
    ):
        self.labels = labels  # all prefix labels, sorted
        self.type = type
        self.chan = chan
        self.arg = arg
        self.iface = iface  # free variables of comp(l)
        self.launched = launched  # beta of cont(l), label-sorted
        self.name_universe = name_universe  # every restriction variable
        self.root_labels = root_labels  # beta of the whole system
        self.fresh = fresh  # restriction vars first bound when cont(l) launches
        self.warnings = [] if warnings is None else warnings


def read_text(path: str, what: str = "") -> str:
    """The text of the file at `path`, with its newlines read as text mode
    reads them.  A byte that is not UTF-8 is reported at the line and
    column the tokenizer would give it.  Errors about a file other than the
    system name it as `what` (e.g. "partition spec") and its path."""
    name = f"{what} {path}" if what else path
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise SourceError(f"cannot read {name}: {exc.strerror}") from exc
    try:
        text, bad = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        text, bad = data[: exc.start].decode("utf-8"), data[exc.start]
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    if bad is not None:
        line, col = text.count("\n") + 1, len(text) - text.rfind("\n")
        where = f" in {name}" if what else ""
        raise SourceError(f"invalid UTF-8 byte {bad:#04x}{where}", line, col)
    return text


def load_system(text: str) -> SystemIndex:
    """Parse a closed system into its static maps: every prefix labeled,
    every replication expanded, every name bound once.  Any error names its
    line and column."""
    parser = _Parser(text)
    roots, _ = parser.parse_system()
    parser.end()

    labels = tuple(sorted(parser.sites, key=label_key))
    kind, chan, arg, iface, launched, cont_free = {}, {}, {}, {}, {}, {}
    by_chan: dict[Var, set[int]] = {}
    for l in labels:
        kind[l], chan[l], arg[l], iface[l], (beta, cont_free[l]) = parser.sites[l]
        launched[l] = tuple(sorted(beta, key=label_key))
        by_chan.setdefault(chan[l], set()).add(len(arg[l]))
    fresh = {l: frozenset().union(*(iface[m] for m in launched[l])) - cont_free[l] for l in labels}
    warnings = [
        f"channel variable {v} used with arities {sorted(arities)}; "
        "mismatched prefixes never synchronize"
        for v, arities in sorted(by_chan.items())
        if len(arities) > 1
    ]
    names = frozenset(parser.restrictions)
    return SystemIndex(labels, kind, chan, arg, iface, launched, names, roots, fresh, warnings)
