"""Counting domain: reduced product of natural intervals and affine equalities.

Values abstract functions from a fixed finite variable set K into the
naturals.  The interval component keeps one [lo, hi] box per variable, hi
possibly infinite (None).  A variable whose box is a single point is pinned:
it is held as that constant in its box and nowhere else.  The affine
component is a system of exact linear equalities over the unpinned variables
only, kept in primitive-integer reduced row echelon form (coefficients are
machine ints, canonical up to gcd and sign, so elements hash and compare
structurally); no row has a single variable, because such a row is a pin.
This is the trivial-block case of online decomposition: most counters of a
real element are pinned to 0, and they cost the equality system nothing.

Reduction substitutes pinned constants into the rows, turns single-variable
rows into pins, and tightens boxes through the remaining rows in integer
arithmetic; contradictions collapse to bottom.

Every elimination runs on one integer kernel (`_echelon`, whose step is
`_cancel`).  While it eliminates, a row is a {index: coeff} dict plus its
constant; a new row is cleared of the pivots it mentions, made primitive
once, and back-substituted into only the rows that hold its pivot.  The
reduction substitutes pins by handing the kernel one `v = value` row per
pin, and `entails` cancels a variable from a form with `_cancel`.

Join is the affine hull plus the interval hull.  Counters pinned in the
hull's box hold that value in every input and factor out; only the others
take part.  The hull is built from generators: each input gives one
homogenized integer point, in which its pins are coordinates, and one
direction per free counter.  The hull's equalities are the vectors
orthogonal to all generators, read off one reduced echelon form of the
generators and canonicalized by the kernel, so a pinned counter never
enters an elimination as a row.
Widening keeps the hull on the affine side and widens boxes through the
threshold set {0, 1} before giving up to infinity, which is exactly enough to
keep one-shot step counters bounded.

`transfer` is one counted step of a partition class (consume, create,
y += 1, z := 1): an affine image, the projection of z and one reduction, on
an input that already holds every consumed thread.

`entails` is exact in integers as well: its candidate forms keep integer
coefficients over one positive denominator, and it compares their rational
values by cross-multiplying.
"""

from __future__ import annotations

from math import gcd, lcm

INF = None  # upper bound marker

REDUCE_ROUNDS = 2


# --- Variables of the counting domain --------------------------------------


class CountLayout:
    """Index assignment for K = x-vars of all labels + y/z per step pair (every
    receiver/sender pair of matching arity, feasible or not).
    A counter is its key: ("x", label) for an occupancy counter, ("y", pair)
    for a step counter and ("z", pair) for a step flag."""

    def __init__(self, labels, pairs):
        self.labels = tuple(labels)
        self.pairs = tuple(pairs)
        self.vars: list[tuple] = [("x", l) for l in self.labels]
        for p in self.pairs:
            self.vars += [("y", p), ("z", p)]
        self.index: dict[tuple, int] = {v: i for i, v in enumerate(self.vars)}
        self.size = len(self.vars)

    def x(self, label) -> int:
        return self.index["x", label]

    def y(self, pair) -> int:
        return self.index["y", pair]

    def z(self, pair) -> int:
        return self.index["z", pair]

    def pretty(self, i: int) -> str:
        kind, ref = self.vars[i]
        if kind == "x":
            return f"x{ref}"
        return f"{kind}({ref[0]},{ref[1]})"


# --- Affine systems ----------------------------------------------------------

# A row is (terms, const): terms is a tuple of (var_index, int_coeff) sorted by
# index, const an int; the row states sum(coeff * v) == const.  A system is a
# tuple of rows sorted by pivot (first index), every pivot eliminated from the
# other rows, each row primitive with positive pivot coefficient.

Row = tuple[tuple[tuple[int, int], ...], int]


class Contradiction(Exception):
    pass


def _cancel(acc: dict, const: int, c: int, q, qc: int, qconst: int) -> int:
    """Cancel the entry `c` of the dict row `acc`, in place, through the row
    (`q` items, `qconst`) whose entry there is `qc`; returns the constant."""
    g = gcd(c, qc)
    a, b = qc // g, c // g
    if a != 1:
        for i in acc:
            acc[i] *= a
        const *= a
    for i, qv in q:
        v = acc.get(i, 0) - b * qv
        if v:
            acc[i] = v
        else:
            del acc[i]
    return const - b * qconst


def _settle(acc: dict, const: int) -> tuple[int, int]:
    """Make a non-empty dict row primitive with a positive pivot (its least
    index), in place; returns the pivot and the constant."""
    p = min(acc)
    g = gcd(*acc.values(), const)
    if acc[p] < 0:
        g = -g
    if g != 1:
        for i in acc:
            acc[i] //= g
        const //= g
    return p, const


def _echelon(rows) -> dict[int, tuple[dict, int]]:
    """The kernel: the reduced echelon form of (dict, const) rows, which it
    consumes, as {pivot: (row, const)}; raises Contradiction on 0 = c.  A
    stored row holds its pivot and non-pivots only, so one combination
    clears each pivot that a new row mentions."""
    pivots: dict[int, tuple[dict, int]] = {}
    for acc, const in rows:
        for p in [i for i in acc if i in pivots]:
            q, qconst = pivots[p]
            const = _cancel(acc, const, acc[p], q.items(), q[p], qconst)
        if not acc:
            if const:
                raise Contradiction
            continue
        p, const = _settle(acc, const)
        for qp, (q, qconst) in list(pivots.items()):
            if p in q:  # back-substitution
                qconst = _cancel(q, qconst, q[p], acc.items(), acc[p], const)
                pivots[qp] = (q, _settle(q, qconst)[1])
        pivots[p] = (acc, const)
    return pivots


def _system(pivots) -> tuple[Row, ...]:
    return tuple((tuple(sorted(q.items())), c) for _, (q, c) in sorted(pivots.items()))


def affine_from_rows(raw_rows) -> tuple[Row, ...]:
    """Canonical reduced echelon form; raises Contradiction on 0 = c.  The
    indices within one raw row are distinct, in any order."""
    return _system(_echelon(({i: c for i, c in terms if c}, const) for terms, const in raw_rows))


def _generator_hull(inputs, active) -> tuple[Row, ...]:
    """Affine hull over the counters `active` of inputs (rows, pins): a
    consistent canonical system over `active` and the {counter: value} pins
    of `active`.  Each input gives one homogenized point, scaled by the lcm
    of its pivot coefficients, and one direction per free counter; each
    non-pivot column f of the generators' echelon form gives the equality
    with f's entry set against the pivot entry of each row holding f."""
    if not active:
        return ()
    h = active[-1] + 1  # the homogenizing coordinate, after every counter
    units = {}  # counters free and in no row in some input; their directions go first
    gens = {}  # inputs repeat generators, and a repeat adds nothing to a span
    for rows, pins in inputs:
        scale = lcm(*(t[0][1] for t, _ in rows))
        point = {v: scale * c for v, c in pins.items() if c}
        point[h] = scale
        fixed = set(pins)  # counters with no direction: pins and pivots
        dirs = {}
        for terms, const in rows:
            (p, pc), *tail = terms
            fixed.add(p)
            if const:
                point[p] = const * (scale // pc)
            for v, c in tail:
                dirs.setdefault(v, {v: scale})[p] = -c * (scale // pc)
        gens.setdefault(frozenset(point.items()), point)
        for v in active:
            if v in dirs:
                gens.setdefault(frozenset(dirs[v].items()), dirs[v])
            elif v not in fixed:
                units[v] = None
    basis = _echelon([({v: 1}, 0) for v in units] + [(g, 0) for g in gens.values()])
    cols: dict[int, list] = {}
    for p, (g, _) in basis.items():
        for f, c in g.items():
            if f != p:
                cols.setdefault(f, []).append((p, c, g[p]))
    eqs = []
    for f in active + [h]:
        if f in basis:
            continue
        entries = cols.get(f, ())
        m = lcm(*(gp for _, _, gp in entries))
        eq = {f: m}
        for p, c, gp in entries:
            eq[p] = -c * (m // gp)
        eqs.append((eq, -eq.pop(h, 0)))
    return _system(_echelon(eqs))


# --- Elements ----------------------------------------------------------------


class NumElem:
    """Bottom, or a reduced (intervals, affine system) pair over a layout."""

    __slots__ = ("layout", "is_bottom", "ivs", "rows", "_hash")

    def __init__(self, layout, is_bottom, ivs, rows):
        self.layout = layout
        self.is_bottom = is_bottom
        self.ivs = ivs  # tuple of (lo: int, hi: int | None)
        self.rows = rows
        self._hash = hash((is_bottom, ivs, rows))

    def __eq__(self, other):
        if not isinstance(other, NumElem):
            return NotImplemented
        if self.is_bottom or other.is_bottom:
            return self.is_bottom == other.is_bottom
        return self.ivs == other.ivs and self.rows == other.rows

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.is_bottom:
            return "NumElem.bottom"
        boxes = sum(1 for lo, hi in self.ivs if (lo, hi) != (0, INF))
        return f"NumElem({len(self.rows)} eqs, {boxes} boxes)"


def bottom(layout) -> NumElem:
    return NumElem(layout, True, (), ())


def _le(a, b):  # bound comparison with INF on the right meaning +infinity
    return b is INF or (a is not INF and a <= b)


def _tighten(ivs: list, rows) -> bool:
    """One pass tightening each variable's box through each row, in integer
    arithmetic; raises Contradiction on an empty box.  Did any bound move?"""
    changed = False
    for terms, const in rows:
        for i, ci in terms:
            lo_rest: int | None = 0  # None: unbounded in that direction
            hi_rest: int | None = 0
            for j, cj in terms:
                if j == i:
                    continue
                lo_j, hi_j = ivs[j]
                if cj > 0:
                    if lo_rest is not None:
                        lo_rest += cj * lo_j
                    if hi_rest is not None:
                        hi_rest = None if hi_j is INF else hi_rest + cj * hi_j
                else:
                    if hi_rest is not None:
                        hi_rest += cj * lo_j
                    if lo_rest is not None:
                        lo_rest = None if hi_j is INF else lo_rest + cj * hi_j
            # ci * v = const - rest with rest in [lo_rest, hi_rest]; v lies
            # between num_lo / |ci| and num_hi / |ci|
            if ci > 0:
                num_lo = None if hi_rest is None else const - hi_rest
                num_hi = None if lo_rest is None else const - lo_rest
            else:
                num_lo = None if lo_rest is None else lo_rest - const
                num_hi = None if hi_rest is None else hi_rest - const
            d = abs(ci)
            lo, hi = ivs[i]
            if num_lo is not None and -(-num_lo // d) > lo:
                lo, changed = -(-num_lo // d), True
            if num_hi is not None and (hi is INF or num_hi // d < hi):
                hi, changed = num_hi // d, True
            if hi is not INF and lo > hi:
                raise Contradiction
            ivs[i] = (lo, hi)
    return changed


def _fold(ivs: list, rows) -> tuple[tuple[Row, ...], bool]:
    """Substitute pinned variables into the rows on the kernel, then turn
    every single-variable row into a pin of `ivs` (in place).

    The kernel takes the rows plus one `v = value` row per pinned variable
    that a multi-variable row holds; a reduced echelon form is unique, so
    each such variable leaves the other rows and comes back as its pin.
    Returns the rows, which mention no pinned variable, and whether a pinned
    variable had to be substituted.  A single-variable row's variable is its
    pivot, so it occurs in no other row and one pass suffices.
    """
    pins = {}
    for terms, _ in rows:
        if len(terms) > 1:
            for i, _ in terms:
                lo, hi = ivs[i]
                if lo == hi:
                    pins[i] = lo
    if pins:
        rows = affine_from_rows(list(rows) + [(((i, 1),), v) for i, v in pins.items()])
    multi = []
    for terms, const in rows:
        if len(terms) > 1:
            multi.append((terms, const))
            continue
        ((i, c),) = terms
        v, r = divmod(const, c)
        lo, hi = ivs[i]
        if r or v < lo or (hi is not INF and v > hi):
            raise Contradiction
        ivs[i] = (v, v)
    return tuple(multi), bool(pins)


def _reduce(layout, ivs, rows) -> NumElem:
    """Bounded tighten/fold rounds, then the consistency verdict."""
    ivs = list(ivs)
    try:
        for _ in range(REDUCE_ROUNDS):
            changed = _tighten(ivs, rows)
            rows, substituted = _fold(ivs, rows)
            if not (changed or substituted):
                break
    except Contradiction:
        return bottom(layout)
    return NumElem(layout, False, tuple(ivs), rows)


def chi(layout, members) -> NumElem:
    """Characteristic vector: 1 on `members` (variable indices), 0 elsewhere."""
    ivs = [(0, 0)] * layout.size
    for i in members:
        ivs[i] = (1, 1)
    return NumElem(layout, False, tuple(ivs), ())


def _hull_rows(elems, ivs) -> tuple[Row, ...]:
    """Affine hull of the inputs, given the hull of their boxes.

    A variable pinned in `ivs` is pinned to that value in every input, so it
    factors out of the hull exactly; every other pin is a coordinate of its
    input's point."""
    active = [i for i, (lo, hi) in enumerate(ivs) if lo != hi]
    inputs = [
        (e.rows, {i: e.ivs[i][0] for i in active if e.ivs[i][0] == e.ivs[i][1]})
        for e in elems
    ]
    return _generator_hull(inputs, active)


def join(layout, elems) -> NumElem:
    # a round's deltas repeat often, and a repeated input adds nothing to a hull
    elems = list(dict.fromkeys(e for e in elems if not e.is_bottom))
    if not elems:
        return bottom(layout)
    if len(elems) == 1:
        return elems[0]
    ivs = []
    for col in zip(*(e.ivs for e in elems)):  # one counter's boxes
        if col.count(col[0]) == len(col):
            ivs.append(col[0])
            continue
        lo = min(lo for lo, _ in col)
        hi = INF if any(hi is INF for _, hi in col) else max(hi for _, hi in col)
        ivs.append((lo, hi))
    return _reduce(layout, tuple(ivs), _hull_rows(elems, ivs))


_THRESHOLDS = (0, 1)


def widen(layout, a: NumElem, b: NumElem) -> NumElem:
    if a.is_bottom:
        return b
    if b.is_bottom or a == b:
        return a
    ivs = []
    for ia, ib in zip(a.ivs, b.ivs):
        if ia == ib:
            ivs.append(ia)
            continue
        (alo, ahi), (blo, bhi) = ia, ib
        lo = alo
        if blo < alo:
            lo = max((t for t in _THRESHOLDS if t <= blo), default=0)
        hi = ahi
        if not _le(bhi, ahi):
            if bhi is not INF and bhi <= _THRESHOLDS[-1]:
                hi = next(t for t in _THRESHOLDS if t >= bhi)
            else:
                hi = INF
        ivs.append((lo, hi))
    # No `_reduce`: tightening through the rows would narrow a bound just
    # widened, and an increasing chain might never stop.  The result is
    # already reduced in form: a counter pinned in the widened box is pinned
    # to that value in both inputs, so no hull row mentions it, and a hull
    # row over one counter would pin it in both.  It holds both inputs, so
    # it is not empty.
    return NumElem(layout, False, tuple(ivs), _hull_rows((a, b), ivs))


def sync_atleast(layout, requirements: dict[int, int], a: NumElem) -> NumElem:
    """Meet with v >= requirements[v] (multiplicities supported)."""
    if a.is_bottom or not requirements:
        return a
    ivs = list(a.ivs)
    for i, need in requirements.items():
        lo, hi = ivs[i]
        lo = max(lo, need)
        if hi is not INF and lo > hi:
            return bottom(layout)
        ivs[i] = (lo, hi)
    return _reduce(layout, tuple(ivs), a.rows)


def transfer(layout, a: NumElem, consumed, created, pair) -> NumElem:
    """One counted step of `pair` on a class's contents: each counter in
    `consumed` loses a thread, each in `created` gains one, y(pair) += 1
    and z(pair) := 1; bottom when a consumed counter's box allows no thread.

    The box and the rows move by the net shift, z is projected out of the
    rows and pinned to 1, and one reduction follows.  Precondition: each
    consumed counter has lo >= 1 in `a`, as syncing with the class's
    presence requirements leaves it.  Otherwise the result is sound but can
    be coarser than subtracting and reducing first, which would tighten
    through a row tying a consumed counter to z before z leaves it."""
    if a.is_bottom:
        return a
    yi, zi = layout.y(pair), layout.z(pair)
    ivs = list(a.ivs)
    shifts: dict[int, int] = {}
    for i in consumed:
        lo, hi = ivs[i]
        if hi is not INF and hi < 1:
            return bottom(layout)
        ivs[i] = (max(0, lo - 1), INF if hi is INF else hi - 1)
        shifts[i] = shifts.get(i, 0) - 1
    for i in (*created, yi):
        lo, hi = ivs[i]
        ivs[i] = (lo + 1, INF if hi is INF else hi + 1)
        shifts[i] = shifts.get(i, 0) + 1
    ivs[zi] = (1, 1)
    holder = None  # the first row holding z, which z's projection drops
    rest = []
    for terms, const in a.rows:
        const += sum(c * shifts.get(i, 0) for i, c in terms)
        acc = dict(terms)
        c = acc.get(zi)
        if c is None:
            rest.append((acc, const))
        elif holder is None:
            holder = (terms, c, const)
        else:
            rest.append((acc, _cancel(acc, const, c, *holder)))
    rows = _system(_echelon(rest)) if holder else tuple(
        (tuple(acc.items()), const) for acc, const in rest
    )
    return _reduce(layout, tuple(ivs), rows)


# --- Queries -----------------------------------------------------------------


def _coupled_intervals(a: NumElem):
    """Boxes tightened with the flag couplings z <= 1 and z <= y <= ..."""
    layout = a.layout
    ivs = list(a.ivs)
    for p in layout.pairs:
        yi, zi = layout.y(p), layout.z(p)
        zlo, zhi = ivs[zi]
        ylo, yhi = ivs[yi]
        zhi = 1 if zhi is INF else min(zhi, 1)
        if yhi is not INF:
            zhi = min(zhi, yhi)
        ylo = max(ylo, zlo)
        ivs[zi] = (zlo, zhi)
        ivs[yi] = (ylo, yhi)
        if zlo > zhi or (yhi is not INF and ylo > yhi):
            return None  # empty under the coupling
    return ivs


# `entails` works on candidate forms (expr, shift, den): integer coefficients
# and shift over one positive integer denominator, standing for the rational
# form (sum(expr) + shift) / den.  Values are compared by cross-multiplying,
# so every comparison is exact.


def _eliminate_var(expr, shift, den, var, terms, const):
    """Cancel `var` from the form through a row that mentions it, on the
    kernel's `_cancel`; the row's scale goes into the denominator, which
    stays positive."""
    cv = next(c for i, c in terms if i == var)
    out = dict(expr)
    shift = -_cancel(out, -shift, expr[var], terms, cv, const)
    if cv < 0:
        out = {i: -c for i, c in out.items()}
        shift = -shift
    return out, shift, den * (abs(cv) // gcd(expr[var], cv))


def _objective(expr, shift, den, ivs):
    """(number of +inf contributions, bound value ignoring them, den); see
    `_improves` for the order."""
    unbounded = 0
    total = shift
    for i, c in expr.items():
        lo, hi = ivs[i]
        if c > 0:
            if hi is INF:
                unbounded += 1
            else:
                total += c * hi
        else:
            total += c * lo
    return (unbounded, total, den)


def _improves(a, b) -> bool:
    """Objective `a` is lexicographically below `b`: fewer unbounded terms,
    or as many and a smaller rational value."""
    if a[0] != b[0]:
        return a[0] < b[0]
    return a[1] * b[2] < b[1] * a[2]


def entails(a: NumElem, expr: dict[int, int], bound: int) -> bool:
    """Sound check of sum(expr) <= bound, exact in integers.

    The expression is first rewritten canonically (every pivot substituted
    away, leaving free variables only), then improved by hill climbing: any
    variable may be cancelled through any equation mentioning it, and a move
    is kept when it lowers the interval upper bound.  The best of the
    original, canonical and climbed forms decides.
    """
    if a.is_bottom:
        return True
    ivs = _coupled_intervals(a)
    if ivs is None:
        return True
    start = ({i: c for i, c in expr.items() if c}, 0, 1)
    pivot_rows = {r[0][0][0]: r for r in a.rows}

    reduced = start
    while True:
        p = next((i for i in reduced[0] if i in pivot_rows), None)
        if p is None:
            break
        reduced = _eliminate_var(*reduced, p, *pivot_rows[p])

    candidates = [start, reduced]
    for best in list(candidates):
        obj = _objective(*best, ivs)
        for _ in range(2 * len(a.rows) + 8):
            move = None
            for terms, const in a.rows:
                for v, _c in terms:
                    if not best[0].get(v):
                        continue
                    cand = _eliminate_var(*best, v, terms, const)
                    cand_obj = _objective(*cand, ivs)
                    if _improves(cand_obj, obj) and (move is None or _improves(cand_obj, move[0])):
                        move = (cand_obj, cand)
            if move is None:
                break
            obj, best = move
        candidates.append(best)

    for cand in candidates:
        unbounded, value, den = _objective(*cand, ivs)
        if not unbounded and value <= bound * den:
            return True
    return False


def contains_point(a: NumElem, point: dict[int, int]) -> bool:
    """Membership of a (sparse, default-0) integer vector."""
    if a.is_bottom:
        return False
    for i, v in point.items():
        lo, hi = a.ivs[i]
        if v < lo or (hi is not INF and v > hi):
            return False
    for i, (lo, hi) in enumerate(a.ivs):
        if lo > 0 and point.get(i, 0) < lo:
            return False
    for terms, const in a.rows:
        if sum(c * point.get(i, 0) for i, c in terms) != const:
            return False
    return True


def pretty_constraints(a: NumElem) -> list[str]:
    """Human-readable equalities and boxes; a variable pinned to 0 is left out."""
    if a.is_bottom:
        return ["bottom"]
    layout = a.layout
    out = []
    for terms, const in a.rows:
        pos = " + ".join(
            (f"{c}*" if c != 1 else "") + layout.pretty(i) for i, c in terms if c > 0
        )
        neg = " + ".join(
            (f"{-c}*" if c != -1 else "") + layout.pretty(i) for i, c in terms if c < 0
        )
        if neg and const == 0:
            out.append(f"{pos or '0'} = {neg}")
        else:
            tail = f" + {neg}" if neg else ""
            out.append(f"{pos or '0'} = {const}{tail}")
    for i, (lo, hi) in enumerate(a.ivs):
        name = layout.pretty(i)
        if hi is INF:
            if lo > 0:
                out.append(f"{lo} <= {name}")
        elif lo == hi:
            if lo != 0:
                out.append(f"{name} = {lo}")
        else:
            out.append(f"{lo} <= {name} <= {hi}")
    return out
