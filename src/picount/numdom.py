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

Join is the affine hull plus the interval hull; counters pinned to the same
value in every input factor out, the other pins join the hull as rows.  The
hull stays on the constraint side (Karr's join): the equalities valid on
every input are the intersection of the inputs' homogenized row spaces,
which one elimination by `affine_from_rows` yields, so every affine
operation shares that one canonical routine.
Widening keeps the hull on the affine side and widens boxes through the
threshold set {0, 1} before giving up to infinity, which is exactly enough to
keep one-shot step counters bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

INF = None  # upper bound marker

REDUCE_ROUNDS = 2


# --- Variables of the counting domain --------------------------------------


@dataclass(frozen=True)
class CountVar:
    """x@l occupancy counters, y@(l?,l!) step counters, z@(l?,l!) step flags."""

    kind: str  # 'x' | 'y' | 'z'
    ref: object  # label for x, (label, label) for y/z

    def pretty(self) -> str:
        if self.kind == "x":
            return f"x{self.ref}"
        return f"{self.kind}({self.ref[0]},{self.ref[1]})"


class CountLayout:
    """Index assignment for K = x-vars of all labels + y/z per feasible pair."""

    def __init__(self, labels, pairs):
        self.labels = tuple(labels)
        self.pairs = tuple(pairs)
        self.vars: list[CountVar] = []
        self.index: dict[CountVar, int] = {}
        for l in self.labels:
            self._add(CountVar("x", l))
        for p in self.pairs:
            self._add(CountVar("y", p))
            self._add(CountVar("z", p))
        self.size = len(self.vars)

    def _add(self, v: CountVar):
        self.index[v] = len(self.vars)
        self.vars.append(v)

    def x(self, label) -> int:
        return self.index[CountVar("x", label)]

    def y(self, pair) -> int:
        return self.index[CountVar("y", pair)]

    def z(self, pair) -> int:
        return self.index[CountVar("z", pair)]

    def pretty(self, i: int) -> str:
        return self.vars[i].pretty()


# --- Affine systems ----------------------------------------------------------

# A row is (terms, const): terms is a tuple of (var_index, int_coeff) sorted by
# index, const an int; the row states sum(coeff * v) == const.  A system is a
# tuple of rows sorted by pivot (first index), every pivot eliminated from the
# other rows, each row primitive with positive pivot coefficient.

Row = tuple[tuple[tuple[int, int], ...], int]


class Contradiction(Exception):
    pass


def _primitive(terms, const) -> Row | None:
    terms = tuple((i, c) for i, c in terms if c != 0)
    if not terms:
        return None if const == 0 else ((), const)
    g = 0
    for _, c in terms:
        g = gcd(g, abs(c))
    g = gcd(g, abs(const))
    if terms[0][1] < 0:
        terms = tuple((i, -c) for i, c in terms)
        const = -const
    if g > 1:
        terms = tuple((i, c // g) for i, c in terms)
        const = const // g
    return (terms, const)


def _combine(row_a: Row, ca: int, row_b: Row, cb: int) -> Row | None:
    """ca * row_a + cb * row_b, primitive."""
    acc: dict[int, int] = {}
    for i, c in row_a[0]:
        acc[i] = acc.get(i, 0) + ca * c
    for i, c in row_b[0]:
        acc[i] = acc.get(i, 0) + cb * c
    return _primitive(sorted(acc.items()), ca * row_a[1] + cb * row_b[1])


def _eliminate(row: Row | None, pivot_rows: dict[int, Row]) -> Row | None:
    """Remove every pivot variable from the row (pivot rows hold only their own
    pivot plus free variables, so one combination per pivot suffices)."""
    while row is not None and row[0]:
        hit = None
        for i, c in row[0]:
            if i in pivot_rows:
                hit = (i, c)
                break
        if hit is None:
            return row
        i, c = hit
        q = pivot_rows[i]
        row = _combine(row, q[0][0][1], q, -c)
    return row


def affine_from_rows(raw_rows) -> tuple[Row, ...]:
    """Canonical reduced echelon form; raises Contradiction on 0 = c."""
    pivot_rows: dict[int, Row] = {}
    for terms, const in raw_rows:
        row = _eliminate(_primitive(tuple(sorted(terms)), const), pivot_rows)
        if row is None:
            continue
        if not row[0]:
            raise Contradiction
        p, pc = row[0][0]
        for qp, q in list(pivot_rows.items()):
            if not qp < p <= q[0][-1][0]:
                continue  # p lies outside q's sorted index range
            coeff = next((c for i, c in q[0] if i == p), 0)
            if coeff:
                pivot_rows[qp] = _combine(q, pc, row, -coeff)
        pivot_rows[p] = row
    return tuple(sorted(pivot_rows.values(), key=lambda r: r[0][0][0]))


def affine_entailed(rows: tuple[Row, ...], terms, const) -> bool:
    """Does the system imply sum(terms) == const?"""
    pivot_rows = {r[0][0][0]: r for r in rows}
    row = _eliminate(_primitive(tuple(sorted(terms)), const), pivot_rows)
    return row is None


def affine_project_out(rows: tuple[Row, ...], idx: int) -> tuple[Row, ...]:
    """Eliminate one variable (existential projection)."""
    holder = None
    rest = []
    for r in rows:
        if any(i == idx for i, _ in r[0]):
            if holder is None:
                holder = r
            else:
                ch = next(c for i, c in holder[0] if i == idx)
                cr = next(c for i, c in r[0] if i == idx)
                combined = _combine(r, ch, holder, -cr)
                if combined is not None:
                    rest.append(combined)
        else:
            rest.append(r)
    return affine_from_rows(rest)


def affine_translate(rows: tuple[Row, ...], shifts: dict[int, int]) -> tuple[Row, ...]:
    """Image under v := v + shifts[v]: constants absorb the shift."""
    out = []
    for terms, const in rows:
        delta = sum(c * shifts.get(i, 0) for i, c in terms)
        out.append((terms, const + delta))
    return tuple(out)


def _intersect(a: tuple[Row, ...], b: tuple[Row, ...]) -> tuple[Row, ...]:
    """Rows implied by both systems: the intersection of their homogenized
    row spaces, by Zassenhaus's construction.

    Each row of `b` enters as (r | 0) and each row of `a` as (r | r), where
    the left half (negative indices, below every variable) holds the row's
    coefficients and its constant.  After elimination, the rows whose left
    half vanished carry a basis of the intersection in their right half,
    already in canonical form.
    """

    def left(terms, const):
        return tuple((-2 - i, c) for i, c in terms) + ((-1, const),)

    # the result does not depend on the order; this one eliminates fastest
    raw = [(left(terms, const), 0) for terms, const in b]
    raw += [(left(terms, const) + terms, const) for terms, const in a]
    return tuple(r for r in affine_from_rows(raw) if r[0][0][0] >= 0)


def affine_hull(systems: list[tuple[Row, ...]]) -> tuple[Row, ...]:
    """Smallest affine system containing every input's solution set.

    The inputs are consistent, so the equalities valid on a solution set are
    exactly its system's homogenized row space, and the hull's are the
    intersection of those spaces.
    """
    if not systems:
        raise ValueError("hull of nothing")
    hull = systems[0]
    for s in systems[1:]:
        if s != hull:
            hull = _intersect(hull, s)
    return hull


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
    """Substitute pinned variables into the rows and re-canonicalize, then
    turn every single-variable row into a pin of `ivs` (in place).

    Returns the rows, which mention no pinned variable, and whether a pinned
    variable had to be substituted.  A single-variable row's variable is its
    pivot, so it occurs in no other row and one pass suffices.
    """
    substituted = any(
        len(terms) > 1 and any(ivs[i][0] == ivs[i][1] for i, _ in terms)
        for terms, _ in rows
    )
    if substituted:
        raw = []
        for terms, const in rows:
            kept = []
            for i, c in terms:
                lo, hi = ivs[i]
                if lo == hi:
                    const -= c * lo
                else:
                    kept.append((i, c))
            raw.append((kept, const))
        rows = affine_from_rows(raw)
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
    return tuple(multi), substituted


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


def make(layout, ivs, rows) -> NumElem:
    try:
        canon = affine_from_rows(rows)
    except Contradiction:
        return bottom(layout)
    for lo, hi in ivs:
        if lo < 0 or (hi is not INF and lo > hi):
            return bottom(layout)
    return _reduce(layout, tuple(ivs), canon)


def chi(layout, members) -> NumElem:
    """Characteristic vector: 1 on `members` (variable indices), 0 elsewhere."""
    ivs = [(0, 0)] * layout.size
    for i in members:
        ivs[i] = (1, 1)
    return NumElem(layout, False, tuple(ivs), ())


def _hull_rows(elems, ivs) -> tuple[Row, ...]:
    """Affine hull of the inputs, given the hull of their boxes.

    A variable pinned in `ivs` is pinned to that value in every input, so it
    factors out of the hull exactly; every other pin joins its input's
    system as an explicit row.
    """
    systems = []
    for e in elems:
        pins = tuple(
            (((i, 1),), lo)
            for i, (lo, hi) in enumerate(e.ivs)
            if lo == hi and ivs[i][0] != ivs[i][1]
        )
        systems.append(tuple(sorted(e.rows + pins)) if pins else e.rows)
    return affine_hull(list(dict.fromkeys(systems)))


def join(layout, elems) -> NumElem:
    # a round's deltas repeat often, and a repeated input adds nothing to a hull
    elems = list(dict.fromkeys(e for e in elems if not e.is_bottom))
    if not elems:
        return bottom(layout)
    if len(elems) == 1:
        return elems[0]
    ivs = []
    for i in range(layout.size):
        lo = min(e.ivs[i][0] for e in elems)
        hi = (
            INF
            if any(e.ivs[i][1] is INF for e in elems)
            else max(e.ivs[i][1] for e in elems)
        )
        ivs.append((lo, hi))
    return _reduce(layout, tuple(ivs), _hull_rows(elems, ivs))


_THRESHOLDS = (0, 1)


def widen(layout, a: NumElem, b: NumElem) -> NumElem:
    if a.is_bottom:
        return b
    if b.is_bottom:
        return a
    ivs = []
    for (alo, ahi), (blo, bhi) in zip(a.ivs, b.ivs):
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


def leq(a: NumElem, b: NumElem) -> bool:
    """Structural inclusion test (sound, not complete)."""
    if a.is_bottom:
        return True
    if b.is_bottom:
        return False
    for (alo, ahi), (blo, bhi) in zip(a.ivs, b.ivs):
        if alo < blo or not _le(ahi, bhi):
            return False
    for terms, const in b.rows:
        # a's pinned variables enter b's row as constants
        rest = []
        for i, c in terms:
            lo, hi = a.ivs[i]
            if lo == hi:
                const -= c * lo
            else:
                rest.append((i, c))
        if not affine_entailed(a.rows, rest, const):
            return False
    return True


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


def add_chi(layout, a: NumElem, members) -> NumElem:
    """Pointwise sum with a characteristic vector."""
    if a.is_bottom or not members:
        return a
    ivs = list(a.ivs)
    for i in members:
        lo, hi = ivs[i]
        ivs[i] = (lo + 1, INF if hi is INF else hi + 1)
    return _reduce(layout, tuple(ivs), affine_translate(a.rows, {i: 1 for i in members}))


def sub_chi(layout, a: NumElem, members) -> NumElem:
    """Pointwise difference with a characteristic vector; bottom if negative."""
    if a.is_bottom or not members:
        return a
    ivs = list(a.ivs)
    for i in members:
        lo, hi = ivs[i]
        if hi is not INF and hi - 1 < 0:
            return bottom(layout)
        ivs[i] = (max(0, lo - 1), INF if hi is INF else hi - 1)
    return _reduce(layout, tuple(ivs), affine_translate(a.rows, {i: -1 for i in members}))


def update_trans(layout, pair, a: NumElem) -> NumElem:
    """Record one more step of this kind: y += 1, z forced to 1."""
    if a.is_bottom:
        return a
    yi, zi = layout.y(pair), layout.z(pair)
    rows = affine_translate(a.rows, {yi: 1})
    rows = affine_project_out(rows, zi)
    ivs = list(a.ivs)
    lo, hi = ivs[yi]
    ivs[yi] = (lo + 1, INF if hi is INF else hi + 1)
    ivs[zi] = (1, 1)
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


def _upper_value(expr, shift, ivs):
    """Largest value of shift + sum(expr) over the boxes, or None."""
    total = shift
    for i, c in expr.items():
        lo, hi = ivs[i]
        if c > 0:
            if hi is INF:
                return None
            total += c * hi
        else:
            total += c * lo
    return total


def _eliminate_var(expr, shift, var, terms, const):
    """Cancel `var` from the expression using a row that mentions it."""
    cv = next(c for i, c in terms if i == var)
    coeff = expr[var]
    out = dict(expr)
    for i, c in terms:
        nc = out.get(i, Fraction(0)) - coeff * Fraction(c, cv)
        if nc:
            out[i] = nc
        elif i in out:
            del out[i]
    return out, shift + coeff * Fraction(const, cv)


def _objective(expr, shift, ivs):
    """(number of +inf contributions, bound value ignoring them) - lexicographic."""
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
    return (unbounded, total)


def entails(a: NumElem, expr: dict[int, int], bound: int) -> bool:
    """Sound check of sum(expr) <= bound.

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
    start = ({i: Fraction(c) for i, c in expr.items() if c}, Fraction(0))
    pivot_rows = {r[0][0][0]: r for r in a.rows}

    reduced, rshift = start
    while True:
        p = next((i for i in reduced if i in pivot_rows), None)
        if p is None:
            break
        reduced, rshift = _eliminate_var(reduced, rshift, p, *pivot_rows[p])

    candidates = [start, (reduced, rshift)]
    for best, bshift in list(candidates):
        obj = _objective(best, bshift, ivs)
        for _ in range(2 * len(a.rows) + 8):
            move = None
            for terms, const in a.rows:
                for v, _c in terms:
                    if not best.get(v):
                        continue
                    cand, cshift = _eliminate_var(best, bshift, v, terms, const)
                    cand_obj = _objective(cand, cshift, ivs)
                    if cand_obj < obj and (move is None or cand_obj < move[0]):
                        move = (cand_obj, cand, cshift)
            if move is None:
                break
            obj, best, bshift = move
        candidates.append((best, bshift))

    values = [_upper_value(e, s, ivs) for e, s in candidates]
    finite = [v for v in values if v is not None]
    return bool(finite) and min(finite) <= bound


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


def pretty_constraints(a: NumElem, hide_zero: bool = True) -> list[str]:
    """Human-readable equalities and boxes; pinned variables render as boxes."""
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
            if lo != 0 or not hide_zero:
                out.append(f"{name} = {lo}")
        else:
            out.append(f"{lo} <= {name} <= {hi}")
    return out
