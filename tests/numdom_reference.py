# Dense reference implementation of the counting domain, kept for
# tests/test_numdom_differential.py: every pinned counter is also an `x = c`
# row of the affine system.  Not used by the package.  One change since it
# was the package's: reduction also gives bottom on a row with no integer
# solution (`integer_empty`), which the sparse domain keeps.
"""Counting domain: reduced product of natural intervals and affine equalities.

Values abstract functions from a fixed finite variable set K into the
naturals.  The affine component is a system of exact linear equalities kept
in primitive-integer reduced row echelon form (coefficients are machine ints,
canonical up to gcd and sign, so elements hash and compare structurally).
The interval component keeps one [lo, hi] box per variable, hi possibly
infinite (None).  A bounded reduction pass tightens boxes through the
equations and promotes pinned variables back into the system; contradictions
collapse to bottom.

Join is the affine hull plus the interval hull; widening keeps the hull on
the affine side and widens boxes through the threshold set {0, 1} before
giving up to infinity, which is exactly enough to keep one-shot step counters
bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd

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
        self._chi_cache: dict[frozenset, "NumElem"] = {}

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
            coeff = next((c for i, c in q[0] if i == p), 0)
            if coeff:
                pivot_rows[qp] = _combine(q, pc, row, -coeff)
        pivot_rows[p] = row
    return tuple(sorted(pivot_rows.values(), key=lambda r: r[0][0][0]))


def affine_insert(rows: tuple[Row, ...], terms, const) -> tuple[Row, ...]:
    return affine_from_rows(list(rows) + [(tuple(terms), const)])


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


def _solve(rows: tuple[Row, ...], var_order):
    """One witness point and a kernel basis over `var_order` (Fractions).

    In reduced echelon form every non-pivot entry of a row is a free
    variable, so setting the free variables fixes each pivot directly.
    """
    pivot_of = {r[0][0][0]: r for r in rows}
    free = [v for v in var_order if v not in pivot_of]
    point = {v: Fraction(0) for v in free}
    for v in var_order:
        if v in pivot_of:
            terms, const = pivot_of[v]
            s = Fraction(const)
            for i, c in terms[1:]:
                s -= c * point[i]
            point[v] = s / terms[0][1]
    basis = []
    for f in free:
        vec = {f: Fraction(1)}
        for v in var_order:
            if v in pivot_of:
                terms, _ = pivot_of[v]
                c_f = next((c for i, c in terms[1:] if i == f), 0)
                if c_f:
                    vec[v] = Fraction(-c_f, terms[0][1])
        basis.append(vec)
    return point, basis


def _echelon_insert(echelon: dict, g: dict):
    g = {v: c for v, c in g.items() if c}
    while g:
        v = min(g)
        if v in echelon:
            coeff = g.pop(v)
            for w, c in echelon[v].items():
                if w == v:
                    continue
                nc = g.get(w, Fraction(0)) - coeff * c
                if nc:
                    g[w] = nc
                elif w in g:
                    del g[w]
        else:
            lead = g[v]
            echelon[v] = {w: c / lead for w, c in g.items()}
            return


def affine_hull(systems: list[tuple[Row, ...]]) -> tuple[Row, ...]:
    """Smallest affine system containing every input's solution set."""
    if not systems:
        raise ValueError("hull of nothing")
    first = systems[0]
    if all(s == first for s in systems):
        return first

    # variables pinned to the same constant everywhere factor out exactly:
    # in echelon form they appear in no other row
    def fixed_map(rows):
        return {r[0][0][0]: r[1] for r in rows if len(r[0]) == 1 and r[0][0][1] == 1}

    fixed_maps = [fixed_map(s) for s in systems]
    common_fixed = {
        v: c
        for v, c in fixed_maps[0].items()
        if all(fm.get(v) == c for fm in fixed_maps[1:])
    }

    reduced = [tuple(r for r in s if r[0][0][0] not in common_fixed) for s in systems]
    active = sorted({i for s in reduced for r in s for i, _ in r[0]})

    points = []
    gens: list[dict[int, Fraction]] = []
    for s in reduced:
        point, basis = _solve(s, active)
        points.append(point)
        gens.extend(basis)
    base = points[0]
    for p in points[1:]:
        gens.append({v: p[v] - base[v] for v in active})

    echelon: dict[int, dict[int, Fraction]] = {}
    for g in gens:
        _echelon_insert(echelon, g)

    # back-substitute so every lead occurs in its own vector only; vectors
    # then hold their lead plus free variables, as the kernel formula needs
    for v in sorted(echelon, reverse=True):
        vec = echelon[v]
        while True:
            w = next((u for u in vec if u != v and u in echelon), None)
            if w is None:
                break
            c = vec[w]
            other = echelon[w]
            vec = {
                u: vec.get(u, Fraction(0)) - c * other.get(u, Fraction(0))
                for u in set(vec) | set(other)
            }
            vec = {u: cv for u, cv in vec.items() if cv}
        echelon[v] = vec

    # hull constraints = vectors orthogonal to the generator span, anchored at
    # the base witness; one constraint per non-lead variable
    frees = [v for v in active if v not in echelon]
    rows = []
    for f in frees:
        coeffs = {f: Fraction(1)}
        for v in sorted(echelon):
            c = echelon[v].get(f)
            if c:
                coeffs[v] = -c
        denom = 1
        for c in coeffs.values():
            denom = denom * c.denominator // gcd(denom, c.denominator)
        terms = sorted((v, int(c * denom)) for v, c in coeffs.items())
        const = sum(c * base[v] for v, c in coeffs.items()) * denom
        assert const.denominator == 1
        rows.append((tuple(terms), int(const)))
    for v, c in common_fixed.items():
        rows.append((((v, 1),), c))
    return affine_from_rows(rows)


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


def _reduce(layout, ivs, rows) -> NumElem:
    """Bounded tighten/promote rounds, then the consistency verdict."""
    ivs = list(ivs)
    try:
        for _ in range(REDUCE_ROUNDS):
            changed = False
            for terms, const in rows:
                for i, ci in terms:
                    lo_rest: Fraction | None = Fraction(0)
                    hi_rest: Fraction | None = Fraction(0)
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
                    # ci * v = const - rest with rest in [lo_rest, hi_rest]
                    if ci > 0:
                        new_lo = None if hi_rest is None else (const - hi_rest) / ci
                        new_hi = None if lo_rest is None else (const - lo_rest) / ci
                    else:
                        new_lo = None if lo_rest is None else (const - lo_rest) / ci
                        new_hi = None if hi_rest is None else (const - hi_rest) / ci
                    lo, hi = ivs[i]
                    if new_lo is not None:
                        nl = ceil(new_lo)
                        if nl > lo:
                            lo, changed = nl, True
                    if new_hi is not None:
                        nh = floor(new_hi)
                        if hi is INF or nh < hi:
                            hi, changed = nh, True
                    if hi is not INF and lo > hi:
                        return bottom(layout)
                    ivs[i] = (lo, hi)
            promoted = [
                (((i, 1),), lo)
                for i, (lo, hi) in enumerate(ivs)
                if hi is not INF and lo == hi and not affine_entailed(rows, ((i, 1),), lo)
            ]
            if promoted:
                rows = affine_from_rows(list(rows) + promoted)
                changed = True
            if not changed:
                break
    except Contradiction:
        return bottom(layout)
    if integer_empty(rows):
        return bottom(layout)
    return NumElem(layout, False, tuple(ivs), rows)


def integer_empty(rows) -> bool:
    """Does a row's coefficient gcd not divide its constant?  Such a row has
    no integer solution, and its rational ones would give the hull fractional
    constants."""
    return any(const % gcd(*(c for _, c in terms)) for terms, const in rows)


def make(layout, ivs, rows) -> NumElem:
    try:
        canon = affine_from_rows(rows)
    except Contradiction:
        return bottom(layout)
    for lo, hi in ivs:
        if lo < 0 or (hi is not INF and lo > hi):
            return bottom(layout)
    return _reduce(layout, tuple(ivs), canon)


def top(layout) -> NumElem:
    return NumElem(layout, False, tuple((0, INF) for _ in range(layout.size)), ())


def chi(layout, members) -> NumElem:
    """Characteristic vector: 1 on `members` (variable indices), 0 elsewhere."""
    members = frozenset(members)
    cached = layout._chi_cache.get(members)
    if cached is None:
        ivs = []
        rows = []
        for i in range(layout.size):
            v = 1 if i in members else 0
            ivs.append((v, v))
            rows.append((((i, 1),), v))
        cached = NumElem(layout, False, tuple(ivs), tuple(rows))
        layout._chi_cache[members] = cached
    return cached


def join(layout, elems) -> NumElem:
    elems = [e for e in elems if not e.is_bottom]
    if not elems:
        return bottom(layout)
    if all(e == elems[0] for e in elems):
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
    rows = affine_hull([e.rows for e in elems])
    return _reduce(layout, tuple(ivs), rows)


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
    rows = affine_hull([a.rows, b.rows])
    return _reduce(layout, tuple(ivs), rows)


def leq(a: NumElem, b: NumElem) -> bool:
    """Structural inclusion test (sound, not complete)."""
    if a.is_bottom:
        return True
    if b.is_bottom:
        return False
    for (alo, ahi), (blo, bhi) in zip(a.ivs, b.ivs):
        if alo < blo or not _le(ahi, bhi):
            return False
    return all(affine_entailed(a.rows, terms, const) for terms, const in b.rows)


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


def sync_nonzero(layout, members, a: NumElem) -> NumElem:
    return sync_atleast(layout, {i: 1 for i in members}, a)


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
    rows = affine_insert(rows, ((zi, 1),), 1)
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
    fixed = {i for i, (lo, hi) in enumerate(a.ivs) if hi is not INF and lo == hi}
    for terms, const in a.rows:
        if len(terms) == 1 and terms[0][1] == 1 and terms[0][0] in fixed:
            continue
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
