"""Differential test of the sparse counting domain against the dense one.

`numdom_reference` is the earlier implementation, which keeps every pinned
counter as an `x = c` row next to its box.  Both run the same operations on
the same random small elements (3 labels, 1 pair, boxes within 0..3); each
result must agree on bottom, contain the same points, and give the same
`entails` verdicts.

One difference is expected.  The dense reduction stops after two rounds, and
its last round can leave an entailed row `x = c` next to a box of x that is
not yet pinned; the sparse form always pins x.  Both describe the same points,
but a later join or widening takes the hull of the boxes, so from there on
the sparse result may be strictly smaller.  Once a dense element on the way
to a result is in that state, the sparse result is only required to be at
least as precise and still sound.

Widening differs on purpose.  The reference reduces the widened element;
`numdom.widen` does not, since tightening a box through the rows could
narrow a bound it just widened.  Reduction only drops parts of the box that
hold no integer solution, so the points still agree, but the sparse box may
be looser and `entails` weaker.  For widening, an `entails` verdict of the
sparse result is only required to hold for the reference as well.

The reference is also stricter in one place: it reduces an element holding a
row whose coefficient gcd does not divide its constant to bottom
(`numdom_reference.integer_empty`), since such a row has no integer point.
The sparse domain keeps it, which is sound but loose.  Once the sparse side
keeps such an element on the way to a result, the reference's points are
only required to lie in the sparse result.
"""

from itertools import product

from hypothesis import example, given, settings, strategies as st

import numdom_reference as ref
from judges import affine_entailed, num_make
from picount import numdom as nd

LABELS = (1, 2, 3)
PAIR = (1, 2)
NEW = nd.CountLayout(LABELS, (PAIR,))
OLD = ref.CountLayout(LABELS, (PAIR,))
SIZE = NEW.size
# add_chi moves a box of 0..3 up to 4
POINTS = [dict(enumerate(p)) for p in product(range(5), repeat=SIZE)]


@st.composite
def raw_elements(draw):
    """Boxes within 0..3 and up to three rows, most through a point of the box."""
    ivs = []
    for _ in range(SIZE):
        lo = draw(st.integers(0, 3))
        ivs.append((lo, draw(st.integers(lo, 3))))
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        idx = sorted(draw(st.sets(st.integers(0, SIZE - 1), min_size=1, max_size=3)))
        terms = tuple((i, draw(st.integers(-2, 2))) for i in idx)
        if draw(st.booleans()):
            point = [draw(st.integers(lo, hi)) for lo, hi in ivs]
            const = sum(c * point[i] for i, c in terms)
        else:
            const = draw(st.integers(-2, 4))
        rows.append((terms, const))
    return ivs, rows


members = st.sets(st.integers(0, SIZE - 1), max_size=3)
requirements = st.dictionaries(st.integers(0, SIZE - 1), st.integers(1, 2), max_size=2)
expressions = st.lists(
    st.tuples(
        st.dictionaries(st.integers(0, SIZE - 1), st.integers(-2, 2), min_size=1, max_size=4),
        st.integers(-1, 5),
    ),
    min_size=1,
    max_size=6,
)


def settled(old) -> bool:
    """No dense row pins a variable whose box is not pinned yet."""
    return old.is_bottom or all(
        old.ivs[terms[0][0]][0] == old.ivs[terms[0][0]][1]
        for terms, _ in old.rows
        if len(terms) == 1
    )


def both(op, *inputs):
    """Run `op(module, layout, *elements)` on the reference and on numdom.

    Returns (dense result, sparse result, whether every dense element on
    the way was settled, whether the sparse side kept an element on the way
    that the reference found integer-empty)."""
    old = op(ref, OLD, *(x[0] for x in inputs))
    new = op(nd, NEW, *(x[1] for x in inputs))
    looser = any(x[3] for x in inputs) or (
        old.is_bottom and not new.is_bottom and ref.integer_empty(new.rows)
    )
    return old, new, all(x[2] for x in inputs) and settled(old), looser


def assert_same(result, queries, what, covers=(), reduced=True):
    old, new, exact, looser = result
    if looser:
        for p in POINTS:
            if (exact and ref.contains_point(old, p)) or any(nd.contains_point(c[1], p) for c in covers):
                assert nd.contains_point(new, p), (what, "unsound", p)
        return
    if exact:
        assert old.is_bottom == new.is_bottom, what
    else:
        assert new.is_bottom or not old.is_bottom, what
    for p in POINTS:
        in_old, in_new = ref.contains_point(old, p), nd.contains_point(new, p)
        assert in_new == in_old or (not exact and in_old), (what, p)
        if not exact and any(nd.contains_point(c[1], p) for c in covers):
            assert in_new, (what, "unsound", p)
    for expr, bound in queries:
        old_says, new_says = ref.entails(old, expr, bound), nd.entails(new, expr, bound)
        if reduced:
            assert new_says == old_says or (not exact and new_says), (what, expr, bound)
        else:
            assert old_says or not (exact and new_says), (what, expr, bound)


def make(module, layout, ivs, rows):
    """`judges.num_make`, or the reference's own `make`."""
    if module is nd:
        return num_make(layout, ivs, rows)
    return ref.make(layout, ivs, rows)


def transfer(module, layout, x, minus, plus):
    """`numdom.transfer`, or the reference's chain of its three primitives."""
    if module is nd:
        return nd.transfer(layout, x, minus, plus, PAIR)
    return ref.update_trans(layout, PAIR, ref.add_chi(layout, ref.sub_chi(layout, x, minus), plus))


# no integer point in b, which only the reference reduces to bottom: before
# `integer_empty`, the reference's hull of b and its transfer failed its own
# integrality assert
@example(
    raw_a=([(0, 0)] * SIZE, [(((4, 1),), 1)]),
    raw_b=([(0, 1)] * SIZE, [(((0, 2), (2, 2), (3, -2)), 1)]),
    plus={0},
    minus=set(),
    reqs={},
    queries=[({0: 1}, 1)],
)
@settings(max_examples=150, deadline=None)
@given(raw_elements(), raw_elements(), members, members, requirements, expressions)
def test_sparse_matches_dense(raw_a, raw_b, plus, minus, reqs, queries):
    a = both(lambda m, lay: make(m, lay, *raw_a))
    b = both(lambda m, lay: make(m, lay, *raw_b))
    join = both(lambda m, lay, x, y: m.join(lay, [x, y]), a, b)
    # one contents transfer: sync with the class's presence, which covers
    # every consumed counter, then consume, create and count the step
    need = {**reqs, **{i: max(reqs.get(i, 0), 1) for i in minus}}
    synced = both(lambda m, lay, x: m.sync_atleast(lay, need, x), join)
    step = both(lambda m, lay, x: transfer(m, lay, x, minus, plus), synced)
    checks = [
        ("make a", a, ()),
        ("make b", b, ()),
        ("join", join, (a, b)),
        ("sync_atleast", both(lambda m, lay, x: m.sync_atleast(lay, reqs, x), a), ()),
        ("transfer: sync_atleast", synced, ()),
        ("transfer", step, ()),
        ("join after transfer", both(lambda m, lay, x, y: m.join(lay, [x, y]), join, step), (join, step)),
    ]
    for what, result, covers in checks:
        assert_same(result, queries, what, covers)
    for what, x, y in (("widen", a, b), ("widen after transfer", join, step)):
        widened = both(lambda m, lay, u, v: m.widen(lay, u, v), x, y)
        assert_same(widened, queries, what, (x, y), reduced=False)


# x1 in 0..1, y and z in 0..1, x1 + y + z = 1: hypothesis's counterexample
# for `transfer` on an input that is not synced with its consumed counter y
UNSYNCED = ([(0, 1), (0, 0), (0, 0), (0, 1), (0, 1)], [(((0, 1), (3, 1), (4, 1)), 1)])


def test_transfer_needs_its_consumed_counters_synced():
    """Consuming y from UNSYNCED, the reference chain pins x1 to 0 through
    the row before z leaves it; the one pass projects z out first and keeps
    x1 in 0..1, so it is sound but coarser.  Synced with y >= 1, the two
    contain the same points."""
    y = NEW.y(PAIR)
    for need in ({}, {y: 1}):
        old = ref.sync_atleast(OLD, need, ref.make(OLD, *UNSYNCED))
        new = nd.sync_atleast(NEW, need, num_make(NEW, *UNSYNCED))
        chain = transfer(ref, OLD, old, {y}, ())
        one = transfer(nd, NEW, new, {y}, ())
        want = [p for p in POINTS if ref.contains_point(chain, p)]
        got = [p for p in POINTS if nd.contains_point(one, p)]
        assert want and all(p in got for p in want), need
        assert (got == want) == bool(need), (need, got)


# --- The elimination kernel and the pinned hull ------------------------------

WIDE = 8  # counters of the kernel and hull tests


@st.composite
def raw_rows(draw):
    """Up to eight rows over WIDE counters, each with distinct indices in any
    order and coefficients that may be 0; most hold at one shared point."""
    point = [draw(st.integers(0, 3)) for _ in range(WIDE)]
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        terms = draw(
            st.lists(
                st.tuples(st.integers(0, WIDE - 1), st.integers(-3, 3)),
                max_size=5,
                unique_by=lambda t: t[0],
            )
        )
        if draw(st.integers(0, 4)):
            const = sum(c * point[i] for i, c in terms)
        else:
            const = draw(st.integers(-3, 6))
        rows.append((tuple(terms), const))
    return rows


def canonical_or_contradiction(module, rows):
    try:
        return module.affine_from_rows(rows)
    except module.Contradiction:
        return "contradiction"


@settings(max_examples=400, deadline=None)
@given(raw_rows(), raw_rows())
def test_kernel_matches_reference(raw, probes):
    canon = canonical_or_contradiction(nd, raw)
    assert canon == canonical_or_contradiction(ref, raw), raw
    if canon == "contradiction":
        return
    for terms, const in probes:
        assert affine_entailed(canon, terms, const) == ref.affine_entailed(
            canon, terms, const
        ), (canon, terms, const)


HULL = nd.CountLayout(tuple(range(1, WIDE + 1)), ())


@st.composite
def pinned_elements(draw):
    """Reduced elements over HULL: boxes within 0..3, about half of them
    pinned to a value drawn from the box, and rows through a point of it."""
    ivs, point = [], []
    for _ in range(WIDE):
        lo = draw(st.integers(0, 2))
        hi = draw(st.integers(lo, 3))
        v = draw(st.integers(lo, hi))
        ivs.append((v, v) if draw(st.booleans()) else (lo, hi))
        point.append(v)
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        idx = sorted(draw(st.sets(st.integers(0, WIDE - 1), min_size=2, max_size=4)))
        terms = tuple((i, draw(st.integers(-2, 2))) for i in idx)
        rows.append((terms, sum(c * point[i] for i, c in terms)))
    return num_make(HULL, ivs, rows)


@settings(max_examples=300, deadline=None)
@given(st.lists(pinned_elements(), min_size=2, max_size=7))
def test_pinned_hull_matches_reference(elems):
    ivs = [
        (min(lo for lo, _ in col), max(hi for _, hi in col))
        for col in zip(*(e.ivs for e in elems))
    ]
    systems = []
    for e in elems:
        pins = [
            (((i, 1),), lo)
            for i, (lo, hi) in enumerate(e.ivs)
            if lo == hi and ivs[i][0] != ivs[i][1]
        ]
        systems.append(ref.affine_from_rows(list(e.rows) + pins))
    assert nd._hull_rows(elems, ivs) == ref.affine_hull(systems), elems
