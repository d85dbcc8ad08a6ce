import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import numdom_reference as ref
from picount import numdom as nd
from picount.numdom import INF, CountLayout

from judges import affine_entailed, num_leq, num_make


def layout_of(n_labels, pairs=()):
    return CountLayout(tuple(range(1, n_labels + 1)), tuple(pairs))


def rank(matrix):
    """Reference Gaussian elimination over Fractions (independent oracle)."""
    m = [[Fraction(x) for x in row] for row in matrix]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def in_affine_span(points, q):
    """Membership of q in the affine span of `points`, by rank comparison."""
    base = points[0]
    rows = [[p[i] - base[i] for i in range(len(base))] for p in points[1:]]
    extended = rows + [[q[i] - base[i] for i in range(len(base))]]
    if not rows:
        return list(q) == list(base)
    return rank(rows) == rank(extended)


def satisfies_rows(rows, point):
    return all(
        sum(c * point[i] for i, c in terms) == const for terms, const in rows
    )


# -- characteristic vectors -----------------------------------------------


def test_chi_empty_and_singleton():
    lay = layout_of(3)
    zero = nd.chi(lay, ())
    assert all(iv == (0, 0) for iv in zero.ivs)
    one = nd.chi(lay, (lay.x(1),))
    assert one.ivs[lay.x(1)] == (1, 1)
    assert all(one.ivs[i] == (0, 0) for i in range(lay.size) if i != lay.x(1))


def test_chi_membership():
    lay = layout_of(4)
    rng = random.Random(7)
    for _ in range(20):
        members = {i for i in range(lay.size) if rng.random() < 0.4}
        elem = nd.chi(lay, members)
        assert nd.contains_point(elem, {i: 1 for i in members})


# -- join -------------------------------------------------------------------


def test_join_single_label_hull():
    lay = layout_of(1)
    j = nd.join(lay, [nd.chi(lay, (lay.x(1),)), nd.chi(lay, ())])
    assert j.ivs[lay.x(1)] == (0, 1)
    assert j.rows == ()  # one free variable, everything else pinned by boxes


def test_join_correlated_pair():
    lay = layout_of(2)
    j = nd.join(lay, [nd.chi(lay, (lay.x(1), lay.x(2))), nd.chi(lay, ())])
    assert j.ivs[lay.x(1)] == (0, 1) and j.ivs[lay.x(2)] == (0, 1)
    assert affine_entailed(j.rows, ((lay.x(1), 1), (lay.x(2), -1)), 0)


def test_join_idempotent_and_bottom_neutral():
    lay = layout_of(2)
    a = nd.chi(lay, (lay.x(1),))
    assert nd.join(lay, [a]) == a
    assert nd.join(lay, [a, nd.bottom(lay)]) == a
    assert nd.join(lay, []).is_bottom


def test_join_order_insensitive():
    lay = layout_of(3)
    rng = random.Random(11)
    elems = [
        nd.chi(lay, {i for i in range(lay.size) if rng.random() < 0.5})
        for _ in range(5)
    ]
    a = nd.join(lay, elems)
    b = nd.join(lay, list(reversed(elems)))
    assert a == b


# -- widening ----------------------------------------------------------------


def test_widen_examples():
    lay = layout_of(1)
    x = lay.x(1)

    def boxed(lo, hi):
        return num_make(lay, [(lo, hi)], [])

    w = nd.widen(lay, boxed(0, 1), boxed(0, 2))
    assert w.ivs[x] == (0, INF)
    a = boxed(0, 1)
    assert nd.widen(lay, a, a) == a
    w01 = nd.widen(lay, boxed(0, 0), boxed(0, 1))
    assert w01.ivs[x] == (0, 1)  # the threshold at 1 holds


def test_widen_chain_stabilizes_quickly():
    lay = layout_of(1)
    x = lay.x(1)
    current = num_make(lay, [(0, 0)], [])
    steps = 0
    for n in range(1, 30):
        nxt = nd.widen(lay, current, num_make(lay, [(0, n)], []))
        steps += 1
        if nxt == current:
            break
        current = nxt
    assert steps <= 3
    assert current.ivs[x] == (0, INF)


# -- sync / add / sub / update ------------------------------------------------


def walkthrough_element():
    lay = CountLayout((1, 2, 5, 6, 10), ((1, 13), (5, 10)))
    ivs = [(0, INF)] * lay.size
    ivs[lay.y((1, 13))] = (0, 1)
    rows = [(((lay.x(2), 1), (lay.x(6), 1), (lay.x(10), 1), (lay.y((1, 13)), -1)), 0)]
    return lay, num_make(lay, ivs, rows)


def test_sync_nonzero_reduction():
    lay, a = walkthrough_element()
    t = nd.sync_atleast(lay, {lay.x(5): 1, lay.x(10): 1}, a)
    assert t.ivs[lay.x(5)] == (1, INF)
    assert t.ivs[lay.x(10)] == (1, 1)
    assert t.ivs[lay.y((1, 13))] == (1, 1)
    assert t.ivs[lay.x(6)] == (0, 0) and t.ivs[lay.x(2)] == (0, 0)
    assert nd.sync_atleast(lay, {}, a) == a
    dead = nd.sync_atleast(lay, {lay.x(6): 1}, nd.chi(lay, ()))
    assert dead.is_bottom


def test_sync_multiplicities():
    lay = layout_of(1)
    two = num_make(lay, [(0, 2)], [])
    assert not nd.sync_atleast(lay, {lay.x(1): 2}, two).is_bottom
    one = num_make(lay, [(0, 1)], [])
    assert nd.sync_atleast(lay, {lay.x(1): 2}, one).is_bottom


def test_add_sub_walkthrough():
    # the counters of the consumed threads go down by one, the created up by one
    lay, a = walkthrough_element()
    t = nd.sync_atleast(lay, {lay.x(5): 1, lay.x(10): 1}, a)
    c0 = nd.transfer(lay, t, [lay.x(5), lay.x(10)], [lay.x(6)], (5, 10))
    assert c0.ivs[lay.x(5)] == (0, INF)
    assert c0.ivs[lay.x(10)] == (0, 0)
    assert c0.ivs[lay.x(6)] == (1, 1)
    assert c0.ivs[lay.x(2)] == (0, 0)
    assert c0.ivs[lay.y((1, 13))] == (1, 1)
    assert nd.transfer(lay, nd.chi(lay, ()), [lay.x(1)], (), (5, 10)).is_bottom


def test_update_trans_walkthrough():
    # the pair's y counts one more transition and its z flag is set
    lay, a = walkthrough_element()
    t = nd.sync_atleast(lay, {lay.x(5): 1, lay.x(10): 1}, a)
    c1 = nd.transfer(lay, t, [lay.x(5), lay.x(10)], [lay.x(6)], (5, 10))
    assert c1.ivs[lay.y((5, 10))][0] >= 1
    assert c1.ivs[lay.z((5, 10))] == (1, 1)
    twice = nd.transfer(lay, c1, (), (), (5, 10))
    assert twice.ivs[lay.y((5, 10))][0] >= 2
    assert nd.transfer(lay, nd.bottom(lay), (), (), (5, 10)).is_bottom


# -- entailment ---------------------------------------------------------------


def test_entails_examples():
    lay, a = walkthrough_element()
    q = {lay.x(2): 1, lay.x(6): 1, lay.x(10): 1}
    assert nd.entails(a, q, 1)
    top = num_make(lay, [(0, INF)] * lay.size, [])
    assert not nd.entails(top, {lay.x(1): 1}, 0)
    lay2 = layout_of(2)
    b = num_make(
        lay2,
        [(0, 2), (0, 2)] + [(0, INF)] * (lay2.size - 2),
        [(((lay2.x(1), 1), (lay2.x(2), 1)), 2)],
    )
    assert nd.entails(b, {lay2.x(1): 1, lay2.x(2): 1}, 2)
    assert not nd.entails(b, {lay2.x(1): 1, lay2.x(2): 1}, 1)


def test_entails_equality_both_sides():
    lay, a = walkthrough_element()
    q = {lay.x(2): 1, lay.x(6): 1, lay.x(10): 1, lay.y((1, 13)): -1}
    assert nd.entails(a, q, 0)
    assert nd.entails(a, {i: -c for i, c in q.items()}, 0)


def test_entails_uses_flag_couplings():
    lay = layout_of(1, pairs=[(1, 1)])
    # y bounded, z open: z <= min(1, y) comes from the flag semantics
    ivs = [(0, 0)] * 1 + [(0, 0), (0, INF)]
    elem = nd.NumElem(lay, False, tuple(ivs), ())
    assert nd.entails(elem, {lay.z((1, 1)): 1}, 0)


def test_entails_never_unsound_on_samples():
    rng = random.Random(3)
    lay = layout_of(3)
    for _ in range(60):
        pts = [
            tuple(rng.randrange(3) for _ in range(lay.size)) for _ in range(3)
        ]
        elem = nd.join(
            lay,
            [
                num_make(lay, [(v, v) for v in p], [(((i, 1),), p[i]) for i in range(lay.size)])
                for p in pts
            ],
        )
        expr = {i: rng.randrange(-2, 3) for i in range(lay.size)}
        true_max = max(sum(expr.get(i, 0) * p[i] for i in range(lay.size)) for p in pts)
        if nd.entails(elem, expr, true_max - 1):
            pytest.fail(f"unsound entailment: {pts} {expr}")
        assert nd.entails(elem, expr, true_max + 7) or any(
            hi is INF and expr.get(i, 0) > 0 for i, (lo, hi) in enumerate(elem.ivs)
        )


# -- affine hull vs brute force ------------------------------------------------


def test_affine_hull_matches_brute_force_span():
    rng = random.Random(2026)
    lay = layout_of(4)
    dim = lay.size
    box = list(product(range(4), repeat=4))
    for trial in range(1000):
        k = rng.choice((1, 2, 3))
        pts = [tuple(rng.randrange(4) for _ in range(4)) for _ in range(k)]
        systems = [
            nd.affine_from_rows([(((i, 1),), p[i]) for i in range(4)]) for p in pts
        ]
        hull = nd._generator_hull([(s, {}) for s in systems], [0, 1, 2, 3])
        for q in rng.sample(box, 40):
            expected = in_affine_span(pts, q)
            got = satisfies_rows(hull, q)
            assert got == expected, (pts, q)


def test_affine_hull_matches_reference_with_free_variables():
    # consistent systems that leave variables free, each through a point of
    # its own; the hull must be the reference's rows exactly
    rng = random.Random(2027)
    for trial in range(600):
        n = rng.randint(2, 7)
        systems = []
        for _ in range(rng.randint(2, 4)):
            point = [rng.randrange(4) for _ in range(n)]
            raw = []
            for _ in range(rng.randrange(n)):
                terms = tuple(
                    (i, c) for i in range(n) if (c := rng.choice((-2, -1, 0, 0, 1, 2)))
                )
                raw.append((terms, sum(c * point[i] for i, c in terms)))
            systems.append(nd.affine_from_rows(raw))
        hull = nd._generator_hull([(s, {}) for s in systems], list(range(n)))
        assert hull == ref.affine_hull(systems), (trial, systems)


def test_reduction_preserves_gamma_on_boxes():
    rng = random.Random(5)
    lay = layout_of(3)
    n = lay.size
    for _ in range(120):
        ivs = [(rng.randrange(2), rng.randrange(2, 4)) for _ in range(n)]
        rows = []
        for _ in range(rng.randrange(3)):
            terms = tuple(
                (i, rng.randrange(-2, 3)) for i in sorted(rng.sample(range(n), 2))
            )
            point = [rng.randint(lo, hi) for lo, hi in ivs]
            const = sum(c * point[i] for i, c in terms)
            rows.append((terms, const))
        elem = num_make(lay, ivs, rows)
        raw_points = [
            p
            for p in product(*[range(lo, hi + 1) for lo, hi in ivs])
            if satisfies_rows(rows, p)
        ]
        got = set()
        lo_hi = [(iv[0], iv[1]) for iv in ivs]
        for p in product(*[range(0, 4) for _ in range(n)]):
            if nd.contains_point(elem, dict(enumerate(p))):
                got.add(p)
        assert got == {tuple(p) for p in raw_points}


def test_add_sub_sound_on_boxes():
    # the image of every point that holds the consumed threads lies in the
    # transfer: consumed counters down by one, created up by one, y up by
    # one and z at 1
    rng = random.Random(9)
    lay = layout_of(3, pairs=[(1, 2)])
    n = lay.size
    yi, zi = lay.y((1, 2)), lay.z((1, 2))
    xs = [lay.x(l) for l in lay.labels]
    for _ in range(80):
        ivs = [(rng.randrange(2), rng.randrange(2, 4)) for _ in range(n)]
        elem = num_make(lay, ivs, [])
        consumed = {i for i in xs if rng.random() < 0.5}
        created = {i for i in xs if rng.random() < 0.5}
        step = nd.transfer(lay, elem, consumed, created, (1, 2))
        for p in product(*[range(lo, hi + 1) for lo, hi in ivs]):
            if any(p[i] < 1 for i in consumed):
                continue
            image = {i: v - (i in consumed) + (i in created) for i, v in enumerate(p)}
            image[yi] += 1
            image[zi] = 1
            assert nd.contains_point(step, image), (p, consumed, created)


_LAY3 = CountLayout((1, 2, 3), ())


@st.composite
def small_elements(draw):
    n = _LAY3.size
    ivs = []
    for _ in range(n):
        lo = draw(st.integers(0, 2))
        hi = draw(st.one_of(st.none(), st.integers(lo, 3)))
        ivs.append((lo, hi))
    rows = []
    for _ in range(draw(st.integers(0, 2))):
        terms = tuple(
            (i, draw(st.integers(-2, 2)))
            for i in sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2)))
        )
        anchor = [lo for lo, _ in ivs]
        const = sum(c * anchor[i] for i, c in terms)
        rows.append((terms, const))
    return num_make(_LAY3, ivs, rows)


def _box_points(limit=4):
    return [dict(enumerate(p)) for p in product(range(limit), repeat=_LAY3.size)]


@settings(max_examples=120, deadline=None)
@given(small_elements(), small_elements())
def test_join_and_widen_are_upper_bounds(a, b):
    j = nd.join(_LAY3, [a, b])
    w = nd.widen(_LAY3, a, b)
    assert num_leq(a, j) and num_leq(b, j)
    for p in _box_points():
        inside = nd.contains_point(a, p) or nd.contains_point(b, p)
        if inside:
            assert nd.contains_point(j, p)
            assert nd.contains_point(w, p)


@settings(max_examples=120, deadline=None)
@given(small_elements(), small_elements())
def test_leq_respects_membership(a, b):
    if num_leq(a, b):
        for p in _box_points():
            if nd.contains_point(a, p):
                assert nd.contains_point(b, p)


def test_primitives_scale_reasonably():
    small = layout_of(15, [(i, i + 1) for i in range(1, 8)])
    big = layout_of(30, [(i, i + 1) for i in range(1, 16)])
    for lay in (small, big):
        t0 = time.time()
        a = nd.chi(lay, (lay.x(1),))
        b = nd.chi(lay, (lay.x(2), lay.x(3)))
        j = nd.join(lay, [a, b])
        nd.transfer(lay, j, (), (lay.x(4),), (1, 2))
        nd.entails(j, {lay.x(1): 1, lay.x(2): 1}, 2)
        assert time.time() - t0 < 2.0
