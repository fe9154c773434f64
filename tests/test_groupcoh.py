"""Classifying-space cohomology rings: normal forms, pullbacks, freeness.

Depths in the truncation-sensitive checks follow the junk budget: reducing
a degree-(d+j) monomial through the relation gains p-valuation roughly
j / (p^{n(k-1)}(p^n - 1)), so caps control how deep a zero verdict can
reach.
"""

import math
import random
from types import SimpleNamespace

import pytest

import oracles
from helpers import (count_coeff_products, ms_eval_reference, ms_from_yseries,
                     ms_set, oc_to_elem)
from morava import groupcoh
from morava.cli import Builder
from morava.euler import (all_nontrivial_characters, euler_of_char,
                          reduced_euler, total_euler)
from morava.fgl import build_fgl
from morava.groupcoh import (AbelianPGroup, CohRing, GroupHom, RingElem,
                             aligned_quotient_shape, build_cohring, elem_add,
                             elem_eq_to, elem_is_zero_to, elem_mul,
                             elem_scale, normal_form, point_class, pullback,
                             series_in_elem, sound_basis_cap, sound_depth,
                             verify_free_over_subring, verify_rank)
from morava.coeff import CoeffContext, CoeffElem
from morava.padic import PrecisionError
from morava.series import ms_new, ser_mul, ser_new


@pytest.fixture(scope="module")
def fgl21():
    return build_fgl(2, 1, N=40, D=1, M=17)


@pytest.fixture(scope="module")
def fgl22():
    return build_fgl(2, 2, N=40, D=4, M=17)


@pytest.fixture(scope="module")
def ring2(fgl21):
    return build_cohring(AbelianPGroup(2, (1,)), fgl21, caps=(17,))


@pytest.fixture(scope="module")
def ring4(fgl21):
    return build_cohring(AbelianPGroup(2, (2,)), fgl21, caps=(17,))


def test_group_parsing():
    g = AbelianPGroup.from_orders(2, [4, 2])
    assert g.exps == (2, 1)
    assert g.rank == 2 and g.order == 8
    assert g.descriptor() == "4,2"
    with pytest.raises(ValueError):
        AbelianPGroup.from_orders(2, [6])
    with pytest.raises(ValueError):
        AbelianPGroup.from_orders(3, [4])
    with pytest.raises(ValueError):
        AbelianPGroup.from_orders(2, [1])
    assert AbelianPGroup(2, ()).descriptor() == "1"


def test_hom_validity_and_exponents():
    c2 = AbelianPGroup(2, (1,))
    c4 = AbelianPGroup(2, (2,))
    with pytest.raises(ValueError):
        GroupHom(c2, c4, [[1]])  # no order-4 image of an order-2 generator
    inc = GroupHom(c2, c4, [[2]])
    assert inc.char_exponents(0) == (1,)
    quo = GroupHom(c4, c2, [[1]])
    assert quo.char_exponents(0) == (2,)
    comp = quo.compose(inc)
    assert comp.mat == ((0,),)  # the composite is trivial
    ident = GroupHom.identity(c4)
    assert ident.compose(ident) == ident
    assert quo.compose(GroupHom.identity(c4)) == quo


def test_ring_ranks(fgl21, fgl22, ring2):
    assert ring2.rank == 2
    assert list(ring2.basis()) == [(0,), (1,)]
    r22 = build_cohring(AbelianPGroup(2, (1, 1)), fgl21)
    assert r22.rank == 4
    triv = build_cohring(AbelianPGroup(2, ()), fgl21)
    assert triv.rank == 1 and list(triv.basis()) == [()]
    r4n2 = build_cohring(AbelianPGroup(2, (2,)), fgl22)
    assert r4n2.rank == 16
    assert verify_rank(r4n2)["verdict"] == "PASS"


def test_build_cap_guards(fgl21):
    c4 = AbelianPGroup(2, (2,))
    with pytest.raises(ValueError):
        build_cohring(c4, fgl21, caps=(3,))
    with pytest.raises(ValueError):
        build_cohring(c4, fgl21, caps=(99,))
    with pytest.raises(ValueError):
        build_cohring(AbelianPGroup(3, (1,)), fgl21)


def test_c2_normal_form_frozen(ring2):
    # y^2 reduces to -2u^{-1}y plus maximal-ideal depth; iterating gives
    # the geometric pattern in -2u^{-1}, with u = 1 in the coefficients
    ctx = ring2.ctx
    row = ring2.table_row(0, 2)
    assert ctx.eq_to(row[1], ctx.from_int(-2), 3)
    if 0 in row:
        assert ctx.is_zero_to(row[0], 12)
    row3 = ring2.table_row(0, 3)
    assert ctx.eq_to(row3[1], ctx.from_int(4), 4)
    y = ring2.gen(0)
    sq = elem_mul(y, y)
    assert elem_eq_to(sq, RingElem(ring2, {(a,): c for a, c in row.items()}),
                      16)


def test_defining_relation_zero(fgl21, fgl22, ring2, ring4):
    rel2 = series_in_elem(ring2, fgl21.pk_series(1), ring2.gen(0))
    assert elem_is_zero_to(rel2, 12)
    rel4 = series_in_elem(ring4, fgl21.pk_series(2), ring4.gen(0))
    assert elem_is_zero_to(rel4, 5)
    r2n2 = build_cohring(AbelianPGroup(2, (1,)), fgl22, caps=(17,))
    rel = series_in_elem(r2n2, fgl22.pk_series(1), r2n2.gen(0))
    assert elem_is_zero_to(rel, 3)


def horner_in_elem(ring, s, x):
    """Horner's rule: one ring product per degree."""
    out = ring.const(s.c[s.M])
    for d in range(s.M - 1, -1, -1):
        out = elem_add(elem_mul(out, x), ring.const(s.c[d]))
    return out


def test_series_in_elem_matches_horner_in_few_products(fgl21, ring4,
                                                       monkeypatch):
    # the Paterson-Stockmeyer split takes at most 3 * ceil(sqrt(M + 1))
    # ring products, its power ladders included, where Horner takes M
    products = []
    real = groupcoh.elem_mul

    def counted(a, b):
        products.append(None)
        return real(a, b)

    y = ring4.gen(0)
    ctx = ring4.ctx
    xs = [y, elem_add(ring4.one(), elem_scale(ctx.from_int(3), y)),
          elem_mul(y, y)]
    for s in (fgl21.pk_series(1), fgl21.pk_series(2), fgl21.m_series(3)):
        bound = 3 * (math.isqrt(s.M) + 1)  # 3 * ceil(sqrt(M + 1))
        assert bound < s.M
        for x in xs:
            ref = horner_in_elem(ring4, s, x)
            monkeypatch.setattr(groupcoh, "elem_mul", counted)
            del products[:]
            got = series_in_elem(ring4, s, x)
            monkeypatch.undo()
            assert elem_eq_to(got, ref, 16)
            assert len(products) <= bound


def test_elem_arithmetic(ring4):
    ctx = ring4.ctx
    rng = random.Random(7)

    def rand_elem():
        coord = {}
        for _ in range(3):
            e = (rng.randrange(4),)
            coord[e] = ctx.from_int(rng.randrange(1, 50))
        return RingElem(ring4, coord)

    one = ring4.one()
    for _ in range(5):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert elem_eq_to(elem_mul(a, one), a, 16)
        assert elem_eq_to(elem_mul(a, b), elem_mul(b, a), 12)
        assert elem_eq_to(elem_mul(elem_mul(a, b), c),
                          elem_mul(a, elem_mul(b, c)), 12)
        lhs = elem_mul(a, elem_add(b, c))
        rhs = elem_add(elem_mul(a, b), elem_mul(a, c))
        assert elem_eq_to(lhs, rhs, 12)
        assert elem_is_zero_to(elem_add(a, elem_scale(ctx.from_int(-1), a)),
                               16)
        assert elem_eq_to(elem_scale(ctx.from_int(3), a),
                          elem_add(a, elem_add(a, a)), 16)
        assert elem_eq_to(elem_scale(ctx.from_int(3), a),
                          elem_mul(ring4.const(ctx.from_int(3)), a), 16)


def ms_normal_form(ring, A):
    """Normal form of a multiseries, term by term in sorted order: the
    reduction normal_form applies to one-variable series."""
    out = {}
    for exps, c in sorted(A.items(), key=lambda term: term[0]):
        groupcoh._nf_accumulate(ring, out, exps, c)
    return RingElem(ring, out)


def test_normal_form_idempotent_and_multiplicative(ring4):
    ctx = ring4.ctx
    rng = random.Random(11)

    def rand_series(maxdeg):
        A = ser_new(ctx, ring4.caps[0])
        for _ in range(4):
            A.c[rng.randrange(maxdeg + 1)] = ctx.from_int(rng.randrange(1, 30))
        return A

    for _ in range(4):
        A, B = rand_series(8), rand_series(8)
        direct = normal_form(ring4, ser_mul(A, B), 0)
        split = elem_mul(normal_form(ring4, A, 0), normal_form(ring4, B, 0))
        assert elem_eq_to(direct, split, 10)
    # a series already below the relation degree is fixed by nf
    low = rand_series(3)
    nf = normal_form(ring4, low, 0)
    assert nf.coord == {(d,): c for d, c in enumerate(low.c) if c.t}


def test_normal_form_cuts_at_the_ring_cap(fgl21):
    # the m-series past the cap is dropped, as a multiseries at the ring's
    # caps would drop it
    ring = build_cohring(AbelianPGroup(2, (2,)), fgl21, caps=(9,))
    s = fgl21.m_series(3)
    nf = normal_form(ring, s, 0)
    assert nf == ms_normal_form(ring, ms_from_yseries(s, 1, ring.caps, 0))
    assert any(c.t for c in s.c[ring.caps[0] + 1:])


def test_pullback_frozen_maps(fgl21, ring2, ring4):
    quo = GroupHom(AbelianPGroup(2, (2,)), AbelianPGroup(2, (1,)), [[1]])
    pq = pullback(quo, ring2, ring4)
    via_series = series_in_elem(ring4, fgl21.pk_series(1), ring4.gen(0))
    assert elem_eq_to(pq.gen_images[0], via_series, 12)

    inc = GroupHom(AbelianPGroup(2, (1,)), AbelianPGroup(2, (2,)), [[2]])
    pi = pullback(inc, ring4, ring2)
    assert elem_eq_to(pi.gen_images[0], ring2.gen(0), 16)

    ident = GroupHom.identity(AbelianPGroup(2, (2,)))
    pid = pullback(ident, ring4, ring4)
    assert elem_eq_to(pid.gen_images[0], ring4.gen(0), 16)
    probe = elem_add(ring4.one(),
                     elem_scale(ring4.ctx.from_int(3), ring4.gen(0)))
    assert elem_eq_to(pid.apply(probe), probe, 16)


def test_pullback_kills_relation_and_composite(fgl21, ring2, ring4):
    quo = GroupHom(AbelianPGroup(2, (2,)), AbelianPGroup(2, (1,)), [[1]])
    inc = GroupHom(AbelianPGroup(2, (1,)), AbelianPGroup(2, (2,)), [[2]])
    pq = pullback(quo, ring2, ring4)
    pi = pullback(inc, ring4, ring2)
    # image of the target relation dies in the source ring
    back = series_in_elem(ring4, fgl21.pk_series(1), pq.gen_images[0])
    assert elem_is_zero_to(back, 5)
    # the composite hom is trivial, structurally and through either route
    comp = quo.compose(inc)
    pcomp = pullback(comp, ring2, ring2)
    assert pcomp.gen_images[0].coord == {}
    chained = pi.apply(pq.gen_images[0])
    assert elem_is_zero_to(chained, 5)


CORPUS = [
    ((1,), (17,), 12),
    ((2,), (17,), 6),
    ((1, 1), (9, 9), 6),
    ((2, 1), (9, 9), 2),
    ((1, 1, 1), (5, 5, 5), 3),
]


@pytest.fixture(scope="module")
def corpus_rings(fgl21):
    return {exps: build_cohring(AbelianPGroup(2, exps), fgl21, caps=caps)
            for exps, caps, _ in CORPUS}


def rand_hom(rng, src, dst):
    """A random homomorphism: each entry a random multiple of the least
    power of p that respects the generator orders."""
    p = src.p
    mat = []
    for ki in dst.exps:
        row = []
        for kj in src.exps:
            step = p ** max(0, ki - kj)
            row.append(step * rng.randrange(0, p ** kj))
        mat.append(row)
    return GroupHom(src, dst, mat)


def test_pullback_functoriality_corpus(corpus_rings):
    rng = random.Random(2026)
    rings = corpus_rings
    depth_of = {exps: depth for exps, _, depth in CORPUS}
    checked = 0
    while checked < 12:
        ea = rng.choice(CORPUS)[0]
        eb = rng.choice(CORPUS)[0]
        ec = rng.choice(CORPUS)[0]
        A, B, C = (AbelianPGroup(2, e) for e in (ea, eb, ec))
        g = rand_hom(rng, A, B)
        f = rand_hom(rng, B, C)
        pf = pullback(f, rings[ec], rings[eb])
        pg = pullback(g, rings[eb], rings[ea])
        pfg = pullback(f.compose(g), rings[ec], rings[ea])
        depth = min(depth_of[ea], depth_of[eb], depth_of[ec])
        for i in range(C.rank):
            assert elem_eq_to(pfg.gen_images[i], pg.apply(pf.gen_images[i]),
                              depth), (ea, eb, ec, f.mat, g.mat, i)
        checked += 1


# Ring products sum the raw products per exponent tuple and reduce each
# tuple once; pullbacks group coordinates by the last exponent.  The
# references are the per-pair product and the per-coordinate pullback
# loop these replaced.

def per_pair_mul(a, b):
    """Each pair of basis monomials reduced on its own."""
    ring = a.ring
    ctx = ring.ctx
    out = {}
    for A in sorted(a.coord):
        for B in sorted(b.coord):
            c = ctx.mul(a.coord[A], b.coord[B])
            if not c.t:
                continue
            groupcoh._nf_accumulate(
                ring, out, tuple(x + y for x, y in zip(A, B)), c)
    return RingElem(ring, out)


def per_coordinate_apply(rmap, x):
    """One full product per coordinate and nonzero exponent, with powers of
    the generator images taken by per-pair products."""
    cod = rmap.cod
    pows = {}

    def power(i, e):
        if (i, e) not in pows:
            pows[i, e] = (rmap.gen_images[i] if e == 1 else
                          per_pair_mul(power(i, e - 1), rmap.gen_images[i]))
        return pows[i, e]

    out = cod.zero()
    for exps in sorted(x.coord):
        term = cod.const(x.coord[exps])
        for i, e in enumerate(exps):
            if e:
                term = per_pair_mul(term, power(i, e))
        out = elem_add(out, term)
    return out


def rand_nf(rng, ring, size):
    """Random normal-form element on `size` basis monomials; coefficients
    mix v-monomials and p-divisible scalars."""
    ctx = ring.ctx
    coord = {}
    for exps in rng.sample(list(ring.basis()), min(size, ring.rank)):
        c = ctx.zero()
        for _ in range(rng.randrange(1, 3)):
            vc = rng.randrange(ctx.ncodes)
            if ctx.vtotal[vc] > ctx.D:
                continue
            m = rng.randrange(1, 10 ** 6) * ctx.p ** rng.randrange(3)
            c = ctx.add(c, ctx.from_scalar(ctx.padic.from_int(m), vc))
        coord[exps] = c
    return RingElem(ring, coord)


def assert_coeff_same_as_reference(gc, rc, key):
    """Same terms and valuations; every unit agrees with
    the reference to the reference's trusted digits and keeps at least as
    many, and every zero marker is at least as deep."""
    padic = rc.ctx.padic
    assert set(gc.t) == set(rc.t), key
    for term, r in rc.t.items():
        gv, gu, gk = gc.t[term]
        rv, ru, rk = r
        if ru == 0:
            assert gu == 0 and gv >= rv, (key, term)
            continue
        assert gv == rv and gk >= rk, (key, term)
        assert (gu - ru) % padic.ppow(rk) == 0, (key, term)


def assert_same_as_reference(got, ref):
    """Same coordinates, each coordinate as in
    assert_coeff_same_as_reference.  Summing before multiplying can only
    keep more digits: a product's relative precision is the lesser of its
    factors', and the sum of two scalars is pinned to the lesser absolute
    one."""
    assert set(got.coord) == set(ref.coord)
    for key, rc in ref.coord.items():
        assert_coeff_same_as_reference(got.coord[key], rc, key)


def products_first_accumulate(ring, out, exps, c):
    """The reduction of one monomial with every product formed before the
    first sum: the order whose results and errors _nf_accumulate keeps.
    Coordinates keep only nonempty coefficients, and an empty product is
    dropped."""
    ctx = ring.ctx
    parts = [((), c)]
    for i, e in enumerate(exps):
        if e < ring.wdegs[i]:
            parts = [(key + (e,), val) for key, val in parts]
            continue
        row = sorted(ring.table_row(i, e).items())
        nxt = []
        for key, val in parts:
            for a, t in row:
                prod = ctx.mul(val, t)
                if prod.t:
                    nxt.append((key + (a,), prod))
        parts = nxt
    for key, val in parts:
        cur = out.get(key)
        s = val if cur is None else ctx.add(cur, val)
        if s.t:
            out[key] = s
        elif cur is not None:
            del out[key]


def rand_short_coeff(rng, ctx):
    """One to three terms on the v-codes of the context at valuations 0-2
    and nearly full precision, so that sums cancel digits often enough to
    meet a high floor, within one product as well as across products."""
    t = {}
    for _ in range(rng.randint(1, 3)):
        prec = rng.randint(ctx.N - 1, ctx.N)
        unit = rng.randrange(1, ctx.p ** prec)
        while unit % ctx.p == 0:
            unit = rng.randrange(1, ctx.p ** prec)
        t[rng.randrange(ctx.ncodes)] = (rng.randint(0, 2), unit, prec)
    return CoeffElem(ctx, t)


def test_nf_accumulate_matches_products_first_order():
    # the same stored coefficients and, when a floor is hit, the same
    # PrecisionError as forming every product before the first sum; the
    # input coefficient is never written to
    outcomes = {"ok": 0, "error": 0}
    for p, N, floor in [(2, 7, 6), (3, 5, 4), (2, 12, 9)]:
        # height 2 with v_1 under the cap: two terms of a product can land
        # on one key
        ctx = CoeffContext(p, 2, N=N, D=2, floor=floor)
        rng = random.Random(100 * p + N)
        for _ in range(150):
            wdegs = (rng.randint(1, 3), rng.randint(1, 3))
            relred = [{b: rand_short_coeff(rng, ctx) for b in range(d)}
                      for d in wdegs]
            ring = CohRing(None, SimpleNamespace(ctx=ctx), (9, 9), wdegs,
                           relred)
            outs = [{}, {}]
            inputs = []
            for _ in range(4):
                exps = tuple(rng.randint(0, 2 * d) for d in wdegs)
                c = rand_short_coeff(rng, ctx)
                inputs.append((c, list(c.t.items())))
                res = []
                for fn, out in zip((products_first_accumulate,
                                    groupcoh._nf_accumulate), outs):
                    try:
                        fn(ring, out, exps, c)
                    except PrecisionError as e:
                        res.append(("error", str(e), e.needed_extra))
                    else:
                        res.append(("ok", [(k, list(v.t.items()))
                                           for k, v in out.items()]))
                assert res[0] == res[1]
                outcomes[res[0][0]] += 1
                if res[0][0] == "error":
                    break
            assert all(list(c.t.items()) == t for c, t in inputs)
    assert min(outcomes.values()) > 100


def test_elem_mul_matches_per_pair_product(fgl21, fgl22, monkeypatch):
    rings = [build_cohring(AbelianPGroup(2, (1,)), fgl21, caps=(17,)),
             build_cohring(AbelianPGroup(2, (2, 1)), fgl22, caps=(17, 9)),
             build_cohring(AbelianPGroup(2, (2, 1, 1)), fgl21,
                           caps=(9, 5, 5))]
    reduced = []
    real = groupcoh._nf_accumulate

    def recorded(ring, out, exps, c):
        reduced.append(exps)
        real(ring, out, exps, c)

    rng = random.Random(606)
    exact = 0
    for ring in rings:
        for _ in range(8):
            a, b = rand_nf(rng, ring, 10), rand_nf(rng, ring, 10)
            ref = per_pair_mul(a, b)
            monkeypatch.setattr(groupcoh, "_nf_accumulate", recorded)
            del reduced[:]
            got = elem_mul(a, b)
            monkeypatch.undo()
            assert_same_as_reference(got, ref)
            exact += got.coord == ref.coord
            # one reduction per distinct exponent tuple, in sorted order
            assert reduced == sorted(set(reduced))
            assert set(reduced) <= {tuple(x + y for x, y in zip(A, B))
                                    for A in a.coord for B in b.coord}
    # on these seeds every one of the 24 products keeps exactly the
    # per-pair digits
    assert exact == 24


def test_ring_map_apply_matches_per_coordinate_loop(corpus_rings,
                                                    monkeypatch):
    rng = random.Random(2026)
    rings = corpus_rings
    products = []
    real = groupcoh.elem_mul

    def counted(a, b):
        products.append(None)
        return real(a, b)

    for _ in range(16):
        ea = rng.choice(CORPUS)[0]
        eb = rng.choice(CORPUS)[0]
        ec = rng.choice(CORPUS)[0]
        A, B, C = (AbelianPGroup(2, e) for e in (ea, eb, ec))
        pf = pullback(rand_hom(rng, B, C), rings[ec], rings[eb])
        pg = pullback(rand_hom(rng, A, B), rings[eb], rings[ea])
        probes = list(pf.gen_images) + [rand_nf(rng, rings[eb], 8)]
        for x in probes:
            ref = per_coordinate_apply(pg, x)
            last = len(eb) - 1
            for exps in x.coord:
                for i, e in enumerate(exps):
                    pg.power(i, e)
            monkeypatch.setattr(groupcoh, "elem_mul", counted)
            del products[:]
            got = pg.apply(x)
            monkeypatch.undo()
            assert got.coord == ref.coord
            # one product per distinct nonzero last exponent, plus one per
            # further nonzero exponent past the first among the others
            lasts = {exps[last] for exps in x.coord} - {0}
            rest = sum(max(0, sum(1 for e in exps[:last] if e) - 1)
                       for exps in x.coord)
            assert len(products) == len(lasts) + rest


# Character classes are summed in the ring: each further factor x is folded
# in as sum_i acc^i * (sum_j F_ij x^j), with exact ring products.  The
# reference is the per-term chain over multiseries at the ring's caps,
# F(acc, s) on the reference route of helpers.ms_eval_reference, reduced
# at the end.  The two sum different
# truncations, so they agree to the junk-sound depth of the caps, not byte
# for byte.

def per_term_class(ring, tvals):
    fgl = ring.fgl
    r = ring.group.rank
    terms = []
    for j, t in enumerate(tvals):
        t %= fgl.p ** ring.group.exps[j]
        if t:
            terms.append(ms_from_yseries(fgl.m_series(t), r, ring.caps, j))
    if not terms:
        return ms_new(ring.ctx, r, ring.caps)
    acc = terms[0]
    for term in terms[1:]:
        acc = ms_eval_reference(fgl.F, [acc, term])
    return acc


# Every class of two or more nonzero factors that `verify paper-suite`
# forms, by law (p, n, D, N, M), group exponents, caps and t-vectors.
SUITE_CLASSES = (
    ((2, 1, 1, 16, 4), (1, 1), (4, 4), ((1, 1),)),
    ((2, 1, 1, 24, 4), (1, 1), (4, 4), ((1, 1),)),
    ((2, 1, 1, 24, 12), (2, 1), (12, 6), ((2, 1),)),
    ((2, 1, 1, 25, 6), (1, 1), (6, 6), ((1, 1),)),
    ((2, 1, 1, 26, 8), (2, 1), (8, 4), ((2, 1),)),
    ((2, 1, 1, 26, 9), (1, 1), (5, 5), ((1, 1),)),
    ((2, 1, 1, 26, 9), (1, 1), (9, 9), ((1, 1),)),
    ((2, 1, 1, 26, 9), (2, 1), (9, 5), ((2, 1),)),
    ((2, 2, 12, 35, 28), (1, 1), (28, 28), ((1, 1),)),
    ((3, 1, 1, 16, 7), (1, 1), (7, 7), ((1, 1), (1, 2), (2, 1))),
    ((3, 1, 1, 24, 7), (1, 1), (7, 7), ((1, 1), (1, 2), (2, 1), (2, 2))),
    ((3, 1, 1, 24, 11), (1, 1), (11, 11), ((1, 1), (1, 2), (2, 1), (2, 2))),
    # `euler --group 2,2,2`; the suite forms no three-factor class
    ((2, 1, 1, 41, 6), (1, 1, 1), (6, 6, 6),
     ((0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1))),
)

# The further classes of `verify paper-suite --large`, less those on the
# C9 x C3 ring at p=3, n=2, caps (242, 26), where the reference alone
# takes minutes.
LARGE_CLASSES = (
    ((2, 2, 1, 24, 11), (1, 1), (11, 11), ((1, 1),)),
    ((2, 2, 1, 33, 47), (2, 1), (47, 11), ((2, 1),)),
    ((2, 3, 1, 24, 23), (1, 1), (23, 23), ((1, 1),)),
    ((2, 3, 1, 32, 23), (1, 1), (23, 23), ((1, 1),)),
    ((3, 1, 1, 24, 21), (2, 1), (21, 7), ((3, 1), (3, 2), (6, 1), (6, 2))),
    ((3, 1, 1, 33, 33), (2, 1), (33, 11), ((3, 1), (3, 2), (6, 1), (6, 2))),
    ((3, 1, 1, 41, 33), (2, 1), (33, 11), ((3, 1), (3, 2), (6, 1), (6, 2))),
    ((3, 2, 1, 26, 26), (1, 1), (26, 26), ((1, 1), (1, 2), (2, 1), (2, 2))),
)


def classes_against_per_term_chain(table):
    """(compared, total) over the classes of a shape table, after checking
    each against the per-term chain to the junk-sound depth of its caps.
    A class is compared when that depth is positive."""
    laws = {}
    compared = total = 0
    for law, exps, caps, tvecs in table:
        p, n, D, N, M = law
        depth = sound_depth(p, n, exps, D, caps)
        total += len(tvecs)
        if not depth:
            continue
        if law not in laws:
            laws[law] = build_fgl(p, n, N=N, D=D, M=M)
        ring = build_cohring(AbelianPGroup(p, exps), laws[law], caps=caps)
        for tvals in tvecs:
            ref = ms_normal_form(ring, per_term_class(ring, tvals))
            assert elem_eq_to(point_class(ring, tvals), ref, depth), \
                (law, exps, caps, tvals)
            compared += 1
    return compared, total


def test_point_class_matches_per_term_chain_on_suite_classes():
    # the one class left out is the prop-3.3 one at p=2, n=2, caps
    # (28, 28), sound to no digit under D=12; it has its own test below
    assert classes_against_per_term_chain(SUITE_CLASSES) == (23, 24)


def test_point_class_matches_per_term_chain_on_large_classes():
    assert classes_against_per_term_chain(LARGE_CLASSES) == (20, 20)


@pytest.mark.parametrize("p, n, D", [(2, 1, 1), (2, 2, 1), (3, 1, 1)])
def test_point_class_matches_per_term_chain_on_random_classes(p, n, D):
    # factors whose relation has degree at most 9, each capped where it is
    # junk-sound to one or two digits, within the law's cap
    M = 12
    law = build_fgl(p, n, N=40, D=D, M=M)
    rng = random.Random(1978 + 10 * p + n)
    choices = [(k, sound_basis_cap(p, n, k, D, t)) for k in (1, 2, 3)
               for t in (1, 2) if p ** (n * k) <= 9]
    choices = [kc for kc in choices if kc[1] <= M]
    for rank in (2, 2, 2, 2, 3, 3, 3, 3):
        exps, caps = zip(*(rng.choice(choices) for _ in range(rank)))
        ring = build_cohring(AbelianPGroup(p, exps), law, caps=caps)
        tvals = tuple(rng.randrange(1, p ** k) for k in exps)
        depth = sound_depth(p, n, exps, D, caps)
        assert depth >= 1
        ref = ms_normal_form(ring, per_term_class(ring, tvals))
        assert elem_eq_to(point_class(ring, tvals), ref, depth), \
            (exps, caps, tvals)


def test_point_class_matches_exact_rationals():
    # F([3](y_1), [1](y_2)) on C4 x C2 at p=2, n=1, caps (4, 4), summed in Q
    # from the exact two-variable law with each series cut at its cap, as
    # the ring cuts it, and the products left uncut; M = 8 = 4 + 4 keeps
    # every term of F the caps reach.  Ring products are exact, so only
    # the p-adic precision separates the two.
    law = build_fgl(2, 1, N=32, D=1, M=8)
    ctx = law.ctx
    ring = build_cohring(AbelianPGroup(2, (2, 1)), law, caps=(4, 4))
    got = point_class(ring, (3, 1))
    F = oracles.fgl_2var(2, 1, 4, 4)
    top = 16
    x = oracles.m_series(2, 1, 3, 4) + oracles.ser_zero(top - 4)
    y = oracles.m_series(2, 1, 1, 4) + oracles.ser_zero(top - 4)
    ref = {}
    xi = [oracles.qc_const(1, 1)] + oracles.ser_zero(top - 1)
    for i in range(5):
        yj = [oracles.qc_const(1, 1)] + oracles.ser_zero(top - 1)
        for j in range(5):
            for a, ca in enumerate(xi):
                for b, cb in enumerate(yj):
                    c = oracles.qc_mul(F[i][j], oracles.qc_mul(ca, cb))
                    ref[a, b] = oracles.qc_add(ref.get((a, b), {}), c)
            yj = oracles.ser_mul(yj, y)
        xi = oracles.ser_mul(xi, x)
    A = ms_new(ctx, 2, (top, top))
    for key, oc in ref.items():
        ms_set(A, key, oc_to_elem(ctx, oc, sum(key) - 1))
    want = ms_normal_form(ring, A)
    depth = min(v + k for e in got.coord.values()
                for v, _, k in e.t.values())
    assert depth >= 24
    assert elem_eq_to(got, want, depth)


def count_coeff_muls(monkeypatch, fn, *args):
    calls = count_coeff_products(monkeypatch)
    out = fn(*args)
    monkeypatch.undo()
    return out, len(calls)


def test_point_class_coefficient_work_pinned(monkeypatch):
    # the prop-3.3 class at p=2, n=2 on C2 x C2, caps (28, 28); the law and
    # the m-series are built first, so only the reductions of the two
    # factors and the sum are counted, against the per-term chain.  The
    # caps are junk-sound to no digit under D=12, yet the two agree to 26
    # of the 35 digits.  Ring coordinates that kept empty, flagged
    # coefficients took 2817 products.  [1](y) is y exactly, so both factor
    # classes are the generators: the per-term chain multiplies monomials
    # (155883 products when [1](y) was solved and carried zero markers),
    # and point_class reduces the powers of y_1 (2799 then).  The chain
    # takes 866 products on the reference route of helpers, which forms
    # each y_1^i * y_2^j and each power by a product; the tuple
    # substitution of series.py that it replaces moved keys there and
    # took 488
    law = build_fgl(2, 2, N=35, D=12, M=28)
    law.F, law.m_series(1)
    ring = build_cohring(AbelianPGroup(2, (1, 1)), law, caps=(28, 28))
    assert sound_depth(2, 2, (1, 1), 12, ring.caps) == 0
    got, calls = count_coeff_muls(monkeypatch, point_class, ring, (1, 1))
    ref, ref_calls = count_coeff_muls(monkeypatch, per_term_class, ring,
                                      (1, 1))
    assert elem_eq_to(got, ms_normal_form(ring, ref), 26)
    assert (calls, ref_calls) == (1656, 866)


def test_total_euler_coefficient_work_pinned(monkeypatch):
    # total class of C4 x C2 at p=2, n=2, D=4, default caps (33, 9), on the
    # law the retry loop settles at (N=33); reducing per pair took 121000
    # coefficient products, summing each class per term of F 68350, and
    # reducing [2](y_1) and [1](y_2) again for the character (1, 1), not
    # taking them from the ring's memo, 24519, keeping empty, flagged
    # coefficients in ring coordinates 24231, and solving [1](y), which
    # carried zero markers, in place of taking y exactly 23655, for the same
    # coordinates
    group = AbelianPGroup(2, (2, 1))

    def settle(f):
        total_euler(build_cohring(group, f))
        return f

    law = Builder(SimpleNamespace(cache_dir=None, N_req=16)).run(
        2, 2, 4, 33, settle)
    ring = build_cohring(group, law)
    assert ring.caps == (33, 9) and law.ctx.N == 33
    total, calls = count_coeff_muls(monkeypatch, total_euler, ring)
    assert len(total.coord) == 45
    assert calls == 19996
    ref = ring.one()
    for ch in all_nontrivial_characters(group):
        cls = point_class(ring, ch.as_hom().char_exponents(0))
        ref = per_pair_mul(ref, cls)
    assert total.coord == ref.coord


def test_aligned_shape_detection():
    c2 = AbelianPGroup(2, (1,))
    v = AbelianPGroup(2, (1, 1))
    proj = GroupHom(v, c2, [[1, 0]])
    assert aligned_quotient_shape(proj) == {0: 0}
    skew = GroupHom(v, c2, [[1, 1]])
    assert aligned_quotient_shape(skew) is None
    c4 = AbelianPGroup(2, (2,))
    inc = GroupHom(c2, c4, [[2]])
    assert aligned_quotient_shape(inc) is None  # entry divisible by p


def test_verify_free_over_subring(fgl21):
    p2 = AbelianPGroup(2, (1,))
    p4 = AbelianPGroup(2, (2,))
    v4 = AbelianPGroup(2, (1, 1))
    m42 = AbelianPGroup(2, (2, 1))
    rings = {g.exps: build_cohring(g, fgl21) for g in (p2, p4, v4, m42)}

    rep = verify_free_over_subring(GroupHom(p4, p2, [[1]]),
                                   rings[(2,)], rings[(1,)])
    assert rep["verdict"] == "PASS" and rep["witness"]["rank"] == 2

    rep = verify_free_over_subring(GroupHom.identity(p2),
                                   rings[(1,)], rings[(1,)])
    assert rep["verdict"] == "PASS" and rep["witness"]["rank"] == 1

    rep = verify_free_over_subring(GroupHom(v4, p2, [[1, 0]]),
                                   rings[(1, 1)], rings[(1,)])
    assert rep["verdict"] == "PASS" and rep["witness"]["rank"] == 2
    assert rep["witness"]["factors"][1]["block"] == "identity"

    quo = GroupHom(m42, v4, [[1, 0], [0, 1]])
    rep = verify_free_over_subring(quo, rings[(2, 1)], rings[(1, 1)])
    assert rep["verdict"] == "PASS" and rep["witness"]["rank"] == 2

    with pytest.raises(ValueError):
        verify_free_over_subring(GroupHom(v4, p2, [[1, 1]]),
                                 rings[(1, 1)], rings[(1,)])


def test_elementary_quotient():
    g = AbelianPGroup(2, (2, 1))
    target, q = g.elementary_quotient()
    assert target.exps == (1, 1)
    assert q.mat == ((1, 0), (0, 1))
    assert q.char_exponents(0) == (2, 0)
    assert q.char_exponents(1) == (0, 1)


def test_trivial_group_ring(fgl21):
    triv = build_cohring(AbelianPGroup(2, ()), fgl21)
    one = triv.one()
    assert elem_eq_to(elem_mul(one, one), one, 16)
    A = ms_new(triv.ctx, 0, ())
    ms_set(A, (), triv.ctx.from_int(5))
    nf = ms_normal_form(triv, A)
    assert elem_eq_to(nf, elem_scale(triv.ctx.from_int(5), one), 16)


# Relation memo: each law prepares the relation of a (k, cap) factor once.

C4xC2 = AbelianPGroup(2, (2, 1))


def law21():
    return build_fgl(2, 1, N=40, D=1, M=9)


@pytest.fixture
def prepares(monkeypatch):
    """Degree caps of the series handed to Weierstrass preparation, one
    entry per call."""
    calls = []
    real = groupcoh.weierstrass_prepare

    def counted(s, d):
        calls.append(s.M)
        return real(s, d)

    monkeypatch.setattr(groupcoh, "weierstrass_prepare", counted)
    return calls


def test_relation_prepared_once_per_law_and_cap(prepares):
    law = law21()
    first = build_cohring(C4xC2, law)
    again = build_cohring(C4xC2, law)
    assert sorted(prepares) == [5, 9]
    assert all(a is b for a, b in zip(first.relred, again.relred))
    assert all(a is not b for a, b in zip(first.tables, again.tables))
    fresh = build_cohring(C4xC2, law21())
    assert len(prepares) == 4
    for ring in (first, again):
        assert ring.relred == fresh.relred


def test_relation_prepared_again_for_new_cap_or_law(prepares):
    law = law21()
    build_cohring(C4xC2, law, caps=(9, 5))
    assert len(prepares) == 2
    build_cohring(C4xC2, law, caps=(8, 5))
    assert prepares[2:] == [8]
    build_cohring(C4xC2, law21(), caps=(8, 5))
    assert len(prepares) == 5


@pytest.mark.parametrize("exc", [PrecisionError, ArithmeticError])
def test_failed_preparation_is_not_cached(monkeypatch, exc):
    calls = []
    real = groupcoh.weierstrass_prepare

    def flaky(s, d):
        calls.append(s.M)
        if len(calls) == 1:
            raise exc("starved")
        return real(s, d)

    monkeypatch.setattr(groupcoh, "weierstrass_prepare", flaky)
    law = law21()
    group = AbelianPGroup(2, (1,))
    with pytest.raises(exc):
        build_cohring(group, law)
    ring = build_cohring(group, law)
    assert len(calls) == 2
    assert build_cohring(group, law).relred[0] is ring.relred[0]
    assert len(calls) == 2
    assert ring.relred == build_cohring(group, law21()).relred


def test_factor_block_memoized_on_law(monkeypatch):
    # the freeness checks of C4 -> C2 and C4 x C2 -> C2 x C2 share the
    # (k=2, l=1, entry=1) block; on one law the second reads it back
    products = []
    real = groupcoh.elem_mul

    def counted(a, b):
        products.append(None)
        return real(a, b)

    def starved(a, b):
        raise PrecisionError("starved")

    law = law21()
    monkeypatch.setattr(groupcoh, "elem_mul", starved)
    with pytest.raises(PrecisionError):
        groupcoh._factor_block_unit(law, 2, 1, 1)
    monkeypatch.setattr(groupcoh, "elem_mul", counted)
    assert groupcoh._factor_block_unit(law, 2, 1, 1) is True
    assert products
    del products[:]
    assert groupcoh._factor_block_unit(law, 2, 1, 1) is True
    assert not products
    assert groupcoh._factor_block_unit(law21(), 2, 1, 1) is True
    assert products


def test_cached_relation_gives_same_classes():
    def monomials(ring):
        A = ms_new(ring.ctx, 2, ring.caps)
        for exps, m in (((7, 0), 3), ((5, 4), 1), ((2, 3), -5), ((8, 5), 2)):
            ms_set(A, exps, ring.ctx.from_int(m))
        return A

    law = law21()
    used = build_cohring(C4xC2, law)
    total_euler(used)
    ms_normal_form(used, monomials(used))
    cached = build_cohring(C4xC2, law)
    plain = build_cohring(C4xC2, law21())
    for a, b in ((total_euler(cached), total_euler(plain)),
                 (reduced_euler(cached)[0], reduced_euler(plain)[0]),
                 (ms_normal_form(cached, monomials(cached)),
                  ms_normal_form(plain, monomials(plain)))):
        assert a.coord and a.coord == b.coord
