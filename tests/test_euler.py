"""Euler classes: enumeration, frozen values, products, kernels,
restriction vanishing, and the unit-divisibility witnesses.

Verdict depths follow the reduction-junk budget (caps - degree) scaled by
1 / (p^{n(k-1)} (p^n - 1)) per factor, as in the cohomology ring tests.
"""

import pytest

from morava import groupcoh
from morava.euler import (Character, all_nontrivial_characters, euler_of_char,
                          orbit_representatives, reduced_euler,
                          subgroup_of_character, total_euler,
                          verify_restriction_vanishing,
                          verify_unit_divisibility)
from morava.fgl import build_fgl
from morava.groupcoh import (AbelianPGroup, build_cohring, caps_for,
                             elem_eq_to, elem_is_zero_to, elem_mul,
                             series_in_elem, sound_depth)


@pytest.fixture(scope="module")
def fgl21():
    return build_fgl(2, 1, N=40, D=1, M=17)


@pytest.fixture(scope="module")
def fgl31():
    return build_fgl(3, 1, N=40, D=1, M=15)


@pytest.fixture(scope="module")
def fgl51():
    return build_fgl(5, 1, N=40, D=1, M=25)


@pytest.fixture(scope="module")
def fgl22():
    return build_fgl(2, 2, N=40, D=4, M=17)


@pytest.fixture(scope="module")
def ring2(fgl21):
    return build_cohring(AbelianPGroup(2, (1,)), fgl21, caps=(17,))


@pytest.fixture(scope="module")
def ring4(fgl21):
    return build_cohring(AbelianPGroup(2, (2,)), fgl21, caps=(17,))


@pytest.fixture(scope="module")
def ring22(fgl21):
    return build_cohring(AbelianPGroup(2, (1, 1)), fgl21, caps=(9, 9))


@pytest.fixture(scope="module")
def ring42(fgl21):
    return build_cohring(AbelianPGroup(2, (2, 1)), fgl21, caps=(9, 9))


@pytest.fixture(scope="module")
def ring3(fgl31):
    return build_cohring(AbelianPGroup(3, (1,)), fgl31, caps=(15,))


@pytest.fixture(scope="module")
def ring5(fgl51):
    return build_cohring(AbelianPGroup(5, (1,)), fgl51, caps=(25,))


def test_character_validation():
    g = AbelianPGroup(3, (1, 1))
    with pytest.raises(ValueError):
        Character(g, (1,))
    with pytest.raises(ValueError):
        Character(g, (3, 0))
    assert not Character(g, (0, 0)).nontrivial
    assert Character(g, (0, 2)).nontrivial


def test_character_counts_and_orbits():
    c3 = AbelianPGroup(3, (1,))
    assert len(all_nontrivial_characters(c3)) == 2
    assert [c.values for c in orbit_representatives(c3)] == [(1,)]

    c33 = AbelianPGroup(3, (1, 1))
    chars = all_nontrivial_characters(c33)
    assert len(chars) == 8
    reps = [c.values for c in orbit_representatives(c33)]
    assert reps == [(0, 1), (1, 0), (1, 1), (1, 2)]

    c22 = AbelianPGroup(2, (1, 1))
    assert [c.values for c in all_nontrivial_characters(c22)] == [
        (0, 1), (1, 0), (1, 1)]
    # every orbit is a singleton at p = 2
    assert len(orbit_representatives(c22)) == 3


def test_euler_trivial_and_identity(ring2):
    triv = euler_of_char(ring2, Character(ring2.group, (0,)))
    assert triv.coord == {}
    cls = euler_of_char(ring2, Character(ring2.group, (1,)))
    assert elem_eq_to(cls, ring2.gen(0), 14)


def test_euler_wrong_group(ring2):
    with pytest.raises(ValueError):
        euler_of_char(ring2, Character(AbelianPGroup(2, (1, 1)), (1, 0)))


def test_euler_c4_doubled_generator(ring4, fgl21):
    # the nontrivial character sends the generator through the 2-series
    cls = euler_of_char(ring4, Character(ring4.group, (1,)))
    ctx = ring4.ctx
    assert ctx.eq_to(cls.coord[(1,)], ctx.from_int(2), 2)
    other = series_in_elem(ring4, fgl21.m_series(2), ring4.gen(0))
    assert elem_eq_to(cls, other, 4)


def test_euler_c2c2_diagonal_frozen(ring22):
    cls = euler_of_char(ring22, Character(ring22.group, (1, 1)))
    ctx = ring22.ctx
    assert ctx.eq_to(cls.coord[(1, 0)], ctx.from_int(1), 12)
    assert ctx.eq_to(cls.coord[(0, 1)], ctx.from_int(1), 12)
    # cross terms of the law contaminate the (1,1) slot only below 2-adic
    # depth 2, so the leading u (which is 1) survives mod 4
    assert ctx.eq_to(cls.coord[(1, 1)], ctx.one(), 2)


def test_euler_linear_parts(ring42):
    # coordinates of the generators record m_i * p^(k_i - 1)
    ctx = ring42.ctx
    cls = euler_of_char(ring42, Character(ring42.group, (1, 1)))
    assert ctx.eq_to(cls.coord[(1, 0)], ctx.from_int(2), 1)
    assert ctx.eq_to(cls.coord[(0, 1)], ctx.from_int(1), 1)


def test_total_and_reduced_p2(ring22):
    total = total_euler(ring22)
    red, rest = reduced_euler(ring22)
    # all orbits are singletons, so the complement is the empty product
    assert elem_eq_to(rest, ring22.one(), 16)
    assert elem_eq_to(red, total, 5)
    # rank 2 exceeds the height here, so the total class collapses to
    # zero within the junk budget even though each factor is visibly
    # nonzero
    assert elem_is_zero_to(total, 7)
    e11 = euler_of_char(ring22, Character(ring22.group, (1, 1)))
    assert not elem_is_zero_to(e11, 1)


def test_total_and_reduced_p3(ring3):
    total = total_euler(ring3)
    red, rest = reduced_euler(ring3)
    assert elem_eq_to(elem_mul(red, rest), total, 4)
    assert not elem_is_zero_to(red, 4)
    e1 = euler_of_char(ring3, Character(ring3.group, (1,)))
    assert elem_eq_to(red, e1, 14)


def test_total_euler_one_normal_form_per_factor_class(fgl31, monkeypatch):
    # the eight characters of C3 x C3 meet four factor classes [t](y_j),
    # t in {1, 2} and j in {0, 1}: each is reduced once, with its power
    # ladder kept on the ring, and a second total reduces none.  Clearing
    # the memo before each character gives the same class.
    ring = build_cohring(AbelianPGroup(3, (1, 1)), fgl31)
    calls = []
    normal_form = groupcoh.normal_form

    def counted(ring, s, var):
        calls.append(var)
        return normal_form(ring, s, var)
    monkeypatch.setattr(groupcoh, "normal_form", counted)
    total = total_euler(ring)
    assert sorted(calls) == [0, 0, 1, 1]
    assert sorted(ring._classes) == [(1, 0), (1, 1), (2, 0), (2, 1)]
    assert total_euler(ring) == total and len(calls) == 4
    ref = ring.one()
    for ch in all_nontrivial_characters(ring.group):
        ring._classes.clear()
        ref = elem_mul(ref, euler_of_char(ring, ch))
    assert ref == total and total.coord


@pytest.mark.parametrize("p, n, D, exps, t, sound", [
    (3, 2, 1, (1,), 1, 2),
    (2, 2, 6, (1, 1), 1, 7),
    (2, 1, 1, (2,), 2, 2),
    (3, 1, 1, (1, 1), 1, 1),
])
def test_total_class_at_sound_caps_agrees_with_deeper_caps(p, n, D, exps, t,
                                                           sound):
    # the junk budget every cap rests on: the total class at caps_for(t)
    # agrees, coordinate by coordinate, with the class at caps_for(t + 8)
    # to sound_depth of the smaller caps.  These are the tightest shapes
    # measured (C3 at p=3, n=2 and C2 x C2 at p=2, n=2, D=6 agree to one
    # digit more); their m-series are cut at the caps, as every ring reads
    # them
    caps = caps_for(p, n, exps, D, t)
    deep = caps_for(p, n, exps, D, t + 8)
    assert sound_depth(p, n, exps, D, caps) == sound
    law = build_fgl(p, n, N=32, D=D, M=max(deep))
    group = AbelianPGroup(p, exps)
    a = total_euler(build_cohring(group, law, caps=caps))
    b = total_euler(build_cohring(group, law, caps=deep))
    ctx = law.ctx
    for k in set(a.coord) | set(b.coord):
        ca, cb = a.coord.get(k), b.coord.get(k)
        diff = cb if ca is None else ca if cb is None else ctx.sub_raw(ca, cb)
        assert ctx.is_zero_to(diff, sound), k


def test_orbit_relation(ring3, fgl31):
    # classes in one orbit differ by the connecting multiplication series
    e1 = euler_of_char(ring3, Character(ring3.group, (1,)))
    e2 = euler_of_char(ring3, Character(ring3.group, (2,)))
    assert elem_eq_to(e2, series_in_elem(ring3, fgl31.m_series(2), e1), 4)


def test_subgroup_of_c4():
    g = AbelianPGroup(2, (2,))
    sub, inc = subgroup_of_character(Character(g, (1,)))
    assert sub.exps == (1,)
    assert inc.mat == ((2,),)
    assert sub.order * 2 == g.order


def test_subgroup_of_c2c2():
    g = AbelianPGroup(2, (1, 1))
    sub, inc = subgroup_of_character(Character(g, (1, 1)))
    assert sub.exps == (1,)
    assert inc.mat == ((1,), (1,))
    sub0, inc0 = subgroup_of_character(Character(g, (0, 1)))
    assert sub0.exps == (1,)
    assert inc0.mat == ((1,), (0,))


def test_subgroup_of_c4c2():
    g = AbelianPGroup(2, (2, 1))
    # pivot prefers the factor of least exponent among nonzero values
    sub, inc = subgroup_of_character(Character(g, (1, 1)))
    assert sub.exps == (2,)
    assert inc.mat == ((1,), (1,))
    sub0, inc0 = subgroup_of_character(Character(g, (1, 0)))
    assert sub0.exps == (1, 1)
    assert inc0.mat == ((0, 2), (1, 0))


def test_subgroup_kills_character():
    for g, vals in [
        (AbelianPGroup(2, (2,)), (1,)),
        (AbelianPGroup(2, (2, 1)), (1, 1)),
        (AbelianPGroup(3, (2, 1)), (2, 1)),
        (AbelianPGroup(3, (1, 1)), (1, 2)),
    ]:
        chi = Character(g, vals)
        sub, inc = subgroup_of_character(chi)
        assert sub.order * g.p == g.order
        composed = chi.as_hom().compose(inc)
        assert all(m == 0 for row in composed.mat for m in row)
    with pytest.raises(ValueError):
        subgroup_of_character(Character(AbelianPGroup(2, (1,)), (0,)))


def _sub_factory(fgl):
    def factory(sub):
        return build_cohring(sub, fgl, caps=(13,) * sub.rank)
    return factory


def test_restriction_vanishing_c2(ring2, fgl21):
    rec = verify_restriction_vanishing(ring2, _sub_factory(fgl21))
    assert rec["verdict"] == "PASS"
    subs = rec["witness"]["subgroups"]
    assert [s["subgroup"] for s in subs] == ["1"]
    assert subs[0]["total_restriction_exact_zero"]


def test_restriction_vanishing_c4(ring4, fgl21):
    rec = verify_restriction_vanishing(ring4, _sub_factory(fgl21))
    assert rec["verdict"] == "PASS"
    subs = rec["witness"]["subgroups"]
    assert [s["subgroup"] for s in subs] == ["2"]
    assert subs[0]["kernel_of"] == [1]
    assert subs[0]["pullback_probe_zero"]
    assert rec["witness"]["identity_restriction_nonzero"]


def test_restriction_vanishing_c2c2(ring22, fgl21):
    rec = verify_restriction_vanishing(ring22, _sub_factory(fgl21))
    assert rec["verdict"] == "PASS"
    subs = rec["witness"]["subgroups"]
    assert len(subs) == 3
    assert all(s["total_restriction_exact_zero"] for s in subs)
    assert all(s["reduced_restriction_exact_zero"] for s in subs)
    assert all(s["pullback_probe_zero"] for s in subs)
    # rank above height: the nonvanishing control does not apply
    assert rec["witness"]["identity_restriction_nonzero"] is None


def test_restriction_vanishing_c4c2(ring42, fgl21):
    rec = verify_restriction_vanishing(ring42, _sub_factory(fgl21),
                                       probe_depth=2)
    assert rec["verdict"] == "PASS"
    subs = rec["witness"]["subgroups"]
    assert sorted(s["subgroup"] for s in subs) == ["2,2", "4", "4"]


def test_restriction_vanishing_c3(ring3, fgl31):
    rec = verify_restriction_vanishing(ring3, _sub_factory(fgl31))
    assert rec["verdict"] == "PASS"
    assert rec["witness"]["subgroups"][0]["subgroup"] == "1"


def test_restriction_vanishing_height2(fgl22):
    # at height 2 the rank-2 control is live: the total class survives
    ring = build_cohring(AbelianPGroup(2, (1, 1)), fgl22, caps=(9, 9))
    rec = verify_restriction_vanishing(
        ring, lambda sub: build_cohring(sub, fgl22, caps=(9,) * sub.rank),
        probe_depth=1)
    assert rec["verdict"] == "PASS"
    assert rec["witness"]["identity_restriction_nonzero"] is True
    assert all(s["total_restriction_exact_zero"]
               for s in rec["witness"]["subgroups"])


def test_unit_divisibility_trivial(ring2):
    rec = verify_unit_divisibility(ring2, 1, depth=10)
    assert rec["verdict"] == "PASS"
    assert rec["witness"]["s"] == 1


def test_unit_divisibility_p3(ring3):
    rec = verify_unit_divisibility(ring3, 2, depth=4)
    assert rec["verdict"] == "PASS"
    assert rec["witness"]["s"] == 2
    assert rec["witness"]["series_identity"]
    assert rec["witness"]["ring_undo"]
    assert rec["witness"]["ring_divisibility"]


def test_unit_divisibility_p5(ring5):
    rec = verify_unit_divisibility(ring5, 2, depth=4)
    assert rec["verdict"] == "PASS"
    assert rec["witness"]["s"] == 3


def test_unit_divisibility_validation(ring4, ring2):
    with pytest.raises(ValueError):
        verify_unit_divisibility(ring4, 1)
    with pytest.raises(ValueError):
        verify_unit_divisibility(ring2, 2)
