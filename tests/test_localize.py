"""Localization layer: the saturation check for classes over a power of an
Euler class, rank-one rings modulo an explicit relation, and the
verification drivers built on them.

Depths follow the usual junk budget.  The mod-ideal congruence checks at
height >= 2 additionally need basis caps at or above the junk-safe
threshold, which is frozen here for the shapes the drivers run at.
"""

import pytest

from morava.euler import Character, euler_of_char, total_euler
from morava.fgl import build_fgl
from morava.groupcoh import (AbelianPGroup, RingElem, build_cohring,
                             cohring_from_relation, elem_add, elem_eq_to,
                             elem_is_zero_to, elem_mul, series_in_elem,
                             sound_basis_cap)
from morava.localize import (saturation_certificate,
                             verify_elementary_quotient_transfer,
                             verify_height_drop_unit,
                             verify_inverted_prime_model,
                             verify_localized_nonvanishing,
                             verify_mutual_euler_divisibility)
from morava.series import (ser_add, ser_monomial, ser_rshift,
                           weierstrass_degree, weierstrass_prepare)


@pytest.fixture(scope="module")
def fgl21():
    return build_fgl(2, 1, N=40, D=1, M=17)


@pytest.fixture(scope="module")
def fgl31():
    return build_fgl(3, 1, N=40, D=1, M=23)


@pytest.fixture(scope="module")
def fgl51():
    return build_fgl(5, 1, N=40, D=1, M=24)


@pytest.fixture(scope="module")
def fgl22():
    return build_fgl(2, 2, N=40, D=6, M=26)


@pytest.fixture(scope="module")
def ring2(fgl21):
    return build_cohring(AbelianPGroup(2, (1,)), fgl21, caps=(17,))


@pytest.fixture(scope="module")
def ring3(fgl31):
    return build_cohring(AbelianPGroup(3, (1,)), fgl31, caps=(23,))


@pytest.fixture(scope="module")
def ring2x2(fgl21):
    return build_cohring(AbelianPGroup(2, (1, 1)), fgl21, caps=(9, 9))


@pytest.fixture(scope="module")
def gen_class(ring2):
    return euler_of_char(ring2, Character(ring2.group, (1,)))


def _prepared(fgl, k):
    shifted = ser_rshift(fgl.pk_series(k), 1)
    d = weierstrass_degree(shifted)
    g = weierstrass_prepare(shifted)
    return g, d


def _pk_model(fgl, k):
    return cohring_from_relation(fgl, *_prepared(fgl, k))


def _mono(ring, a, c):
    return RingElem(ring, {(a,): c})


def _det(ctx, rows):
    """Laplace expansion along the first row, independent of the ring."""
    if not rows:
        return ctx.one()
    acc = ctx.zero()
    for j, entry in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = ctx.mul(entry, _det(ctx, minor))
        acc = ctx.add_raw(acc, ctx.neg(term) if j % 2 else term)
    return acc


# Frozen junk-safe thresholds for the shapes the drivers run at.

def test_sound_cap_frozen():
    # a probe of depth 0: only the window of the v-degree tails counts
    assert sound_basis_cap(2, 2, 1, 6, 0) == 26
    assert sound_basis_cap(3, 2, 1, 6, 0) == 66
    assert sound_basis_cap(2, 3, 1, 4, 0) == 44


# Saturation: x/e^t becomes 1 once e is inverted.

def _bracket(ring2, fgl21, gen_class):
    return series_in_elem(ring2, ser_rshift(fgl21.m_series(2), 1), gen_class)


def test_saturation_reflexive(ring2, gen_class):
    e = gen_class
    assert saturation_certificate(ring2.one(), e, 0, 4, elem_eq_to, 8) == \
        (True, 0)
    assert saturation_certificate(e, e, 1, 4, elem_eq_to, 8) == (True, 0)


def test_saturation_cancel_common_factor(ring2, fgl21, gen_class):
    # e^3 built right to left over e^3 built left to right, and
    # e(1 + <2>(e))/e: the factor e kills <2>(e) before any saturation
    e = gen_class
    x = elem_mul(e, elem_mul(e, e))
    assert saturation_certificate(x, e, 3, 4, elem_eq_to, 8) == (True, 0)
    x = elem_mul(e, elem_add(ring2.one(), _bracket(ring2, fgl21, e)))
    assert saturation_certificate(x, e, 1, 4, elem_eq_to, 4) == (True, 0)


def test_zero_divisor_needs_one_saturation_step(ring2, fgl21, gen_class):
    # e * <2>(e) = [2](e) dies, so (1 + <2>(e))/1 is 1 after inverting e,
    # with certifying exponent exactly one.
    bracket = _bracket(ring2, fgl21, gen_class)
    assert not elem_is_zero_to(bracket, 4)
    x = elem_add(ring2.one(), bracket)
    assert saturation_certificate(x, gen_class, 0, ring2.rank, elem_eq_to,
                                  4) == (True, 1)


def test_exhausted_bound_is_indeterminate(ring2, fgl21, gen_class):
    x = elem_add(ring2.one(), _bracket(ring2, fgl21, gen_class))
    assert saturation_certificate(x, gen_class, 0, 0, elem_eq_to, 4) == \
        (None, None)


def test_saturation_bound_validation(ring2, gen_class):
    with pytest.raises(ValueError):
        saturation_certificate(ring2.one(), gen_class, 0, -1, elem_eq_to, 2)


# Rank-one rings modulo the prepared shifted p^k-series.

def test_model_relation_maps_to_zero(fgl21, fgl31):
    for fgl, k in ((fgl21, 1), (fgl21, 2), (fgl31, 1)):
        g, d = _prepared(fgl, k)
        ring = cohring_from_relation(fgl, g, d)
        assert elem_is_zero_to(series_in_elem(ring, g, ring.gen(0)), 8)


def test_model_identity_and_shift(fgl21):
    ring = _pk_model(fgl21, 2)
    ctx = ring.ctx
    assert ring.rank == 3
    y = ring.gen(0)
    x = elem_add(ring.const(ctx.from_int(3)), _mono(ring, 2, ctx.one()))
    assert elem_eq_to(elem_mul(ring.one(), x), x, 8)
    # y * (3 + y^2) = 3y + y^3, and y^3 reduces through the relation
    shifted = elem_add(_mono(ring, 1, ctx.from_int(3)),
                       RingElem(ring, {(a,): c
                                       for a, c in ring.relred[0].items()}))
    assert elem_eq_to(elem_mul(y, x), shifted, 8)


def test_model_mul_commutes_and_associates(fgl21):
    ring = _pk_model(fgl21, 2)
    ctx = ring.ctx
    a = ring.gen(0)
    b = elem_add(ring.const(ctx.from_int(2)), _mono(ring, 1, ctx.one()))
    c = _mono(ring, 2, ctx.from_int(3))
    assert elem_eq_to(elem_mul(a, b), elem_mul(b, a), 6)
    assert elem_eq_to(elem_mul(elem_mul(a, b), c),
                      elem_mul(a, elem_mul(b, c)), 6)


def test_model_rejects_bad_polynomials(fgl21, fgl31):
    f = ser_rshift(fgl21.pk_series(1), 1)
    # not monic at the stated degree: [2](y)/y = 2 + y + 2y^2 + ... has 2
    # at degree 2, which is not 1 mod 2
    with pytest.raises(ValueError, match="monic"):
        cohring_from_relation(fgl21, f, 2)
    g, d = _prepared(fgl21, 1)
    with pytest.raises(ValueError, match="degree out of range"):
        cohring_from_relation(fgl21, g, 0)
    with pytest.raises(ValueError, match="above the degree"):
        cohring_from_relation(fgl21, ser_add(g, ser_monomial(
            fgl21.ctx, g.M, d + 1)), d)
    with pytest.raises(ValueError, match="context"):
        cohring_from_relation(fgl31, g, d)


def test_degree_one_generator_is_normal_form(fgl21):
    ring = _pk_model(fgl21, 1)
    assert ring.wdegs == (1,)
    y = ring.gen(0)
    assert set(y.coord) == {(0,)}
    assert elem_eq_to(y, ring.const(ring.relred[0][0]), 8)


def test_generator_determinant_frozen(fgl21, fgl31):
    # det of multiplication by y is (-1)^(d-1) times the reduced constant
    # term; its valuation recovers k for the p^k-series quotient.
    expected = (
        (fgl21, 1, 1, 1, 1),
        (fgl21, 2, 3, 2, 1),
        (fgl31, 1, 2, 1, -1),
    )
    for fgl, k, deg, val, sign in expected:
        ring = _pk_model(fgl, k)
        ctx = fgl.ctx
        assert ring.rank == deg
        y = ring.gen(0)
        cols = [elem_mul(y, _mono(ring, j, ctx.one())) for j in range(deg)]
        rows = [[col.coord.get((i,), ctx.zero()) for col in cols]
                for i in range(deg)]
        det = _det(ctx, rows)
        assert min(v for v, u, _ in det.t.values() if u != 0) == val
        red0 = ring.relred[0][0]
        ref = red0 if sign > 0 else ctx.neg(red0)
        assert ctx.eq_to(det, ref, 6)


# Mutual divisibility of orbit-mates.

def test_divisibility_singleton_orbits(ring2):
    rec = verify_mutual_euler_divisibility(ring2)
    assert rec["verdict"] == "PASS"
    assert rec["check_id"] == "mutual-euler-divisibility"
    assert rec["witness"]["certificates"] == []
    assert "note" in rec["witness"]


def test_divisibility_certificate_p3(ring3):
    rec = verify_mutual_euler_divisibility(ring3)
    assert rec["verdict"] == "PASS"
    assert rec["witness"]["certificates"] == [{
        "character": [2], "representative": [1], "m": 2, "s": 2,
        "divides_forward": True, "divides_backward": True,
    }]


def test_divisibility_rank_two(ring2x2):
    rec = verify_mutual_euler_divisibility(ring2x2)
    assert rec["verdict"] == "PASS"
    assert rec["witness"]["certificates"] == []


# Height-drop rewriting of the p-series.

def test_height_drop_22(fgl22):
    rec = verify_height_drop_unit(fgl22)
    assert rec["verdict"] == "PASS"
    assert rec["check_id"] == "height-drop-unit"
    w = rec["witness"]
    assert w["two_term_congruence"] is True
    assert w["unit_series_constant_term_one"] is True
    assert w["top_v_substitution"] == "u^3"
    assert w["inverse_denominator_exponent"] == 2
    assert w["saturation_certificate"] == 2
    assert w["saturation_bound"] == 4
    assert rec["params"] == {"p": 2, "n": 2}
    assert rec["precision_loss"]["caps_sound"] is True


def test_height_drop_32():
    fgl = build_fgl(3, 2, N=40, D=6, M=66)
    rec = verify_height_drop_unit(fgl)
    assert rec["verdict"] == "PASS"
    assert rec["witness"]["inverse_denominator_exponent"] == 6
    assert rec["witness"]["saturation_certificate"] == 3
    assert rec["precision_loss"]["caps_sound"] is True


def test_height_drop_rejects_wrong_height(fgl21, fgl22):
    with pytest.raises(ValueError, match="height 1"):
        verify_height_drop_unit(fgl21)
    with pytest.raises(ValueError, match="height-1"):
        verify_inverted_prime_model(fgl22)


def test_height_drop_rejects_small_cap():
    fgl = build_fgl(2, 2, N=16, D=2, M=5)
    with pytest.raises(ValueError, match="basis cap"):
        verify_height_drop_unit(fgl)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_inverted_prime_model(p, fgl21, fgl31, fgl51, request):
    fgl = {2: fgl21, 3: fgl31, 5: fgl51}[p]
    rec = verify_inverted_prime_model(fgl)
    assert rec["verdict"] == "PASS"
    assert rec["check_id"] == "inverted-prime-model"
    w = rec["witness"]
    assert w["relation_degree"] == p - 1
    assert w["rank"] == p - 1
    assert w["basis"] == ["1"] + ["y^%d" % i for i in range(1, p - 1)]
    assert w["inverse_denominator_exponent"] == p - 1
    assert w["saturation_certificate"] == 0
    assert w["generator_det_valuation"] == 1
    assert rec["precision_loss"]["min_stored_prec"] == 40
    assert rec["precision_loss"]["digits_lost"] == 0


# Nonvanishing evidence.

def test_nonvanishing_evidence_p2(ring2):
    rec = verify_localized_nonvanishing(ring2, T=8, depth=8)
    assert rec["verdict"] == "EVIDENCE"
    assert rec["check_id"] == "localized-nonvanishing"
    powers = rec["witness"]["powers"]
    assert [w["t"] for w in powers] == list(range(1, 9))
    assert not any(w["zero_to_depth"] for w in powers)
    assert "least_zero_power" not in rec["witness"]


def test_nonvanishing_evidence_p3(ring3):
    rec = verify_localized_nonvanishing(ring3, T=8, depth=8)
    assert rec["verdict"] == "EVIDENCE"
    assert not any(w["zero_to_depth"] for w in rec["witness"]["powers"])


def test_nonvanishing_negative_control(ring2x2):
    # rank exceeds the height, so the total class itself already dies and
    # the check must report the collapse as the expected outcome.
    rec = verify_localized_nonvanishing(ring2x2, T=8, depth=5)
    assert rec["verdict"] == "PASS"
    assert rec["witness"]["least_zero_power"] == 1
    assert rec["witness"]["powers"] == [{"t": 1, "zero_to_depth": True}]


# Passage through the maximal elementary abelian quotient.

def test_quotient_transfer_c4(fgl21):
    rec = verify_elementary_quotient_transfer(AbelianPGroup(2, (2,)), fgl21)
    assert rec["verdict"] == "PASS"
    assert rec["check_id"] == "elementary-quotient-transfer"
    w = rec["witness"]
    assert w["character_bijection"] is True
    assert w["factorwise_total_match"] is True
    assert w["pullback_total_match"] is True
    assert w["freeness"]["verdict"] == "PASS"


def test_quotient_transfer_identity(fgl21):
    rec = verify_elementary_quotient_transfer(AbelianPGroup(2, (1, 1)), fgl21)
    assert rec["verdict"] == "PASS"


def test_quotient_transfer_c9(fgl31):
    # default caps leave under two junk-safe digits at rank nine, so the
    # pullback probe runs at raised caps and matching depth
    rec = verify_elementary_quotient_transfer(
        AbelianPGroup(3, (2,)), fgl31, caps=(23,),
                       depth=2, strong_depth=2)
    assert rec["verdict"] == "PASS"
    assert rec["witness"]["freeness"]["witness"]["rank"] == 3
