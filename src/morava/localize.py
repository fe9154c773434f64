"""Localization by an Euler class, checked by saturation, plus the
verification drivers built on it: mutual divisibility of orbit-mates, the
height-drop rewriting of the p-series and the resulting unit, nonvanishing
evidence for localized rings, and passage through the maximal elementary
abelian quotient.

The localized ring is never constructed.  A class x/e^t is 1 after
inverting e when some extra power of e, at most the saturation bound,
makes e^m x and e^{m+t} agree.  A positive verdict is exact at the working
truncation and carries the certifying exponent m; exhausting the bound is
reported as indeterminate, never as failure.
"""

from .euler import (Character, all_nontrivial_characters, euler_of_char,
                    total_euler)
from .fgl import formal_sum
from .groupcoh import (AbelianPGroup, build_cohring, cohring_from_relation,
                       elem_eq_to, elem_is_zero_to, elem_mul, elem_powers,
                       pullback, series_in_elem, sound_basis_cap,
                       verify_free_over_subring)
from .report import make_check, precision_note
from .series import (ser_compose, ser_from_terms, ser_invert_unit,
                     ser_rshift, ser_scale, ser_sub, weierstrass_degree,
                     weierstrass_prepare)


def saturation_certificate(x, e, t, T, eq_to, depth):
    """Whether x/e^t becomes 1 once e is inverted: the least m <= T with
    eq_to(e^m x, e^{m+t}, depth).

    Returns (True, m) on success and (None, None) when the bound runs out,
    the latter to be reported as INDETERMINATE rather than failure."""
    if T < 0:
        raise ValueError("saturation bound must be nonnegative")
    power = elem_powers(e)
    for m in range(T + 1):
        if eq_to(x, power(m + t), depth):
            return True, m
        x = elem_mul(x, e)
    return None, None


# Congruence modulo the height-drop ideal (p together with the v-generators
# strictly below a kept index).

def _coeff_in_ideal(ctx, e, keep_from, depth=1):
    """Every stored term is a multiple of p^depth or of some v_i with
    i < keep_from.  Cancellation markers must certify at least depth."""
    for vcode, (v, _, _) in e.t.items():
        if any(ctx.vexps(vcode)[:keep_from - 1]):
            continue
        if v < depth:
            return False
    return True


def ser_congruent_mod_ideal(f, g, keep_from, depth=1):
    ctx = f.ctx
    M = min(f.M, g.M)
    for i in range(M + 1):
        if not _coeff_in_ideal(ctx, ctx.sub_raw(f.c[i], g.c[i]), keep_from,
                               depth):
            return False
    return True


def elem_congruent_mod_ideal(a, b, keep_from, depth=1):
    ring = a.ring
    ctx = ring.ctx
    for key in set(a.coord) | set(b.coord):
        x = a.coord.get(key, ctx.zero())
        z = b.coord.get(key, ctx.zero())
        if not _coeff_in_ideal(ctx, ctx.sub_raw(x, z), keep_from, depth):
            return False
    return True


def min_stored_prec(ctx, elems):
    """Least relative precision among the stored nonzero scalars."""
    best = ctx.N
    for e in elems:
        for _, u, k in e.t.values():
            if u != 0 and k < best:
                best = k
    return best


# Verification drivers.

def verify_mutual_euler_divisibility(ring, depth=4):
    """Orbit-mates divide each other, so inverting either Euler product
    inverts the other: for each non-representative character, both
    divisibility witnesses are exhibited via the shifted series trick."""
    fgl = ring.fgl
    p = fgl.p
    params = {"p": p, "n": fgl.n, "group": ring.group.descriptor()}
    certs = []
    ok = True
    classes = {}
    for ch in all_nontrivial_characters(ring.group):
        classes[ch.values] = euler_of_char(ring, ch)
    for ch in all_nontrivial_characters(ring.group):
        rep = ch.orbit_representative()
        if ch.values == rep:
            continue
        m = next(c for c in range(1, p)
                 if Character(ring.group, rep).scaled(c).values
                 == ch.values)
        s = pow(m, -1, p)
        ea, eb = classes[rep], classes[ch.values]
        gm = ser_rshift(fgl.m_series(m), 1)
        gs = ser_rshift(fgl.m_series(s), 1)
        fwd = elem_eq_to(eb, elem_mul(ea, series_in_elem(ring, gm, ea)),
                         depth)
        bwd = elem_eq_to(ea, elem_mul(eb, series_in_elem(ring, gs, eb)),
                         depth)
        certs.append({"character": list(ch.values),
                      "representative": list(rep),
                      "m": m, "s": s,
                      "divides_forward": fwd, "divides_backward": bwd})
        ok = ok and fwd and bwd
    witness = {"certificates": certs}
    if not certs:
        witness["note"] = ("every orbit is a singleton; the two Euler "
                           "products coincide")
    return make_check(
        "mutual-euler-divisibility", "lemma-2.6", params,
        "PASS" if ok else "FAIL", witness,
        precision_note(fgl.ctx, caps=ring.caps,
                       extra={"depth": depth}))


def verify_height_drop_unit(fgl, ring=None, T=None, sat_depth=1):
    """Height at least 2: the p-series collapses mod the lower ideal to a
    two-term group sum, the unit series factor has constant term one, and
    the next-to-top v-generator acquires an explicit inverse once the
    orientation class is inverted."""
    p, n = fgl.p, fgl.n
    ctx = fgl.ctx
    if n < 2:
        raise ValueError("height 1 has a separate check")
    if fgl.M < p ** n + p ** (n - 1):
        raise ValueError("basis cap must reach degree %d"
                         % (p ** n + p ** (n - 1)))
    params = {"p": p, "n": n}
    keep = n - 1
    if ring is None:
        ring = build_cohring(AbelianPGroup(p, (1,)), fgl,
                             caps=(fgl.M,))
    if T is None:
        T = ring.rank
    vlow = ctx.v_gen(n - 1)
    # v_n = u^(p^n-1) is 1 in the coefficients, so -1/v_n is -vtop
    vtop = ctx.one()
    two_term = formal_sum(fgl, [
        ser_from_terms(ctx, fgl.M, {p ** (n - 1): vlow}),
        ser_from_terms(ctx, fgl.M, {p ** n: vtop}),
    ])
    c1 = ser_congruent_mod_ideal(fgl.pk_series(1), two_term, keep,
                                 sat_depth)

    inv_img = ser_compose(fgl.m_series(-1),
                          ser_from_terms(ctx, fgl.M, {p ** n: vtop}))
    eps = ser_scale(ctx.neg(vtop), ser_rshift(inv_img, p ** n))
    c2 = ctx.eq_to(eps.c[0], ctx.one(), 8)

    texp = p ** n - p ** (n - 1)
    num = series_in_elem(
        ring, ser_scale(ctx.neg(vtop), ser_invert_unit(eps)),
        ring.gen(0))
    equal, cert = saturation_certificate(
        elem_mul(ring.const(vlow), num), ring.gen(0), texp, T,
        lambda a, b, d: elem_congruent_mod_ideal(a, b, keep, d),
        sat_depth)
    sound_cap = sound_basis_cap(p, n, 1, ctx.D, 0)
    caps_sound = ring.caps[0] >= sound_cap
    witness = {
        "two_term_congruence": c1,
        "unit_series_constant_term_one": c2,
        "monic_convention": "unit constant term after factoring the "
                            "leading monomial",
        "top_v_substitution": "u^%d" % (p ** n - 1),
        "inverse_denominator_exponent": texp,
        "saturation_certificate": cert,
        "saturation_bound": T,
    }
    if equal and c1 and c2:
        verdict = "PASS"
    elif not caps_sound:
        verdict = "INDETERMINATE"
        witness["reason"] = ("caps below the junk-safe threshold %d"
                             % sound_cap)
    elif equal is None:
        verdict = "INDETERMINATE"
    else:
        verdict = "FAIL"
    return make_check(
        "height-drop-unit", "prop-3.2", params, verdict, witness,
        precision_note(ctx, caps=ring.caps,
                       extra={"caps_sound": caps_sound}))


def verify_inverted_prime_model(fgl, T=None, depth=16):
    """Height 1: the p-series is the two-term group sum on the nose, the
    rewritten relation is monic of degree p-1 after one division, and the
    prime itself becomes a unit in the localized model."""
    p, n = fgl.p, fgl.n
    ctx = fgl.ctx
    if n != 1:
        raise ValueError("this check is the height-1 case")
    params = {"p": p, "n": 1}
    # v_1 = u^(p-1) is 1 in the coefficients, so -1/v_1 is -v1
    v1 = ctx.one()
    two_term = formal_sum(fgl, [
        ser_from_terms(ctx, fgl.M, {1: ctx.from_int(p)}),
        ser_from_terms(ctx, fgl.M, {p: v1}),
    ])
    ps = fgl.pk_series(1)
    c1 = all(ctx.eq_to(ps.c[i], two_term.c[i], depth)
             for i in range(fgl.M + 1))

    inv_img = ser_compose(fgl.m_series(-1),
                          ser_from_terms(ctx, fgl.M, {p: v1}))
    phi = ser_sub(ser_from_terms(ctx, fgl.M, {1: ctx.from_int(p)}),
                  inv_img)
    phi1 = ser_rshift(phi, 1)
    wdeg = weierstrass_degree(phi1)
    g = weierstrass_prepare(phi1, wdeg)
    ring = cohring_from_relation(fgl, g, wdeg)
    if T is None:
        T = ring.rank

    eps = ser_scale(ctx.neg(v1), ser_rshift(inv_img, p))
    c2 = ctx.eq_to(eps.c[0], ctx.one(), 8)
    y = ring.gen(0)
    num = series_in_elem(
        ring, ser_scale(ctx.neg(v1), ser_invert_unit(eps)), y)
    pnum = elem_mul(ring.const(ctx.from_int(p)), num)
    equal, cert = saturation_certificate(pnum, y, p - 1, T, elem_eq_to,
                                         depth)

    # multiplication by y has determinant (-1)^(d-1) times the reduced
    # constant term of the monic relation
    det = ring.relred[0].get(0, ctx.zero())
    det_val = min((v for v, u, _ in det.t.values() if u != 0), default=None)
    prec = min_stored_prec(ctx, list(pnum.coord.values()) + [det])
    witness = {
        "two_term_identity": c1,
        "unit_series_constant_term_one": c2,
        "relation_degree": wdeg,
        "rank": ring.rank,
        "basis": ["y^%d" % i if i else "1" for i in range(ring.rank)],
        "inverse_denominator_exponent": p - 1,
        "saturation_certificate": cert,
        "generator_det_valuation": det_val,
    }
    if c1 and c2 and wdeg == p - 1 and equal:
        verdict = "PASS"
    elif equal is None:
        verdict = "INDETERMINATE"
    else:
        verdict = "FAIL"
    return make_check(
        "inverted-prime-model", "prop-3.2", params, verdict, witness,
        precision_note(ctx, extra={
            "depth": depth,
            "min_stored_prec": prec,
            "digits_lost": ctx.padic.N - prec,
        }))


def verify_localized_nonvanishing(ring, T=8, depth=2):
    """Nonvanishing evidence for the localized ring: powers of the total
    Euler class stay nonzero up to the bound when the height covers the
    rank.  Below the rank the check inverts: it reports the least power
    that dies, the collapse the theory predicts."""
    fgl = ring.fgl
    r = ring.group.rank
    params = {"p": fgl.p, "n": fgl.n, "r": r, "t_bound": T}
    powers = []
    power = elem_powers(total_euler(ring))
    least_zero = None
    for t in range(1, T + 1):
        z = elem_is_zero_to(power(t), depth)
        powers.append({"t": t, "zero_to_depth": z})
        if z and least_zero is None:
            least_zero = t
        if z and fgl.n < r:
            break
    witness = {"powers": powers}
    if fgl.n >= r:
        verdict = "EVIDENCE" if least_zero is None else "FAIL"
    else:
        witness["least_zero_power"] = least_zero
        verdict = "PASS" if least_zero is not None else "FAIL"
    return make_check(
        "localized-nonvanishing", "prop-3.3", params, verdict, witness,
        precision_note(fgl.ctx, caps=ring.caps,
                       extra={"depth": depth}))


def verify_elementary_quotient_transfer(group, fgl, caps=None,
                                        sub_caps=None, depth=4,
                                        strong_depth=16):
    """Everything Euler-theoretic factors through the maximal elementary
    abelian quotient: the induced character correspondence is a bijection,
    the pulled-back total class is the total class, and the big ring is
    free over the image of the quotient ring."""
    p = fgl.p
    params = {"p": p, "n": fgl.n, "group": group.descriptor()}
    ring = build_cohring(group, fgl, caps=caps)
    target, q = group.elementary_quotient()
    ring_t = build_cohring(target, fgl, caps=sub_caps)

    induced = []
    for ch in all_nontrivial_characters(target):
        induced.append(ch.as_hom().compose(q).mat[0])
    all_chars = {c.values for c in all_nontrivial_characters(group)}
    bijection = (len(set(induced)) == len(induced)
                 and set(induced) == all_chars)

    total = total_euler(ring)
    acc = ring.one()
    for vals in sorted(induced):
        acc = elem_mul(acc, euler_of_char(ring, Character(group, vals)))
    factorwise = elem_eq_to(acc, total, strong_depth)

    image = pullback(q, ring_t, ring).apply(total_euler(ring_t))
    pulled = elem_eq_to(image, total, depth)

    freeness = verify_free_over_subring(q, ring, ring_t)
    witness = {
        "character_bijection": bijection,
        "factorwise_total_match": factorwise,
        "pullback_total_match": pulled,
        "freeness": freeness,
    }
    checks = (bijection and factorwise and pulled
              and freeness["verdict"] == "PASS")
    verdict = "PASS" if checks else "FAIL"
    return make_check(
        "elementary-quotient-transfer", "cor-3.4", params, verdict, witness,
        precision_note(fgl.ctx, caps=ring.caps,
                       extra={"depth": depth}))
