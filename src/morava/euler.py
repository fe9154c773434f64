"""Euler classes of order-p characters, their products, and restrictions.

A character with values (m_1, ..., m_r) on the factors pulls the
orientation class back to the formal sum of the (m_i p^{k_i - 1})-series of
the generators; the trivial character gives the structural zero.  The total
class multiplies over all nontrivial characters, the reduced class over one
representative per scalar orbit, so the total is the reduced times the
complementary product by construction.

Restricting along the inclusion of the kernel of a character kills every
character in that orbit, which is what makes the vanishing checks exact:
the vanishing factor is a structural zero, not a deep one.
"""

from .groupcoh import (AbelianPGroup, GroupHom, build_cohring, elem_eq_to,
                       elem_is_zero_to, elem_mul, point_class, pullback,
                       series_in_elem)
from .report import make_check, precision_note
from .series import ser_compose, ser_rshift


class Character:
    """Order-p character of a finite abelian p-group, by generator values."""

    __slots__ = ("group", "values")

    def __init__(self, group, values):
        values = tuple(int(v) for v in values)
        if len(values) != group.rank:
            raise ValueError("need one value per factor")
        if any(not 0 <= v < group.p for v in values):
            raise ValueError("character values live in 0..p-1")
        self.group = group
        self.values = values

    @property
    def nontrivial(self):
        return any(self.values)

    def as_hom(self):
        return GroupHom(self.group, AbelianPGroup(self.group.p, (1,)),
                        [self.values])

    def scaled(self, c):
        p = self.group.p
        return Character(self.group, tuple(c * v % p for v in self.values))

    def orbit_representative(self):
        p = self.group.p
        return min(self.scaled(c).values for c in range(1, p))

    def __eq__(self, other):
        return (isinstance(other, Character) and self.group == other.group
                and self.values == other.values)

    def __hash__(self):
        return hash((self.group, self.values))

    def __repr__(self):
        return "Character%r" % (self.values,)


def all_nontrivial_characters(group):
    """All p^r - 1 nontrivial characters, lexicographically."""
    p = group.p
    out = []

    def rec(prefix):
        if len(prefix) == group.rank:
            ch = Character(group, prefix)
            if ch.nontrivial:
                out.append(ch)
            return
        for v in range(p):
            rec(prefix + (v,))

    rec(())
    return out


def orbit_representatives(group):
    reps = []
    for ch in all_nontrivial_characters(group):
        if ch.values == ch.orbit_representative():
            reps.append(ch)
    return reps


def euler_of_char(ring, chi):
    """Euler class of a character, in normal form."""
    if chi.group != ring.group:
        raise ValueError("character on a different group")
    if not chi.nontrivial:
        return ring.zero()
    return point_class(ring, chi.as_hom().char_exponents(0))


def total_euler(ring):
    """Product of Euler classes over all nontrivial characters."""
    acc = ring.one()
    for ch in all_nontrivial_characters(ring.group):
        acc = elem_mul(acc, euler_of_char(ring, ch))
    return acc


def reduced_euler(ring):
    """Product over orbit representatives, plus the complementary factor
    over the remaining characters."""
    red = ring.one()
    rest = ring.one()
    for ch in all_nontrivial_characters(ring.group):
        cls = euler_of_char(ring, ch)
        if ch.values == ch.orbit_representative():
            red = elem_mul(red, cls)
        else:
            rest = elem_mul(rest, cls)
    return red, rest


def subgroup_of_character(chi):
    """Kernel of a nontrivial character as an explicit inclusion.

    The pivot is a factor of least exponent among those with nonzero value;
    other factors are corrected by a pivot multiple, and the pivot itself
    contributes its index-p subgroup when its exponent allows."""
    if not chi.nontrivial:
        raise ValueError("the trivial character has full kernel")
    group = chi.group
    p = group.p
    piv = min((j for j, v in enumerate(chi.values) if v),
              key=lambda j: group.exps[j])
    inv = pow(chi.values[piv], -1, p)
    sub_exps = []
    cols = []
    for i in range(group.rank):
        if i == piv:
            continue
        sub_exps.append(group.exps[i])
        col = [0] * group.rank
        col[i] = 1
        if chi.values[i]:
            col[piv] = -(chi.values[i] * inv) % p ** group.exps[piv]
        cols.append(col)
    if group.exps[piv] > 1:
        sub_exps.append(group.exps[piv] - 1)
        col = [0] * group.rank
        col[piv] = p
        cols.append(col)
    sub = AbelianPGroup(p, sub_exps)
    mat = [[cols[j][i] for j in range(len(cols))] for i in range(group.rank)]
    return sub, GroupHom(sub, group, mat)


def restricted_euler_products(ring, sub_ring, inclusion):
    """Restrictions of the total and reduced classes computed characterwise:
    the restriction of each factor is the class of the restricted character,
    so an orbit dying on the subgroup zeroes the product structurally."""
    total = sub_ring.one()
    red = sub_ring.one()
    for ch in all_nontrivial_characters(ring.group):
        restricted = ch.as_hom().compose(inclusion)
        cls = point_class(sub_ring, restricted.char_exponents(0))
        total = elem_mul(total, cls)
        if ch.values == ch.orbit_representative():
            red = elem_mul(red, cls)
    return total, red


def verify_restriction_vanishing(ring, ring_factory=None, probe_depth=4):
    """Both Euler products restrict to zero on every index-p subgroup.

    Subgroups are kernels of orbit representatives.  The characterwise
    restriction makes the zero structural; one pullback through the induced
    ring map cross-checks each subgroup at probe_depth.  The improper
    restriction along the identity serves as a nonvanishing control, but
    only when the rank does not exceed the height: past that the total
    class vanishes outright and the control is reported as inapplicable."""
    fgl = ring.fgl
    params = {"p": fgl.p, "n": fgl.n, "group": ring.group.descriptor()}
    if ring_factory is None:
        def ring_factory(sub):
            return build_cohring(sub, fgl)

    subgroups = []
    failed = None
    control_applies = fgl.n >= ring.group.rank
    total = total_euler(ring)
    control_nonzero = (not elem_is_zero_to(total, probe_depth)
                       if control_applies else None)
    for rep in orbit_representatives(ring.group):
        sub, inc = subgroup_of_character(rep)
        sub_ring = ring_factory(sub)
        rtotal, rred = restricted_euler_products(ring, sub_ring, inc)
        entry = {
            "kernel_of": list(rep.values),
            "subgroup": sub.descriptor(),
            "total_restriction_exact_zero": rtotal.coord == {},
            "reduced_restriction_exact_zero": rred.coord == {},
        }
        rmap = pullback(inc, ring, sub_ring)
        entry["pullback_probe_zero"] = elem_is_zero_to(
            rmap.apply(total), probe_depth)
        subgroups.append(entry)
        if not (entry["total_restriction_exact_zero"]
                and entry["reduced_restriction_exact_zero"]
                and entry["pullback_probe_zero"]):
            failed = entry
    witness = {"subgroups": subgroups,
               "identity_restriction_nonzero": control_nonzero}
    control_ok = control_nonzero if control_applies else True
    verdict = "PASS" if failed is None and control_ok else "FAIL"
    return make_check(
        "restriction-vanishing", "lemma-2.6", params, verdict, witness,
        precision_note(fgl.ctx, caps=ring.caps,
                       extra={"probe_depth": probe_depth}))


def verify_unit_divisibility(ring, m, depth=4):
    """For s with sm = 1 mod p: applying the s-series undoes the m-series
    on the cyclic ring, and the shifted s-series witnesses that the m-fold
    class divides the original.

    The series-level identity (composing the two m-series against the
    product series) is exact at the cap; the ring-level identities carry
    the usual reduction junk and are checked at the given depth."""
    fgl = ring.fgl
    p = fgl.p
    if ring.group.exps != (1,):
        raise ValueError("divisibility witness lives on the order-p ring")
    if not 1 <= m < p:
        raise ValueError("m must be a unit residue")
    s = pow(m, -1, p)
    params = {"p": p, "n": fgl.n, "m": m, "s": s}
    sm = ser_compose(fgl.m_series(s), fgl.m_series(m))
    series_ok = True
    prod = fgl.m_series(s * m)
    for d in range(sm.M + 1):
        if not fgl.ctx.eq_to(sm.c[d], prod.c[d], max(depth, 10)):
            series_ok = False
            break
    gen = ring.gen(0)
    em = euler_of_char(ring, Character(ring.group, (m,)))
    back = series_in_elem(ring, fgl.m_series(s), em)
    undo_ok = elem_eq_to(back, gen, depth)
    h = ser_rshift(fgl.m_series(s), 1)
    divisor = elem_mul(em, series_in_elem(ring, h, em))
    divide_ok = elem_eq_to(divisor, gen, depth)
    witness = {"s": s, "series_identity": series_ok,
               "ring_undo": undo_ok, "ring_divisibility": divide_ok}
    verdict = "PASS" if series_ok and undo_ok and divide_ok else "FAIL"
    return make_check(
        "unit-divisibility", "lemma-2.6", params, verdict, witness,
        precision_note(fgl.ctx, caps=ring.caps,
                       extra={"depth": depth}))
