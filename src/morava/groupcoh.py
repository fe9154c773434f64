"""Cohomology rings of classifying spaces of finite abelian p-groups.

A cyclic factor of order p^k contributes one generator y modulo the
p^k-series of the formal group law.  Weierstrass preparation rewrites that
relation as a monic polynomial of degree p^{nk} whose lower coefficients
lie in the maximal ideal, so the ring is a free module over the
coefficients with the monomial basis below that degree.  Product groups
tensor the cyclic presentations together; the normal form reduces each
variable independently through lazily grown reduction tables.  The same
ring type, built by cohring_from_relation, also serves a single generator
modulo any explicit monic relation.

Group homomorphisms act contravariantly.  The generator class of the i-th
target factor pulls back to the formal sum over source factors of m-series
of their generators, with exponents scaled by the order ratio of the two
factors, and the induced ring map is evaluated on normal forms.

One routine, elem_poly, evaluates polynomials on ring elements over the
power ladders of elem_powers: a ring map on an element, the formal group
law on the classes of a character, and a one-variable series on a class
(split after Paterson and Stockmeyer).
"""

import itertools
import math
from operator import add

from .coeff import CoeffElem
from .padic import PrecisionError
from .report import make_check, precision_note
from .series import (ser_monomial, ser_truncate, weierstrass_degree,
                     weierstrass_prepare)


class AbelianPGroup:
    """Product of cyclic p-groups, recorded by exponents (k_1, ..., k_r)."""

    __slots__ = ("p", "exps")

    def __init__(self, p, exps):
        exps = tuple(int(k) for k in exps)
        if any(k < 1 for k in exps):
            raise ValueError("cyclic factor exponents must be positive")
        self.p = p
        self.exps = exps

    @classmethod
    def from_orders(cls, p, orders):
        exps = []
        for q in orders:
            k, m = 0, q
            while m > 1 and m % p == 0:
                m //= p
                k += 1
            if m != 1 or k < 1:
                raise ValueError(
                    "factor order %r is not a positive power of %d" % (q, p))
            exps.append(k)
        return cls(p, exps)

    @property
    def rank(self):
        return len(self.exps)

    @property
    def order(self):
        return self.p ** sum(self.exps)

    def orders(self):
        return tuple(self.p ** k for k in self.exps)

    def descriptor(self):
        if not self.exps:
            return "1"
        return ",".join(str(q) for q in self.orders())

    def elementary_quotient(self):
        """The canonical surjection onto one copy of C_p per factor."""
        target = AbelianPGroup(self.p, (1,) * self.rank)
        mat = [[int(i == j) for j in range(self.rank)]
               for i in range(self.rank)]
        return target, GroupHom(self, target, mat)

    def __eq__(self, other):
        return (isinstance(other, AbelianPGroup)
                and self.p == other.p and self.exps == other.exps)

    def __hash__(self):
        return hash((self.p, self.exps))

    def __repr__(self):
        return "AbelianPGroup(p=%d, %s)" % (self.p, self.descriptor())


class GroupHom:
    """Homomorphism between abelian p-groups as an integer matrix.

    Entry (i, j) is the i-th target coordinate of the image of the j-th
    source generator.  Well-definedness forces p^{k_i - k'_j} to divide the
    entry whenever the target factor is the larger; entries are stored
    reduced modulo the target factor order.
    """

    __slots__ = ("src", "dst", "mat")

    def __init__(self, src, dst, mat):
        if src.p != dst.p:
            raise ValueError("groups live at different primes")
        p = src.p
        mat = [list(row) for row in mat]
        if len(mat) != dst.rank:
            raise ValueError("matrix must have one row per target factor")
        rows = []
        for i, row in enumerate(mat):
            if len(row) != src.rank:
                raise ValueError("matrix must have one column per source factor")
            ki = dst.exps[i]
            out = []
            for j, m in enumerate(row):
                need = max(0, ki - src.exps[j])
                if m % p ** need:
                    raise ValueError(
                        "entry (%d, %d) = %d does not respect generator "
                        "orders" % (i, j, m))
                out.append(m % p ** ki)
            rows.append(tuple(out))
        self.src = src
        self.dst = dst
        self.mat = tuple(rows)

    @classmethod
    def identity(cls, group):
        mat = [[int(i == j) for j in range(group.rank)]
               for i in range(group.rank)]
        return cls(group, group, mat)

    def compose(self, other):
        """self applied after other."""
        if other.dst != self.src:
            raise ValueError("homomorphisms do not compose")
        mid = self.src.rank
        mat = [[sum(self.mat[i][l] * other.mat[l][j] for l in range(mid))
                for j in range(other.src.rank)]
               for i in range(self.dst.rank)]
        return GroupHom(other.src, self.dst, mat)

    def char_exponents(self, i):
        """m-series exponents describing the pullback of the i-th target
        generator class: entry j is the matrix entry scaled by the order
        ratio of the factors, reduced modulo the source factor order."""
        p = self.src.p
        ki = self.dst.exps[i]
        out = []
        for j, kj in enumerate(self.src.exps):
            t = self.mat[i][j] * p ** kj // p ** ki
            out.append(t % p ** kj)
        return tuple(out)

    def __eq__(self, other):
        return (isinstance(other, GroupHom) and self.src == other.src
                and self.dst == other.dst and self.mat == other.mat)

    def __hash__(self):
        return hash((self.src, self.dst, self.mat))

    def __repr__(self):
        return "GroupHom(%s -> %s, %s)" % (
            self.src.descriptor(), self.dst.descriptor(), self.mat)


class CohRing:
    """Free-module presentation with one reduction table per cyclic factor.

    relred[i] maps exponents a < d_i to the coefficient of y_i^a in the
    reduction of y_i^{d_i}; tables[i][j] holds the normal-form coordinates
    of y_i^j and grows on demand.  _classes holds, by (t, j), the class of
    [t](y_j) with its power ladder (_factor_class), shared read-only.  group
    is None for a ring built from an explicit relation.
    """

    __slots__ = ("group", "fgl", "ctx", "caps", "wdegs", "relred", "tables",
                 "_classes")

    def __init__(self, group, fgl, caps, wdegs, relred):
        ctx = fgl.ctx
        self.group = group
        self.fgl = fgl
        self.ctx = ctx
        self.caps = caps
        self.wdegs = wdegs
        self.relred = relred
        self.tables = [[{a: ctx.one()} for a in range(d)] for d in wdegs]
        self._classes = {}

    @property
    def rank(self):
        r = 1
        for d in self.wdegs:
            r *= d
        return r

    def basis(self):
        return itertools.product(*[range(d) for d in self.wdegs])

    def zero(self):
        return RingElem(self, {})

    def const(self, e):
        if not e.t:
            return RingElem(self, {})
        return RingElem(self, {(0,) * len(self.wdegs): e})

    def one(self):
        return self.const(self.ctx.one())

    def gen(self, i):
        """Normal form of y_i: the monomial itself unless its relation has
        degree one."""
        return normal_form(self, ser_monomial(self.ctx, self.caps[i], 1), i)

    def table_row(self, i, j):
        rows = self.tables[i]
        d = self.wdegs[i]
        ctx = self.ctx
        while len(rows) <= j:
            prev = rows[-1]
            new = {}
            for a, c in prev.items():
                if a == d - 1:
                    for b, rc in self.relred[i].items():
                        cur = new.get(b)
                        if cur is None:
                            prod = ctx.mul(c, rc)
                            if prod.t:
                                new[b] = prod
                            continue
                        # cur is a coefficient of prev, shifted up: the sum
                        # goes into a copy
                        t = dict(cur.t)
                        ctx.addmul_into(t, c, rc)
                        if t:
                            new[b] = CoeffElem(ctx, t)
                        else:
                            del new[b]
                else:
                    cur = new.get(a + 1)
                    s = c if cur is None else ctx.add(cur, c)
                    if s.t:
                        new[a + 1] = s
                    elif cur is not None:
                        del new[a + 1]
            rows.append(new)
        return rows[j]

    def __repr__(self):
        return "CohRing(%s, p=%d, n=%d, rank=%d)" % (
            self.group.descriptor() if self.group else "relation",
            self.fgl.p, self.fgl.n, self.rank)


def _reduction(g, d):
    """Reduction table of a polynomial monic at degree d: a < d maps to the
    coefficient of y^a in y^d, the negated lower coefficient."""
    ctx = g.ctx
    red = {}
    for a in range(d):
        c = g.c[a]
        if c.t:
            red[a] = ctx.neg(c)
    return red


def _relation(fgl, k, cap):
    """Prepared relation of a C_{p^k} factor at y-degree cap, memoized on
    the law: a map from a < p^{nk} to the coefficient of y^a in the
    reduction of y^{p^{nk}}.  Nothing is stored when the build raises."""
    key = (k, cap)
    got = fgl._r_cache.get(key)
    if got is not None:
        return got
    d = fgl.p ** (fgl.n * k)
    s = fgl.pk_series(k)
    if cap < fgl.M:
        s = ser_truncate(s, cap)
    wd = weierstrass_degree(s)
    if wd != d:
        raise ArithmeticError(
            "relation of the order-%d factor has degree %d, expected %d"
            % (fgl.p ** k, wd, d))
    got = _reduction(weierstrass_prepare(s, d), d)
    fgl._r_cache[key] = got
    return got


def build_cohring(group, fgl, caps=None):
    """Assemble the law's prepared relation of each cyclic factor with a
    fresh reduction table.

    Per-factor caps default to twice the relation degree plus one, so the
    product of two basis monomials stays representable before reduction.
    Relations are prepared once per law and cap, and rings built from the
    same law share them read-only.
    """
    p, n = fgl.p, fgl.n
    if group.p != p:
        raise ValueError("group prime differs from the law's")
    wdegs = tuple(p ** (n * k) for k in group.exps)
    if caps is None:
        caps = tuple(min(2 * d + 1, fgl.M) for d in wdegs)
    else:
        caps = tuple(caps)
        if len(caps) != group.rank:
            raise ValueError("need one cap per factor")
    relred = []
    for i, k in enumerate(group.exps):
        d = wdegs[i]
        if caps[i] < d:
            raise ValueError(
                "cap %d cannot hold the degree-%d relation" % (caps[i], d))
        if caps[i] > fgl.M:
            raise ValueError(
                "cap %d exceeds the law's truncation order %d"
                % (caps[i], fgl.M))
        relred.append(_relation(fgl, k, caps[i]))
    return CohRing(group, fgl, caps, wdegs, relred)


def cohring_from_relation(fgl, g, d):
    """Rank-d ring with one generator y modulo a polynomial g that is monic
    at degree d and vanishes above it; the basis is 1, y, ..., y^{d-1}."""
    ctx = fgl.ctx
    if g.ctx is not ctx:
        raise ValueError("relation context differs from the law's")
    if d < 1 or d > g.M:
        raise ValueError("degree out of range")
    if not ctx.eq_to(g.c[d], ctx.one(), 1):
        raise ValueError("polynomial is not monic at the stated degree")
    for i in range(d + 1, g.M + 1):
        if g.c[i].t and not ctx.is_zero_to(g.c[i], 1):
            raise ValueError("nonzero coefficient above the degree")
    return CohRing(None, fgl, (g.M,), (d,), [_reduction(g, d)])


def sound_basis_cap(p, n, k, D, depth):
    """Per-factor cap for a depth-digit probe on a C_{p^k} factor (the junk
    budget of the cli module docstring)."""
    d = p ** (n * k)
    cap = d + depth * p ** (n * (k - 1)) * (p ** n - 1)
    if n >= 2:
        cap = max(cap, d + (D + 1) * (d - 1) + 1)
    return cap


def caps_for(p, n, exps, D, depth):
    return tuple(sound_basis_cap(p, n, k, D, depth) for k in exps)


def sound_depth(p, n, exps, D, caps):
    """Digits no truncation junk reaches at these caps, the inverse of
    sound_basis_cap: the greatest depth whose cap every factor reaches."""
    depth = 0
    while all(sound_basis_cap(p, n, k, D, depth + 1) <= cap
              for k, cap in zip(exps, caps)):
        depth += 1
    return depth


class RingElem:
    """Normal-form element: coordinates over the monomial basis.  Only
    nonempty coefficients are kept."""

    __slots__ = ("ring", "coord")

    def __init__(self, ring, coord):
        self.ring = ring
        self.coord = coord

    def __eq__(self, other):
        return (isinstance(other, RingElem) and self.ring is other.ring
                and self.coord == other.coord)

    def __repr__(self):
        return "RingElem(%d terms)" % len(self.coord)


def _check_ring(a, b):
    if a.ring is not b.ring:
        raise ValueError("elements of different rings")


def elem_add(a, b):
    _check_ring(a, b)
    ctx = a.ring.ctx
    coord = dict(a.coord)
    for k, c in b.coord.items():
        cur = coord.get(k)
        s = c if cur is None else ctx.add(cur, c)
        if s.t:
            coord[k] = s
        elif cur is not None:
            del coord[k]
    return RingElem(a.ring, coord)


def elem_scale(e, a):
    ctx = a.ring.ctx
    coord = {}
    for k, c in a.coord.items():
        prod = ctx.mul(e, c)
        if prod.t:
            coord[k] = prod
    return RingElem(a.ring, coord)


def _nf_accumulate(ring, out, exps, c):
    """Add c times the normal form of the monomial with the given exponents
    into a coordinate accumulator, whose coefficients it owns.

    The products of each reduced factor but the last are formed first, and
    those of the last are summed into the accumulator as they are formed.
    The PrecisionError raised is the one that forming every product before
    the first sum raises: when a sum raises, the products left are formed,
    and the first of them to raise wins."""
    ctx = ring.ctx
    wdegs = ring.wdegs
    last = max((i for i, e in enumerate(exps) if e >= wdegs[i]), default=-1)
    if last < 0:
        cur = out.get(exps)
        if cur is not None:
            s = ctx.add(cur, c)
            if s.t:
                out[exps] = s
            else:
                del out[exps]
        elif c.t:
            # a copy: later sums are written into it in place
            out[exps] = CoeffElem(ctx, dict(c.t))
        return
    parts = [((), c)]
    for i in range(last):
        e = exps[i]
        if e < wdegs[i]:
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
    row = sorted(ring.table_row(last, exps[last]).items())
    tail = tuple(exps[last + 1:])
    pairs = [(key + (a,) + tail, val, t) for key, val in parts
             for a, t in row]
    for i, (key, val, t) in enumerate(pairs):
        cur = out.get(key)
        try:
            if cur is None:
                prod = ctx.mul(val, t)
                if prod.t:
                    out[key] = prod
                continue
            ctx.addmul_into(cur.t, val, t)
        except PrecisionError:
            for _, val, t in pairs[i:]:
                ctx.mul(val, t)
            raise
        if not cur.t:
            del out[key]


def normal_form(ring, s, var):
    """Reduce a one-variable series in y_var, cut at the ring's cap for
    y_var, to basis coordinates."""
    if s.ctx is not ring.ctx:
        raise ValueError("series context differs from the ring's")
    cap = ring.caps[var]
    exps = [0] * len(ring.wdegs)
    out = {}
    for d, c in enumerate(s.c[:cap + 1]):
        if not c.is_zero():
            exps[var] = d
            _nf_accumulate(ring, out, tuple(exps), c)
    return RingElem(ring, out)


def elem_mul(a, b):
    """Product of two normal-form elements.

    The raw coefficient products are summed per exponent tuple first, in
    the order of the pairs of basis monomials (a's sorted keys, then b's),
    each pair multiplied straight into its sum (addmul_into).  Reduction
    is linear, so each distinct tuple then goes through its reduction
    tables once, in sorted order, instead of once per pair that lands on
    it.
    """
    _check_ring(a, b)
    ring = a.ring
    ctx = ring.ctx
    raw = {}
    bterms = sorted(b.coord.items())
    for A, ca in sorted(a.coord.items()):
        for B, cb in bterms:
            key = tuple(map(add, A, B))
            cur = raw.get(key)
            if cur is None:
                c = ctx.mul(ca, cb)
                if c.t:
                    raw[key] = c
                continue
            ctx.addmul_into(cur.t, ca, cb)
            if not cur.t:
                del raw[key]
    out = {}
    for key in sorted(raw):
        _nf_accumulate(ring, out, key, raw[key])
    return RingElem(ring, out)


def elem_is_zero_to(a, depth):
    """False as soon as one coordinate is definitely nonzero; raises when a
    shallow marker blocks the verdict."""
    ctx = a.ring.ctx
    blocked = None
    for c in a.coord.values():
        try:
            if not ctx.is_zero_to(c, depth):
                return False
        except PrecisionError as e:
            blocked = e
    if blocked is not None:
        raise blocked
    return True


def elem_eq_to(a, b, depth):
    _check_ring(a, b)
    ctx = a.ring.ctx
    blocked = None
    for k in set(a.coord) | set(b.coord):
        ca, cb = a.coord.get(k), b.coord.get(k)
        if ca is None:
            diff = cb
        elif cb is None:
            diff = ca
        else:
            diff = ctx.sub_raw(ca, cb)
        try:
            if not ctx.is_zero_to(diff, depth):
                return False
        except PrecisionError as e:
            blocked = e
    if blocked is not None:
        raise blocked
    return True


def elem_powers(x):
    """A function e -> x^e, each power formed once, as x^(e-1) times x."""
    pows = [x.ring.one(), x]

    def power(e):
        while len(pows) <= e:
            pows.append(elem_mul(pows[-1], x))
        return pows[e]
    return power


def elem_poly(ring, terms, pows):
    """The sum of c * prod_i pows[i](e_i) over a map terms: exps -> c, each
    pows[i] an elem_powers ladder.

    Terms are grouped by their last exponent e.  Each term is c times the
    power of its first nonzero exponent (elem_scale), or the constant c,
    times one ring product per further nonzero exponent but the last; each
    group's sum then takes one product with the e-th power of the last
    ladder, so a full product is paid per distinct e, not per term."""
    last = len(pows) - 1
    groups = {}
    for exps in sorted(terms):
        c = terms[exps]
        term = None
        for i, e in enumerate(exps[:last]):
            if not e:
                continue
            if term is None:
                term = elem_scale(c, pows[i](e))
            else:
                term = elem_mul(term, pows[i](e))
        if term is None:
            term = ring.const(c)
        e = exps[last] if exps else 0
        cur = groups.get(e)
        groups[e] = term if cur is None else elem_add(cur, term)
    out = ring.zero()
    for e in sorted(groups):
        part = groups[e]
        if e:
            part = elem_mul(part, pows[last](e))
        out = elem_add(out, part)
    return out


def series_in_elem(ring, s, x):
    """Evaluate a one-variable series on a ring element, split after
    Paterson and Stockmeyer: degree d = i*k + j with k = isqrt(M + 1) and
    j < k, so elem_poly over the ladders of x and x^k takes about
    3*sqrt(M) ring products, against M for Horner's rule."""
    if s.ctx is not ring.ctx:
        raise ValueError("series context differs from the ring's")
    if x.ring is not ring:
        raise ValueError("element of a different ring")
    k = math.isqrt(s.M + 1)
    xpow = elem_powers(x)
    terms = {(d % k, d // k): c for d, c in enumerate(s.c) if c.t}
    return elem_poly(ring, terms, [xpow, elem_powers(xpow(k))])


def point_class(ring, tvals):
    """Formal sum over factors of the t_j-series of y_j, in the ring.  This
    is the cohomology class attached to a tuple of character exponents; a
    zero tuple gives zero.

    Each [t_j](y_j) enters as the normal form of a one-variable series cut
    at its cap.  Each further factor x is folded in as F(acc, x) =
    sum_i acc^i R_i with R_i = sum_j F_ij x^j, over the terms of F with j
    at most x's cap and i at most the sum of acc's caps: elem_poly over
    F's terms keyed (j, i), on the ladders of x and acc.

    Soundness: ring products are exact, so only terms F_ij acc^i x^j are
    lost.  Past the caps above, every monomial of such a term lies past
    some cap of the ring.  Past F's total-degree cap M, its total y-degree
    exceeds M, which is at least every cap, so it too lies where the junk
    budget of the caps applies.  The class therefore agrees with
    F([t_1](y_1), ..., [t_r](y_r)) to the junk-sound depth of the caps
    (sound_depth)."""
    fgl = ring.fgl
    xs = []
    for j, t in enumerate(tvals):
        t %= fgl.p ** ring.group.exps[j]
        if t:
            xs.append((ring.caps[j],) + _factor_class(ring, t, j))
    if not xs:
        return ring.zero()
    acap, acc, apow = xs[0]
    for xcap, x, xpow in xs[1:]:
        F = fgl.F
        (si, mi), (sj, mj) = F.layout.fields
        terms = {}
        for k, c in F.t.items():
            i, j = (k >> si) & mi, (k >> sj) & mj
            if i <= acap and j <= xcap:
                terms[(j, i)] = c
        acc = elem_poly(ring, terms, [xpow, apow])
        apow = elem_powers(acc)
        acap += xcap
    return acc


def _factor_class(ring, t, j):
    """(x, elem_powers(x)) for x = [t](y_j) in normal form, memoized on the
    ring by (t, j), so the characters of one ring share each factor class
    and the powers of it that any of them formed."""
    got = ring._classes.get((t, j))
    if got is None:
        x = normal_form(ring, ring.fgl.m_series(t), j)
        got = ring._classes[(t, j)] = (x, elem_powers(x))
    return got


class RingMap:
    """Ring map induced contravariantly by a group homomorphism: sends
    elements over the target group to elements over the source group."""

    __slots__ = ("hom", "dom", "cod", "gen_images", "_pows")

    def __init__(self, hom, dom, cod, gen_images):
        self.hom = hom
        self.dom = dom
        self.cod = cod
        self.gen_images = gen_images
        self._pows = [elem_powers(g) for g in gen_images]

    def power(self, i, e):
        return self._pows[i](e)

    def apply(self, x):
        """Image of a domain element: elem_poly over its coordinates on
        the ladders of the generator images."""
        if x.ring is not self.dom:
            raise ValueError("element not in the map's domain ring")
        return elem_poly(self.cod, x.coord, self._pows)


def pullback(hom, dom_ring, cod_ring):
    if dom_ring.group != hom.dst:
        raise ValueError("domain ring is not over the homomorphism's target")
    if cod_ring.group != hom.src:
        raise ValueError("codomain ring is not over the homomorphism's source")
    if dom_ring.fgl is not cod_ring.fgl:
        raise ValueError("rings were built over different laws")
    gens = []
    for i in range(hom.dst.rank):
        gens.append(point_class(cod_ring, hom.char_exponents(i)))
    return RingMap(hom, dom_ring, cod_ring, gens)


def aligned_quotient_shape(hom):
    """source-factor index carried by each target factor, for matrices with
    one unit entry per row in distinct columns; None otherwise."""
    p = hom.src.p
    sigma = {}
    for i, row in enumerate(hom.mat):
        nz = [j for j, m in enumerate(row) if m != 0]
        if len(nz) != 1:
            return None
        j = nz[0]
        if row[j] % p == 0 or hom.dst.exps[i] > hom.src.exps[j]:
            return None
        sigma[i] = j
    if len(set(sigma.values())) != len(sigma):
        return None
    return sigma


def _invertible_mod_p(p, mat):
    """Whether a square matrix over F_p (entries reduced mod p) is
    invertible, by Gaussian elimination."""
    size = len(mat)
    work = [row[:] for row in mat]
    for col in range(size):
        piv = next((r for r in range(col, size) if work[r][col]), None)
        if piv is None:
            return False
        work[col], work[piv] = work[piv], work[col]
        inv = pow(work[col][col], -1, p)
        for r in range(col + 1, size):
            f = work[r][col] * inv % p
            if f:
                work[r] = [(a - f * b) % p
                           for a, b in zip(work[r], work[col])]
    return True


def _factor_block_unit(fgl, k, l, entry):
    """Change-of-basis block for one cyclic factor of the module structure:
    rows are basis exponents of the order-p^k ring, columns run over
    (image-basis power, complementary exponent).  Returns whether its
    reduction has unit determinant, memoized on the law; nothing is stored
    when the build raises."""
    memo = (k, l, entry)
    got = fgl._b_cache.get(memo)
    if got is not None:
        return got
    p, n = fgl.p, fgl.n
    big = build_cohring(AbelianPGroup(p, (k,)), fgl)
    small = build_cohring(AbelianPGroup(p, (l,)), fgl)
    sub = GroupHom(AbelianPGroup(p, (k,)), AbelianPGroup(p, (l,)), [[entry]])
    img = pullback(sub, small, big).gen_images[0]
    dbig = p ** (n * k)
    bound = p ** (n * (k - l))
    ctx = fgl.ctx
    mat = [[0] * dbig for _ in range(dbig)]
    colidx = 0
    power = elem_powers(img)
    for w in range(p ** (n * l)):
        for b in range(bound):
            col = elem_mul(power(w), _mono(big, b))
            for key, c in col.coord.items():
                mat[key[0]][colidx] = ctx.reduce_mod_pv(c)
            colidx += 1
    got = fgl._b_cache[memo] = _invertible_mod_p(p, mat)
    return got


def _mono(ring, b):
    exps = (b,)
    return RingElem(ring, {exps: ring.ctx.one()})


def verify_free_over_subring(hom, big_ring, small_ring):
    """Freeness of the big ring as a module over the image of the small
    one, with the monomial basis bounded by the per-factor order drop.

    Only factor-aligned surjections are supported; for those the
    change-of-basis matrix is a Kronecker product of per-factor blocks, and
    it is invertible exactly when each block's reduction has unit
    determinant."""
    if big_ring.group != hom.src or small_ring.group != hom.dst:
        raise ValueError("rings do not match the homomorphism")
    if big_ring.fgl is not small_ring.fgl:
        raise ValueError("rings were built over different laws")
    fgl = big_ring.fgl
    p, n = fgl.p, fgl.n
    params = {"p": p, "n": n, "group": big_ring.group.descriptor(),
              "quotient": small_ring.group.descriptor(),
              "matrix": [list(r) for r in hom.mat]}
    sigma = aligned_quotient_shape(hom)
    if sigma is None:
        raise ValueError("freeness check needs a factor-aligned surjection")
    inv_sigma = {j: i for i, j in sigma.items()}
    factors = []
    ok = True
    rank = 1
    for j, k in enumerate(hom.src.exps):
        i = inv_sigma.get(j)
        l = hom.dst.exps[i] if i is not None else 0
        bound = p ** (n * (k - l))
        rank *= bound
        if l == 0:
            factors.append({"factor": j, "rank": bound,
                            "block": "identity"})
            continue
        unit = _factor_block_unit(fgl, k, l, hom.mat[i][j])
        ok = ok and unit
        factors.append({"factor": j, "rank": bound,
                        "unit_determinant": unit})
    kernel = hom.src.order // hom.dst.order
    witness = {"rank": rank, "expected_rank": kernel ** n,
               "factors": factors}
    verdict = "PASS" if ok and rank == kernel ** n else "FAIL"
    return make_check(
        "free-over-subring", "lemma-2.4", params, verdict, witness,
        precision_note(fgl.ctx, caps=big_ring.caps))


def verify_rank(ring):
    expected = ring.group.order ** ring.fgl.n
    verdict = "PASS" if ring.rank == expected else "FAIL"
    return make_check(
        "module-rank", "lemma-2.4",
        {"p": ring.fgl.p, "n": ring.fgl.n,
         "group": ring.group.descriptor()},
        verdict, {"rank": ring.rank, "expected": expected},
        precision_note(ring.ctx, caps=ring.caps))
