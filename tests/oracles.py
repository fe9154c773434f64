"""Independent exact-rational reference for the formal group computations.

Everything here works over Q[u, u^-1][v_1, ..., v_{n-1}] with Fraction
coefficients and dense lists by y-degree.  No imports from the package under
test: this is the second opinion the floating p-adic engine is checked
against at small truncations.
"""

from fractions import Fraction

# coefficient: dict {(uexp, vtuple): Fraction}, zero coefficients dropped


def qc_zero():
    return {}


def qc_const(q, n):
    q = Fraction(q)
    if q == 0:
        return {}
    return {(0, (0,) * (n - 1)): q}


def qc_add(a, b):
    out = dict(a)
    for k, q in b.items():
        s = out.get(k, Fraction(0)) + q
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def qc_scale(q, a):
    q = Fraction(q)
    if not q:
        return {}
    return {k: q * c for k, c in a.items()}


def qc_mul(a, b):
    out = {}
    for (ua, va), ca in a.items():
        for (ub, vb), cb in b.items():
            k = (ua + ub, tuple(x + y for x, y in zip(va, vb)))
            s = out.get(k, Fraction(0)) + ca * cb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def qc_weight(p, k):
    """The weight of the term key (uexp, vtuple): its u-exponent plus
    sum (p^i - 1) b_i, where v_i = u^(p^i - 1) in degree terms."""
    ue, vt = k
    return ue + sum((p ** i - 1) * b for i, b in enumerate(vt, start=1))


def qc_project(p, a, weight=None):
    """Assert that a is homogeneous (of this weight, when given) and drop
    u: {vtuple: Fraction}.  Homogeneity is what makes u = 1 lossless."""
    weights = {qc_weight(p, k) for k in a}
    assert len(weights) <= 1, "inhomogeneous coefficient %r" % (a,)
    assert weight is None or weights <= {weight}, \
        "coefficient %r is not of weight %d" % (a, weight)
    return {vt: q for (_, vt), q in a.items()}


def qc_pow(a, e):
    out = None
    base = a
    while e:
        if e & 1:
            out = base if out is None else qc_mul(out, base)
        e >>= 1
        if e:
            base = qc_mul(base, base)
    return out if out is not None else {}


def v_generator(p, n, j):
    """v_j as a coefficient: stored generator for j < n, u-power for j = n,
    zero beyond."""
    if j == 0:
        return qc_const(p, n)
    if j < n:
        vt = [0] * (n - 1)
        vt[j - 1] = 1
        return {(0, tuple(vt)): Fraction(1)}
    if j == n:
        return {(p ** n - 1, (0,) * (n - 1)): Fraction(1)}
    return {}


def log_coeffs(p, n, K):
    """l_0..l_K with p*l_k = sum_{i<=k} l_i * v_{k-i}^{p^i}."""
    ls = [qc_const(1, n)]
    for k in range(1, K + 1):
        rhs = qc_zero()
        for i in range(k):
            term = qc_mul(ls[i], qc_pow(v_generator(p, n, k - i), p ** i))
            rhs = qc_add(rhs, term)
        scale = Fraction(1, p - p ** (p ** k))
        ls.append(qc_scale(scale, rhs))
    return ls


# series: list of coefficients indexed by y-degree, length M+1


def ser_zero(M):
    return [qc_zero() for _ in range(M + 1)]


def ser_add(f, g):
    return [qc_add(a, b) for a, b in zip(f, g)]


def ser_scale(q, f):
    return [qc_scale(q, a) for a in f]


def ser_scale_qc(c, f):
    return [qc_mul(c, a) for a in f]


def ser_mul(f, g):
    M = len(f) - 1
    out = ser_zero(M)
    for i, a in enumerate(f):
        if not a:
            continue
        for j in range(M - i + 1):
            if g[j]:
                out[i + j] = qc_add(out[i + j], qc_mul(a, g[j]))
    return out


def ser_compose(f, g, M):
    """f(g(y)) for g with zero constant term, to y-degree M."""
    assert not g[0]
    out = ser_zero(M)
    out[0] = f[0]
    power = None
    for i in range(1, len(f)):
        power = g[: M + 1] if power is None else ser_mul(power, g[: M + 1])
        if all(not c for c in power):
            break
        if f[i]:
            out = ser_add(out, ser_scale_qc(f[i], power))
    return out


def log_series(p, n, M):
    """L(y) = sum l_k y^{p^k} through y-degree M."""
    K = 0
    while p ** (K + 1) <= M:
        K += 1
    ls = log_coeffs(p, n, K)
    out = ser_zero(M)
    for k, l in enumerate(ls):
        d = p ** k
        if d <= M:
            out[d] = l
    return out


def exp_series(p, n, M):
    """E with L(E(y)) = y, solved degree by degree.

    E[m] enters the y^m coefficient of L(E) only through the linear part of
    L, with coefficient 1, so each degree is solved by one negation."""
    L = log_series(p, n, M)
    E = ser_zero(M)
    E[1] = qc_const(1, n)
    for m in range(2, M + 1):
        comp = ser_compose(L, E, M)
        E[m] = qc_scale(-1, comp[m])
    return E


def fgl_2var(p, n, Mx, My):
    """F(x, y) as a (Mx+1) x (My+1) array of coefficients."""
    M = Mx + My
    L = log_series(p, n, M)
    E = exp_series(p, n, M)
    # F = E(L(x) + L(y)); expand with x-degree and y-degree tracked
    # two-variable series: dict {(i, j): coefficient}
    Lx = {(d, 0): c for d, c in enumerate(L) if c and d <= Mx}
    Ly = {(0, d): c for d, c in enumerate(L) if c and d <= My}
    S = dict(Lx)
    for k, c in Ly.items():
        S[k] = qc_add(S.get(k, qc_zero()), c)

    def mul2(A, B):
        out = {}
        for (i1, j1), a in A.items():
            for (i2, j2), b in B.items():
                i, j = i1 + i2, j1 + j2
                if i > Mx or j > My:
                    continue
                k = (i, j)
                cur = out.get(k)
                out[k] = qc_add(cur, qc_mul(a, b)) if cur else qc_mul(a, b)
                if not out[k]:
                    del out[k]
        return out

    F = {}
    power = None
    for d in range(1, M + 1):
        power = S if power is None else mul2(power, S)
        if not power:
            break
        if E[d]:
            for k, c in power.items():
                term = qc_mul(E[d], c)
                cur = F.get(k)
                s = qc_add(cur, term) if cur else term
                if s:
                    F[k] = s
                else:
                    F.pop(k, None)
    out = [[qc_zero() for _ in range(My + 1)] for _ in range(Mx + 1)]
    for (i, j), c in F.items():
        out[i][j] = c
    return out


def m_series(p, n, m, M):
    """[m](y) = E(m * L(y)) through degree M."""
    L = log_series(p, n, M)
    E = exp_series(p, n, M)
    return ser_compose(E, ser_scale(m, L), M)


def formal_sum(p, n, f, g, M):
    """F(f(y), g(y)) for one-variable series with zero constant term."""
    F = fgl_2var(p, n, M, M)
    out = ser_zero(M)
    fp = None
    for i in range(M + 1):
        if i == 0:
            fp = [qc_const(1, n)] + [qc_zero() for _ in range(M)]
        else:
            fp = ser_mul(fp, f)
        gp = None
        for j in range(M + 1):
            if j == 0:
                gp = [qc_const(1, n)] + [qc_zero() for _ in range(M)]
            else:
                gp = ser_mul(gp, g)
            if i == 0 and j == 0:
                continue
            c = F[i][j]
            if not c:
                continue
            prod = ser_mul(fp, gp)
            out = ser_add(out, ser_scale_qc(c, prod))
    return out
