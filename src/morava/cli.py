"""Command-line front end: series printing, Euler classes, and the check
suites.

Three verbs.  `pseries` prints a p^k-series and can assert its defining
congruence or write a golden vector.  `euler` prints the total and reduced
Euler products of a group.  `verify` runs one named suite, or the whole
battery, and writes a deterministic JSON report.  Each suite is a list of
rows, one per record: the law's (p, n, D, M), the group, the check, and
whether the row is large.  `run_rows` alone applies `--p`, `--n`, `--group`,
`--r` and `--large` and runs each row's check through `Builder.run`;
`paper-suite` runs the law checks and every suite per (p, n) shard.

Two policies keep the records sound without hand-tuning:

* Precision is adaptive, with one retry rule.  Every computation starts
  from the requested p-adic precision, and every precision shortfall
  raises PrecisionError; no check catches it.  `Builder.run` alone
  reruns the computation, on a law with a doubling pad of guard digits
  plus the error's `needed_extra`, for every verb.  Past GUARD_LIMIT digits
  over the request the error propagates and the CLI exits 1.  A record
  therefore never rests on fewer trusted digits than its stated depth,
  and reports state the precision actually used.  `pseries` and `euler`
  render their text inside the computation, so a printed digit that a
  scalar does not trust is a shortfall like any other.

* Degree caps come from the junk budget.  Reduction against a degree-d
  relation feeds the cap overflow back into low degrees at valuation
  lambda = 1 / (p^{n(k-1)} (p^n - 1)) per excess degree, so a depth-t probe
  needs caps of d + t / lambda.  At height 2 and up, relation tails can
  also carry valuation-0 coefficients with low v-degree, and those only
  leave the window once the cap clears d + (D+1)(d-1) + 1.

Reports carry no wall times (they must be byte-identical across runs);
timing lines go to stderr.  Exit codes: 0 when no check fails, 1 when one
does, 2 for usage or configuration errors.
"""

import argparse
import os
import sys
import time
from collections import namedtuple
from functools import partial

from . import __version__
from .euler import (reduced_euler, total_euler, verify_restriction_vanishing,
                    verify_unit_divisibility)
from .fgl import (CacheError, build_fgl, build_fgl_cached,
                  check_associativity, check_commutativity, check_integrality,
                  check_pk_congruence, check_unitality)
from .groupcoh import (AbelianPGroup, build_cohring, caps_for, sound_depth,
                       verify_free_over_subring, verify_rank)
from .localize import (verify_elementary_quotient_transfer,
                       verify_height_drop_unit, verify_inverted_prime_model,
                       verify_localized_nonvanishing,
                       verify_mutual_euler_divisibility)
from .padic import PrecisionError
from .report import make_check, make_report, precision_note, render_json
from .series import golden_dump

GRID_EXPS = ((1,), (2,), (1, 1), (2, 1))

# Basis-walking rows of modules of this rank and above are large; rank
# and freeness records never walk the basis and are never large.
LARGE_RANK = 16

# A basis-walking check on a rank >= 2 group needs the two-variable law up
# to the largest per-factor cap, and its classes fill a basis of rank p^{nk}
# per factor.  Past a cap of ~150 a record costs seconds: the restriction
# record of C9 x C3 at p=3, n=2, caps (242, 26), 3.7 s of CPU with the law
# cache off on a 2-core VM.  Only the measured case ships, as a large row;
# anything else in that regime has no row.
HEAVY_ENUM_OK = {(3, 2, (2, 1))}

# Guard digits above the requested precision past which a precision retry
# gives up instead of rebuilding the law again.
GUARD_LIMIT = 512


class ConfigError(Exception):
    pass


def _log(msg):
    print(msg, file=sys.stderr)


def parse_orders(text):
    try:
        orders = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ConfigError("group descriptor must be comma-separated "
                          "integers, e.g. 4,2")
    if not orders or any(q < 2 for q in orders):
        raise ConfigError("cyclic orders must be at least 2")
    return orders


def infer_p(orders):
    """The least prime factor of the first order."""
    q = orders[0]
    d = 2
    while d * d <= q:
        if q % d == 0:
            return d
        d += 1
    return q


def group_key(cfg):
    """(p, factor exponents) of --group at --p or the prime it infers, or
    None without --group."""
    if cfg.group is None:
        return None
    p = cfg.p if cfg.p is not None else infer_p(cfg.group)
    try:
        return p, AbelianPGroup.from_orders(p, cfg.group).exps
    except ValueError as e:
        raise ConfigError(str(e))


def probe_depth_default(n):
    return 4 if n == 1 else 2


def suite_vdeg(cfg):
    if cfg.D is not None:
        return cfg.D
    return 1


def rich_vdeg(n):
    """v-degree used where the v-structure itself is under test."""
    return {1: 1, 2: 6}.get(n, 4)


class RunConfig:
    """Validated flag bundle shared by all three verbs."""

    def __init__(self, args):
        self.p = args.p
        self.n = args.n
        self.N_req = args.precision
        self.D = args.vdeg
        self.M = getattr(args, "ydeg", None)
        group = getattr(args, "group", None)
        self.group = parse_orders(group) if group else None
        self.T = getattr(args, "t", None)
        self.r = getattr(args, "r", None)
        self.large = getattr(args, "large", False)
        self.cache_dir = (args.cache if args.cache is not None else
                          os.environ.get("MORAVA_CACHE_DIR", ".cache"))
        if self.p is not None and (self.p < 2
                                   or infer_p((self.p,)) != self.p):
            raise ConfigError("p must be prime, got %r" % (self.p,))
        if self.n is not None and self.n < 1:
            raise ConfigError("n must be at least 1")
        if self.N_req < 1:
            raise ConfigError("precision must be at least 1")
        if self.D is not None and self.D < 0:
            raise ConfigError("v-degree cap must be nonnegative")
        if self.M is not None and self.M < 1:
            raise ConfigError("y-degree cap must be at least 1")
        if self.T is not None and self.T < 0:
            raise ConfigError("t bound must be nonnegative")
        group_key(self)


class Builder:
    """Builds laws at adaptive precision and reruns starved computations.

    Every precision shortfall, in a law build or in a check, raises
    PrecisionError, and this is the one place that reads it: guard digits
    are added by the error's `needed_extra`, never by its message.  The
    requested precision stays the baseline every fresh computation starts
    from.  Past GUARD_LIMIT the error propagates and the CLI exits 1.
    """

    def __init__(self, cfg):
        self.cache_dir = cfg.cache_dir
        self.N_req = cfg.N_req
        self._memo = {}

    def fgl(self, p, n, D, M, N=None):
        """The law at (p, n, D, M), built at N (default the requested
        precision) or, while the build raises PrecisionError, at the
        precisions the climb goes on to; memoized by the N asked for.
        With a cache directory every build goes through build_fgl_cached,
        whose entry, written on a cold cache, replays the outcome at that
        precision on a warm one."""
        want = self.N_req if N is None else N
        key = (p, n, D, M, want)
        got = self._memo.get(key)
        if got is not None:
            return got
        cur = want
        while True:
            try:
                if self.cache_dir:
                    f = build_fgl_cached(p, n, N=cur, D=D, M=M,
                                         cache_dir=self.cache_dir)
                else:
                    f = build_fgl(p, n, N=cur, D=D, M=M)
                break
            except PrecisionError as e:
                if cur - want > GUARD_LIMIT:
                    raise
                cur += max(e.needed_extra, 1) + 7
        self._memo[key] = f
        return f

    def run(self, p, n, D, M, make):
        """make(law), rerun while it raises PrecisionError on a law with
        the guard pad plus the error's `needed_extra` digits more.  Past
        GUARD_LIMIT digits over the request the error is raised again."""
        # The guard pad doubles on every starved attempt: stacked
        # cancellations reveal their depth a few digits at a time, and a
        # linear pad can burn many attempts approaching the fixed point.
        N = None
        pad = 8
        while True:
            f = self.fgl(p, n, D, M, N=N)
            N = f.ctx.N - 1 + pad
            pad *= 2
            try:
                return make(f)
            except PrecisionError as e:
                N += max(e.needed_extra, 1)
                if N - self.N_req > GUARD_LIMIT:
                    raise


# ---------------------------------------------------------------------------
# rendering

def scalar_text(ctx, c, digits):
    """The scalar with its unit read to ``digits`` p-adic digits, so the
    text does not depend on the working precision a retry ended at.  A
    nonzero scalar that trusts fewer digits raises PrecisionError for the
    shortfall, and `Builder.run` supplies it."""
    v, u, k = c
    if u == 0 or digits <= 0:
        return "0"
    if k < digits:
        raise PrecisionError("printed scalar trusts %d of %d digits"
                             % (k, digits), needed_extra=digits - k)
    p = ctx.p
    q = p ** digits
    m = u % q
    if m > q // 2:
        m -= q
    if v >= 0:
        return str(m * p ** v)
    return "%d/%d" % (m, p ** (-v))


def coeff_text(ctx, e, digits, weight, depth=None):
    """The coefficient e, homogeneous of this weight, as text: each term
    gets back the power of u that the grading gives it.  With depth given,
    each scalar is read modulo p^depth instead of to ``digits`` digits.
    Terms that read 0 are left out."""
    parts = []
    for vc, c in sorted(e.t.items()):
        s = scalar_text(ctx, c, digits if depth is None else depth - c[0])
        if s == "0":
            continue
        factors = []
        ue = ctx.u_exponent(weight, vc)
        if ue == 1:
            factors.append("u")
        elif ue:
            factors.append("u^%d" % ue)
        for i, ve in enumerate(ctx.vexps(vc), start=1):
            if ve == 1:
                factors.append("v_%d" % i)
            elif ve:
                factors.append("v_%d^%d" % (i, ve))
        if not factors:
            parts.append(s)
        elif s == "1":
            parts.append("*".join(factors))
        elif s == "-1":
            parts.append("-" + "*".join(factors))
        else:
            parts.append("*".join([s] + factors))
    if not parts:
        return "0"
    out = parts[0]
    for t in parts[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


def series_lines(s, digits):
    ctx = s.ctx
    lines = []
    for d in range(s.M + 1):
        e = s.c[d]
        if not e.t:
            continue
        cs = coeff_text(ctx, e, digits, d - 1)
        ytag = "y" if d == 1 else "y^%d" % d
        if d == 0:
            lines.append(cs)
        elif cs == "1":
            lines.append(ytag)
        elif cs == "-1":
            lines.append("-" + ytag)
        elif " " in cs:
            lines.append("(%s)*%s" % (cs, ytag))
        else:
            lines.append("%s*%s" % (cs, ytag))
    return lines or ["0"]


def elem_lines(x, depth, factors):
    """The ring element x, a product of this many Euler classes of
    characters, one coordinate a line, each read modulo p^depth; the
    coefficient of y^exps has weight |exps| - factors.  Coordinates that
    vanish modulo p^depth are left out."""
    ctx = x.ring.ctx
    lines = []
    for exps in sorted(x.coord):
        text = coeff_text(ctx, x.coord[exps], None, sum(exps) - factors,
                          depth)
        if text == "0":
            continue
        mono = "*".join(("y%d" % (i + 1)) + ("" if e == 1 else "^%d" % e)
                        for i, e in enumerate(exps) if e) or "1"
        lines.append("  %s: %s" % (mono, text))
    return lines or ["  0"]


def _param_text(v):
    if isinstance(v, (list, tuple)):
        return ",".join(str(t) for t in v)
    return str(v)


def print_records(records):
    for rec in records:
        params = rec.get("params") or {}
        ptxt = " ".join("%s=%s" % (k, _param_text(params[k]))
                        for k in sorted(params) if k != "matrix")
        print("[%s] %s (%s) %s" % (rec["verdict"], rec["check_id"],
                                   rec["anchor"], ptxt))
        wit = rec.get("witness") or {}
        for sub in wit.get("subgroups") or []:
            ok = (sub["total_restriction_exact_zero"]
                  and sub["reduced_restriction_exact_zero"]
                  and sub["pullback_probe_zero"])
            print("  subgroup %s (kernel of %s): %s"
                  % (sub["subgroup"], _param_text(sub["kernel_of"]),
                     "PASS" if ok else "FAIL"))


# ---------------------------------------------------------------------------
# suite rows

# One record of a suite: the prime, height, v-degree cap D and y-degree cap
# M of its law, the factor exponents of its group (None for a check of the
# law alone), its check make(law), and whether it runs only under --large.
Row = namedtuple("Row", "p n exps D M make large")


def grid_shards(p, n):
    """The (p, n) points of the default grid, primes 2 and 3 at heights 1
    and 2, at prime p and height n where given."""
    return [(ip, im) for ip in ([p] if p else [2, 3])
            for im in ([n] if n else [1, 2])]


def grid(p, n):
    """(p, n, factor exponents) of each GRID_EXPS group at each grid point."""
    return [(ip, im, exps) for ip, im in grid_shards(p, n)
            for exps in GRID_EXPS]


def run_rows(cfg, bld, rows, p, n):
    """The records of the rows at prime p and height n (any where None)
    whose group has rank --r and is --group (a check of the law alone
    stays), the rows marked large only under --large, in row order."""
    group = group_key(cfg)
    return [bld.run(r.p, r.n, r.D, r.M, r.make) for r in rows
            if p in (None, r.p) and n in (None, r.n)
            and (r.exps is None or cfg.r in (None, len(r.exps))
                 and group in (None, (r.p, r.exps)))
            and (cfg.large or not r.large)]


def ring_check(verify, group, caps, f, **kw):
    """verify(ring, **kw) on the ring of the group over the law f."""
    return verify(build_cohring(group, f, caps=caps), **kw)


def freeness_check(group, caps, target, q, scaps, f):
    big = build_cohring(group, f, caps=caps)
    small = build_cohring(target, f, caps=scaps)
    return verify_free_over_subring(q, big, small)


def rank_freeness_rows(cfg, p, n):
    D = suite_vdeg(cfg)
    rows = []
    for ip, im, exps in grid(p, n):
        group = AbelianPGroup(ip, exps)
        caps = caps_for(ip, im, exps, D, 1)
        rows.append(Row(ip, im, exps, D, max(caps),
                        partial(ring_check, verify_rank, group, caps), False))
        target, q = group.elementary_quotient()
        if target.exps != exps:
            scaps = caps_for(ip, im, target.exps, D, 1)
            rows.append(Row(ip, im, exps, D, max(caps),
                            partial(freeness_check, group, caps, target, q,
                                    scaps), False))
    return rows


def restriction_check(group, caps, D, probe, f):
    ring = build_cohring(group, f, caps=caps)

    def factory(sub):
        sc = caps_for(f.p, f.n, sub.exps, D, probe)
        return build_cohring(sub, f, caps=sc if sc else None)

    return verify_restriction_vanishing(ring, ring_factory=factory,
                                        probe_depth=probe)


def euler_vanishing_rows(cfg, p, n):
    D = suite_vdeg(cfg)
    rows = []
    for ip, im, exps in grid(p, n):
        probe = 2 if im == 1 else 1
        caps = caps_for(ip, im, exps, D, probe)
        if (len(exps) >= 2 and max(caps) > 150
                and (ip, im, exps) not in HEAVY_ENUM_OK):
            continue
        large = (ip ** sum(exps)) ** im >= LARGE_RANK
        group = AbelianPGroup(ip, exps)
        rows.append(Row(ip, im, exps, D, max(caps),
                        partial(restriction_check, group, caps, D, probe),
                        large))
        depth = probe_depth_default(im)
        dcaps = caps_for(ip, im, exps, D, depth)
        if max(dcaps) > 150:
            # The certificate search walks every character orbit and
            # evaluates a degree max(dcaps) - 1 series on each class.  At
            # p=3, n=2 the C9 record takes about 0.5 s of CPU (N=49) and the
            # C9 x C3 record about 19 s (N=81) with the law cache off on a
            # 2-core VM, and the restriction record above already covers
            # the vanishing claim.
            continue
        rows.append(Row(ip, im, exps, D, max(dcaps),
                        partial(ring_check, verify_mutual_euler_divisibility,
                                group, dcaps, depth=depth), large))
        if exps == (1,):
            rows += [Row(ip, im, exps, D, max(dcaps),
                         partial(ring_check, verify_unit_divisibility, group,
                                 dcaps, m=m, depth=depth), large)
                     for m in range(1, ip)]
    return rows


# (p, n, factor exponents, v-degree cap, y-degree cap, large) for the cyclic
# group C_p; caps chosen so the localized model's saturation probes stay
# junk-sound at the recorded depth.
HEIGHT_DROP_ROWS = ((2, 2, (1,), 6, 26, False), (3, 2, (1,), 6, 66, False),
                    (2, 3, (1,), 4, 44, True))


def height_drop_rows(cfg, p, n):
    check = partial(verify_height_drop_unit, T=cfg.T)
    return [Row(ip, im, exps, iD, iM, check, large)
            for ip, im, exps, iD, iM, large in HEIGHT_DROP_ROWS]


# (p, n, factor exponents, v-degree cap, y-degree cap) of the cyclic group
# C_p whose inverted-prime model is checked at height 1.
INVERTED_PRIME_ROWS = ((2, 1, (1,), 1, 24), (3, 1, (1,), 1, 24),
                       (5, 1, (1,), 1, 24))


def inverted_prime_rows(cfg, p, n):
    check = partial(verify_inverted_prime_model, T=cfg.T)
    return [Row(*row, check, False) for row in INVERTED_PRIME_ROWS]


# (p, n, factor exponents, v-degree cap, per-factor caps, probe depth).
# The first three probe nonvanishing within the height; the last runs the
# rank-above-height control expected to die at a finite power.
NONVANISHING_ROWS = (
    (2, 1, (1,), 1, (10,), 8),
    (3, 1, (1,), 1, (19,), 8),
    (2, 2, (1, 1), 12, (28, 28), 8),
    (2, 1, (1, 1), 1, (9, 9), 5),
)


def nonvanishing_rows(cfg, p, n):
    T = cfg.T if cfg.T is not None else 8
    return [Row(ip, im, exps, iD, max(caps),
                partial(ring_check, verify_localized_nonvanishing,
                        AbelianPGroup(ip, exps), caps, T=T, depth=depth),
                False)
            for ip, im, exps, iD, caps, depth in NONVANISHING_ROWS]


# (p, n, factor exponents, y-degree cap, ring caps, subring caps, depth,
# strong depth); the y-degree cap is 2 p^{nk} + 1 for the largest factor
# C_{p^k} where the ring caps are the default ones.  The order-9 case runs
# at raised caps with matching shallow probes, since default caps leave
# under two junk-safe digits at rank nine.
QUOTIENT_TRANSFER_ROWS = (
    (2, 1, (2,), 9, None, None, 4, 16),
    (2, 1, (2, 1), 9, None, None, 4, 16),
    (3, 1, (2,), 23, (23,), None, 2, 2),
)


def quotient_transfer_rows(cfg, p, n):
    return [Row(ip, im, exps, 1, iM,
                partial(verify_elementary_quotient_transfer,
                        AbelianPGroup(ip, exps), caps=caps, sub_caps=scaps,
                        depth=depth, strong_depth=strong), False)
            for ip, im, exps, iM, caps, scaps, depth, strong
            in QUOTIENT_TRANSFER_ROWS]


def congruence_check(k, f):
    s = f.m_series(f.p ** k)
    ok, wit = check_pk_congruence(f, s, k)
    intact = check_integrality(s)
    wit = dict(wit)
    wit["integral"] = intact
    verdict = "PASS" if ok and intact else "FAIL"
    return make_check("pk-series-congruence", "sec-2.1",
                      {"p": f.p, "n": f.n, "k": k}, verdict, wit,
                      precision_note(f.ctx, caps=[f.M]))


def integrity_check(acap, f):
    u_ok, uw = check_unitality(f, depth=8)
    c_ok, cw = check_commutativity(f, depth=8)
    a_ok, aw = check_associativity(f, cap=acap, depth=8)
    i_ok = check_integrality(f.F)
    verdict = "PASS" if u_ok and c_ok and a_ok and i_ok else "FAIL"
    wit = {"unitality": u_ok, "commutativity": c_ok,
           "associativity": a_ok, "integrality": i_ok,
           "law_cap": f.M, "associativity_cap": acap}
    if not (u_ok and c_ok and a_ok):
        wit["first_failure"] = uw if not u_ok else (cw if not c_ok else aw)
    return make_check("fgl-integrity", "sec-2.1", {"p": f.p, "n": f.n},
                      verdict, wit,
                      precision_note(f.ctx, caps=[f.M]))


# (k, large) of the [p^k]-series congruence checks per (p, n), k = 1 alone
# elsewhere.
CONGRUENCE_KS = {(2, 1): ((1, False), (2, False)),
                 (2, 2): ((1, False), (2, True))}

# (v-degree cap, law cap, associativity cap) per (p, n) for the axiom
# battery run inside paper-suite; acceptance runs the same checks at the
# full y-degree 32 instead.
INTEGRITY_SHAPES = {
    (2, 1): (1, 17, 12), (3, 1): (1, 17, 12), (5, 1): (1, 17, 12),
    (2, 2): (6, 9, 9), (3, 2): (6, 9, 9), (2, 3): (4, 9, 9),
}


def law_rows(p, n):
    """The sec-2.1 checks of the law at prime p and height n: its
    [p^k]-series congruences, then its axiom battery."""
    D = rich_vdeg(n)
    rows = [Row(p, n, None, D, p ** (n * k) + 1,
                partial(congruence_check, k), large)
            for k, large in CONGRUENCE_KS.get((p, n), ((1, False),))]
    iD, iM, acap = INTEGRITY_SHAPES.get((p, n), (1, 9, 9))
    return rows + [Row(p, n, None, iD, iM, partial(integrity_check, acap),
                       False)]


# Each suite's rows, in paper-suite shard order.  A row maker takes
# (cfg, p, n) and lists the rows at prime p and height n, any prime or
# height where None, or more: `run_rows` keeps those at p and n.
SUITE_ROWS = {
    "lemma-2.4": rank_freeness_rows,
    "lemma-2.6": euler_vanishing_rows,
    "prop-3.2-n1": inverted_prime_rows,
    "prop-3.2": height_drop_rows,
    "prop-3.3": nonvanishing_rows,
    "cor-3.4": quotient_transfer_rows,
}
SUITES = tuple(SUITE_ROWS) + ("paper-suite",)


def suite_records(cfg, suite):
    """The records of one suite.  paper-suite runs the law checks and then
    every suite per (p, n) shard, each shard on a Builder of its own, so a
    shard's laws and their caches go when it ends.  Height 3 joins the
    default grid as a shard whose rows are all large."""
    if suite != "paper-suite":
        rows = SUITE_ROWS[suite](cfg, cfg.p, cfg.n)
        return run_rows(cfg, Builder(cfg), rows, cfg.p, cfg.n)
    shards = [(p, n, False) for p, n in grid_shards(cfg.p, cfg.n)]
    if cfg.n is None and cfg.p in (None, 2):
        shards.append((2, 3, True))
    recs = []
    for p, n, large in shards:
        t0 = time.time()
        rows = law_rows(p, n) + [row for rows_of in SUITE_ROWS.values()
                                      for row in rows_of(cfg, p, n)]
        if large:
            rows = [row._replace(large=True) for row in rows]
        got = run_rows(cfg, Builder(cfg), rows, p, n)
        if got:
            _log("shard (p=%d, n=%d): %d records in %.1fs"
                 % (p, n, len(got), time.time() - t0))
        recs += got
    return recs


# ---------------------------------------------------------------------------
# verbs

def report_meta(cfg, suite):
    return {
        "tool": {"name": "morava", "version": __version__},
        "config": {
            "suite": suite,
            "p": cfg.p, "n": cfg.n, "precision": cfg.N_req,
            "vdeg": cfg.D, "ydeg": cfg.M,
            "group": ",".join(map(str, cfg.group)) if cfg.group else None,
            "t": cfg.T, "r": cfg.r, "large": cfg.large,
        },
    }


def cmd_verify(cfg, args):
    suite = args.suite
    if suite == "prop-3.2" and cfg.n == 1:
        raise ConfigError("prop-3.2 covers heights 2 and up; "
                          "run prop-3.2-n1 for the height-1 variant")
    t0 = time.time()
    records = suite_records(cfg, suite)
    _log("suite %s: %d records in %.1fs"
         % (suite, len(records), time.time() - t0))
    if not records:
        raise ConfigError("no %s instance matches the given flags" % suite)
    print_records(records)
    report = make_report(records, report_meta(cfg, suite))
    path = args.report or "morava-report.json"
    with open(path, "w") as fh:
        fh.write(render_json(report))
    counts = report["summary"]["counts"]
    print("%d checks: %d PASS, %d FAIL, %d INDETERMINATE, %d EVIDENCE"
          % (len(records), counts["PASS"], counts["FAIL"],
             counts["INDETERMINATE"], counts["EVIDENCE"]))
    if counts["INDETERMINATE"]:
        print("flagged: %d INDETERMINATE record(s); raise --t or run with "
              "wider caps to settle them" % counts["INDETERMINATE"])
    _log("report written to %s" % path)
    return 1 if counts["FAIL"] else 0


def cmd_pseries(cfg, args):
    p = cfg.p if cfg.p is not None else 2
    n = cfg.n if cfg.n is not None else 1
    k = args.k
    if k < 0:
        raise ConfigError("k must be nonnegative")
    lead = p ** (n * k)
    least = lead + 1
    M = cfg.M if cfg.M is not None else least
    if M < least:
        _log("warning: y-degree cap %d cannot hold the degree-%d leading "
             "term; raised to %d" % (M, lead, least))
        M = least
    D = cfg.D if cfg.D is not None else rich_vdeg(n)

    def compute(f):
        s = f.m_series(p ** k)
        checked = (True, None) if k == 0 else check_pk_congruence(f, s, k)
        return s, checked, series_lines(s, cfg.N_req)

    s, (ok, wit), lines = Builder(cfg).run(p, n, D, M, compute)
    for line in lines:
        print(line)
    code = 0
    if k >= 1:
        if ok:
            upart = "u" if lead == 2 else "u^%d" % (lead - 1)
            ideal = [str(p)] + ["v_%d" % i for i in range(1, n)] \
                + ["y^%d" % (lead + 1)]
            print("leading reduced term %sy^%d mod (%s)"
                  % (upart, lead, ", ".join(ideal)))
        if args.check_congruence:
            print("congruence %s at (p, n, k) = (%d, %d, %d)"
                  % ("PASS" if ok else "FAIL", p, n, k))
            if not ok:
                _log("first failure: %s" % (wit,))
                code = 1
    if args.golden_out:
        with open(args.golden_out, "w") as fh:
            fh.write(golden_dump(s))
        _log("golden vector written to %s" % args.golden_out)
    return code


def cmd_euler(cfg, args):
    if cfg.group is None:
        raise ConfigError("euler needs --group")
    p, exps = group_key(cfg)
    n = cfg.n if cfg.n is not None else 1
    group = AbelianPGroup(p, exps)
    D = suite_vdeg(cfg)
    caps = caps_for(p, n, exps, D, probe_depth_default(n))
    if cfg.M is not None:
        floor_caps = tuple(p ** (n * kk) + 1 for kk in exps)
        caps = tuple(max(cfg.M, fc) for fc in floor_caps)
        if cfg.M < max(floor_caps):
            _log("warning: y-degree cap raised to %d to hold the "
                 "relation degree" % max(caps))

    # no digit below the junk-sound depth of the caps is printed
    depth = min(cfg.N_req, sound_depth(p, n, exps, D, caps))
    # one factor per nontrivial character of the p-torsion, and for the
    # reduced class one per line through the origin
    chars = p ** group.rank - 1
    both = not (args.total or args.reduced)

    def compute(f):
        ring = build_cohring(group, f, caps=caps)
        lines = []
        for kind, x, factors in (("total", total_euler(ring), chars),
                                 ("reduced", reduced_euler(ring)[0],
                                  chars // (p - 1))):
            if getattr(args, kind) or both:
                lines.append("%s Euler class (group %s, p=%d, n=%d) modulo "
                             "%d^%d:" % (kind, group.descriptor(), p, n, p,
                                         depth))
                lines += elem_lines(x, depth, factors)
        return lines

    for line in Builder(cfg).run(p, n, D, max(caps), compute):
        print(line)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="morava",
        description="exact-arithmetic checks for the formal group law of "
                    "E-theory and the cohomology of finite abelian groups")
    sub = ap.add_subparsers(dest="verb", required=True)

    def add_common(sp):
        sp.add_argument("--p", type=int, help="prime")
        sp.add_argument("--n", type=int, help="height")
        sp.add_argument("--precision", type=int, default=16,
                        help="p-adic digits (default 16, padded as needed)")
        sp.add_argument("--vdeg", type=int, help="total v-degree cap")
        sp.add_argument("--cache", help="cache directory "
                                        "(default $MORAVA_CACHE_DIR or "
                                        ".cache)")

    def add_ydeg(sp):
        sp.add_argument("--ydeg", type=int, help="y-degree cap")

    def add_group(sp):
        sp.add_argument("--group",
                        help="cyclic orders, comma-separated, e.g. 4,2")

    sp = sub.add_parser("pseries", help="print a p^k-series")
    add_common(sp)
    add_ydeg(sp)
    sp.add_argument("--k", type=int, default=1, help="series index")
    sp.add_argument("--check-congruence", action="store_true",
                    help="assert the leading-term congruence")
    sp.add_argument("--golden-out", help="write the series as a golden "
                                         "vector to this path")

    sp = sub.add_parser("euler", help="print Euler classes of a group")
    add_common(sp)
    add_ydeg(sp)
    add_group(sp)
    sp.add_argument("--total", action="store_true")
    sp.add_argument("--reduced", action="store_true")

    sp = sub.add_parser("verify", help="run a check suite")
    sp.add_argument("suite", choices=SUITES)
    add_common(sp)
    add_group(sp)
    sp.add_argument("--t", type=int, help="saturation / power bound")
    sp.add_argument("--report", help="report path "
                                     "(default morava-report.json)")
    sp.add_argument("--large", action="store_true",
                    help="include the long-running instances")
    sp.add_argument("--r", type=int,
                    help="restrict to instances of rank-r groups")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(args)
        if args.verb == "pseries":
            return cmd_pseries(cfg, args)
        if args.verb == "euler":
            return cmd_euler(cfg, args)
        return cmd_verify(cfg, args)
    except (ConfigError, CacheError) as e:
        _log("error: %s" % e)
        return 2
    except PrecisionError as e:
        _log("error: precision did not stabilize within %d guard digits: %s"
             % (GUARD_LIMIT, e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
