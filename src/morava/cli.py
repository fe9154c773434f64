"""Command-line front end: series printing, Euler classes, and the check
suites.

Three verbs.  `pseries` prints a p^k-series and can assert its defining
congruence or write a golden vector.  `euler` prints the total and reduced
Euler products of a group.  `verify` runs one named suite, or the whole
battery, and writes a deterministic JSON report.  Each suite is one record
maker in `SUITE_MAKERS` over an instance table that `--p`, `--n`, `--group`
and `--r` filter; `paper-suite` runs every maker per (p, n) shard.

Two policies keep the records sound without hand-tuning:

* Precision is adaptive.  Every computation starts from the requested
  p-adic precision; when cancellation would drop a stored scalar under the
  trust floor, `Builder.run` reruns it on a law with a doubling pad of
  guard digits, for every verb, until GUARD_LIMIT digits over the request.
  A record therefore never rests on fewer trusted digits than its stated
  depth, and reports state the precision actually used.

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

from . import __version__
from .euler import (reduced_euler, total_euler, verify_restriction_vanishing,
                    verify_unit_divisibility)
from .fgl import (build_fgl, build_fgl_cached, check_associativity,
                  check_commutativity, check_integrality, check_pk_congruence,
                  check_unitality)
from .groupcoh import (AbelianPGroup, build_cohring, verify_free_over_subring,
                       verify_rank)
from .localize import (verify_elementary_quotient_transfer,
                       verify_height_drop_unit, verify_inverted_prime_model,
                       verify_localized_nonvanishing,
                       verify_mutual_euler_divisibility)
from .padic import PrecisionError
from .report import make_check, make_report, precision_note, render_json
from .series import golden_dump

GRID_EXPS = ((1,), (2,), (1, 1), (2, 1))

# Modules of this rank and above only enter basis-walking checks under
# --large; rank and freeness records never walk the basis and stay in.
LARGE_RANK = 16

# A basis-walking check on a rank >= 2 group needs the two-variable law up
# to the largest per-factor cap, which past ~150 costs minutes per record.
# Only the measured case ships; anything else in that regime is skipped.
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


def group_exps(orders, p):
    try:
        return AbelianPGroup.from_orders(p, orders).exps
    except ValueError as e:
        raise ConfigError(str(e))


def sound_basis_cap(p, n, k, D, depth):
    """Per-factor cap for a depth-digit probe on a C_{p^k} factor."""
    d = p ** (n * k)
    cap = d + depth * p ** (n * (k - 1)) * (p ** n - 1)
    if n >= 2:
        cap = max(cap, d + (D + 1) * (d - 1) + 1)
    return cap


def caps_for(p, n, exps, D, depth):
    return tuple(sound_basis_cap(p, n, k, D, depth) for k in exps)


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
        self.M = args.ydeg
        self.group = parse_orders(args.group) if args.group else None
        self.T = args.t
        self.r = getattr(args, "r", None)
        self.large = args.large
        self.report_path = args.report or "morava-report.json"
        self.cache_dir = args.cache or os.environ.get("MORAVA_CACHE_DIR",
                                                      ".cache")
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
        if self.group is not None:
            p = self.p if self.p is not None else infer_p(self.group)
            group_exps(self.group, p)


def _starved(rec):
    """Digits a check record left INDETERMINATE for a precision reason
    asks for (at least 1); None for any other result."""
    if not isinstance(rec, dict) or rec["verdict"] != "INDETERMINATE":
        return None
    wit = rec.get("witness") or {}
    extra = wit.get("needed_extra")
    reason = str(wit.get("reason", "")).lower()
    if extra is None and "digit" not in reason and "precision" not in reason:
        return None
    return max(extra or 1, 1)


class Builder:
    """Builds laws at adaptive precision and reruns starved computations.

    Guard digits are added whenever a build or a computation raises
    PrecisionError, or a record comes back INDETERMINATE for a precision
    reason; the requested precision stays the baseline every fresh
    computation starts from.
    """

    def __init__(self, cfg):
        self.cache_dir = cfg.cache_dir
        self.N_req = cfg.N_req
        self._memo = {}

    def fgl(self, p, n, D, M, N=None):
        want = self.N_req if N is None else N
        key = (p, n, D, M, want)
        got = self._memo.get(key)
        if got is not None:
            return got
        cur = want
        while True:
            try:
                # Caching forces the full two-variable law; skip it for the
                # big caps only ever used one variable at a time.
                if M <= 64 and self.cache_dir:
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
        """make(law), rerun on a law with more guard digits while it raises
        PrecisionError or returns a starved record.  Past GUARD_LIMIT
        digits over the request a starved record is returned as it is and
        a PrecisionError is raised again."""
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
                rec = make(f)
            except PrecisionError as e:
                N += max(e.needed_extra, 1)
                if N - self.N_req > GUARD_LIMIT:
                    raise
                continue
            extra = _starved(rec)
            if extra is None:
                return rec
            N += extra
            if N - self.N_req > GUARD_LIMIT:
                return rec


# ---------------------------------------------------------------------------
# rendering

def scalar_text(ctx, c, digits):
    """The scalar with its unit cut to the reporting precision: the least
    of its trusted digits and ``digits`` (the requested `--precision`), so
    the text does not depend on the working precision a retry ended at."""
    if c.unit == 0:
        return "0"
    p = ctx.p
    q = p ** min(c.prec, digits)
    m = c.unit % q
    if m > q // 2:
        m -= q
    if c.val >= 0:
        return str(m * p ** c.val)
    return "%d/%d" % (m, p ** (-c.val))


def coeff_text(ctx, e, digits):
    parts = []
    for (ue, vc), c in ctx.iter_terms_sorted(e):
        factors = []
        if ue == 1:
            factors.append("u")
        elif ue:
            factors.append("u^%d" % ue)
        for i, ve in enumerate(ctx.vexps(vc), start=1):
            if ve == 1:
                factors.append("v_%d" % i)
            elif ve:
                factors.append("v_%d^%d" % (i, ve))
        s = scalar_text(ctx, c, digits)
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
        cs = coeff_text(ctx, e, digits)
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


def elem_lines(x, digits):
    ctx = x.ring.ctx
    lines = []
    for exps in sorted(x.coord):
        mono = "*".join(("y%d" % (i + 1)) + ("" if e == 1 else "^%d" % e)
                        for i, e in enumerate(exps) if e) or "1"
        lines.append("  %s: %s"
                     % (mono, coeff_text(ctx, x.coord[exps], digits)))
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
# suite record makers

def enum_included(cfg, p, n, exps, caps):
    if (p ** sum(exps)) ** n >= LARGE_RANK and not cfg.large:
        return False
    if len(exps) >= 2 and max(caps) > 150:
        return cfg.large and (p, n, exps) in HEAVY_ENUM_OK
    return True


def grid_shards(p, n):
    """The (p, n) points of the default grid, primes 2 and 3 at heights 1
    and 2, at prime p and height n where given."""
    return [(ip, im) for ip in ([p] if p else [2, 3])
            for im in ([n] if n else [1, 2])]


def instances(cfg, table, p, n):
    """The rows (p, n, factor exponents, ...) of an instance table at prime
    p and height n (any where None) whose group has rank --r and is
    --group, at the prime that --group infers."""
    group = None
    if cfg.group:
        gp = infer_p(cfg.group)
        group = (gp, group_exps(cfg.group, gp))
    return [row for row in table
            if p in (None, row[0]) and n in (None, row[1])
            and cfg.r in (None, len(row[2]))
            and group in (None, (row[0], row[2]))]


def grid_instances(cfg, p, n):
    return instances(cfg, [(ip, im, exps) for ip, im in grid_shards(p, n)
                           for exps in GRID_EXPS], p, n)


def rank_freeness_records(cfg, bld, p, n):
    recs = []
    D = suite_vdeg(cfg)
    for ip, im, exps in grid_instances(cfg, p, n):
        group = AbelianPGroup(ip, exps)
        caps = caps_for(ip, im, exps, D, 1)
        M = max(caps)

        def mk_rank(f, group=group, caps=caps):
            return verify_rank(build_cohring(group, f, caps=caps))

        recs.append(bld.run(ip, im, D, M, mk_rank))
        target, q = group.elementary_quotient()
        if target.exps == group.exps:
            continue
        scaps = caps_for(ip, im, target.exps, D, 1)

        def mk_free(f, group=group, caps=caps, target=target, q=q,
                    scaps=scaps):
            big = build_cohring(group, f, caps=caps)
            small = build_cohring(target, f, caps=scaps)
            return verify_free_over_subring(q, big, small)

        recs.append(bld.run(ip, im, D, M, mk_free))
    return recs


def euler_vanishing_records(cfg, bld, p, n):
    recs = []
    D = suite_vdeg(cfg)
    for ip, im, exps in grid_instances(cfg, p, n):
        depth = probe_depth_default(im)
        probe = 2 if im == 1 else 1
        caps = caps_for(ip, im, exps, D, probe)
        if not enum_included(cfg, ip, im, exps, caps):
            continue
        group = AbelianPGroup(ip, exps)

        def mk_restrict(f, ip=ip, im=im, group=group, caps=caps,
                        probe=probe):
            ring = build_cohring(group, f, caps=caps)

            def factory(sub, f=f):
                sc = caps_for(ip, im, sub.exps, D, probe)
                return build_cohring(sub, f, caps=sc if sc else None)

            return verify_restriction_vanishing(ring, ring_factory=factory,
                                                probe_depth=probe)

        recs.append(bld.run(ip, im, D, max(caps), mk_restrict))
        dcaps = caps_for(ip, im, exps, D, depth)
        if max(dcaps) > 150:
            # The certificate search walks every character orbit; at these
            # caps that costs minutes per record, and the restriction
            # record above already covers the vanishing claim.
            continue

        def mk_div(f, group=group, dcaps=dcaps, depth=depth):
            ring = build_cohring(group, f, caps=dcaps)
            return verify_mutual_euler_divisibility(ring, depth=depth)

        recs.append(bld.run(ip, im, D, max(dcaps), mk_div))
        if exps != (1,):
            continue
        for m in range(1, ip):

            def mk_unit(f, m=m, group=group, dcaps=dcaps, depth=depth):
                ring = build_cohring(group, f, caps=dcaps)
                return verify_unit_divisibility(ring, m, depth=depth)

            recs.append(bld.run(ip, im, D, max(dcaps), mk_unit))
    return recs


# (p, n, factor exponents, v-degree cap, y-degree cap) for the cyclic group
# C_p; caps chosen so the localized model's saturation probes stay
# junk-sound at the recorded depth.
HEIGHT_DROP_INSTANCES = ((2, 2, (1,), 6, 26), (3, 2, (1,), 6, 66))
HEIGHT_DROP_LARGE = ((2, 3, (1,), 4, 44),)


def height_drop_records(cfg, bld, p, n):
    table = HEIGHT_DROP_INSTANCES + (HEIGHT_DROP_LARGE if cfg.large else ())

    def mk(f):
        return verify_height_drop_unit(f, T=cfg.T)

    return [bld.run(ip, im, iD, iM, mk)
            for ip, im, _, iD, iM in instances(cfg, table, p, n)]


# (p, n, factor exponents) of the cyclic group C_p whose inverted-prime
# model is checked at height 1.
INVERTED_PRIME_INSTANCES = ((2, 1, (1,)), (3, 1, (1,)), (5, 1, (1,)))


def inverted_prime_records(cfg, bld, p, n):
    def mk(f):
        return verify_inverted_prime_model(f, T=cfg.T)

    return [bld.run(ip, 1, 1, 24, mk)
            for ip, _, _ in instances(cfg, INVERTED_PRIME_INSTANCES, p, n)]


# (p, n, factor exponents, v-degree cap, per-factor caps, probe depth).
# The first three probe nonvanishing within the height; the last runs the
# rank-above-height control expected to die at a finite power.
NONVANISHING_INSTANCES = (
    (2, 1, (1,), 1, (10,), 8),
    (3, 1, (1,), 1, (19,), 8),
    (2, 2, (1, 1), 12, (28, 28), 8),
    (2, 1, (1, 1), 1, (9, 9), 5),
)


def nonvanishing_records(cfg, bld, p, n):
    T = cfg.T if cfg.T is not None else 8
    recs = []
    for ip, im, exps, iD, caps, depth in instances(
            cfg, NONVANISHING_INSTANCES, p, n):

        def mk(f, ip=ip, exps=exps, caps=caps, depth=depth):
            ring = build_cohring(AbelianPGroup(ip, exps), f, caps=caps)
            return verify_localized_nonvanishing(ring, T=T, depth=depth)

        recs.append(bld.run(ip, im, iD, max(caps), mk))
    return recs


# (p, n, factor exponents, ring caps, subring caps, depth, strong depth);
# the order-9 case runs at raised caps with matching shallow probes, since
# default caps leave under two junk-safe digits at rank nine.
QUOTIENT_TRANSFER_INSTANCES = (
    (2, 1, (2,), None, None, 4, 16),
    (2, 1, (2, 1), None, None, 4, 16),
    (3, 1, (2,), (23,), None, 2, 2),
)


def quotient_transfer_records(cfg, bld, p, n):
    recs = []
    for ip, im, exps, caps, scaps, depth, strong in instances(
            cfg, QUOTIENT_TRANSFER_INSTANCES, p, n):
        M = max(caps) if caps else (2 * ip ** (im * max(exps)) + 1)

        def mk(f, ip=ip, exps=exps, caps=caps, scaps=scaps, depth=depth,
               strong=strong):
            return verify_elementary_quotient_transfer(
                AbelianPGroup(ip, exps), f, caps=caps,
                sub_caps=scaps, depth=depth, strong_depth=strong)

        recs.append(bld.run(ip, im, 1, M, mk))
    return recs


def congruence_records(cfg, bld, p, n):
    ks = [1]
    if (p, n) == (2, 1):
        ks.append(2)
    if (p, n) == (2, 2) and cfg.large:
        ks.append(2)
    D = rich_vdeg(n)
    recs = []
    for k in ks:
        M = p ** (n * k) + 1

        def mk(f, k=k, p=p, n=n):
            s = f.m_series(p ** k)
            ok, wit = check_pk_congruence(f, s, k)
            intact = check_integrality(s)
            wit = dict(wit)
            wit["integral"] = intact
            verdict = "PASS" if ok and intact else "FAIL"
            return make_check("pk-series-congruence", "sec-2.1",
                              {"p": p, "n": n, "k": k}, verdict, wit,
                              precision_note(f.ctx, caps=[f.M],
                                             truncated=True))

        recs.append(bld.run(p, n, D, M, mk))
    return recs


# (v-degree cap, law cap, associativity cap) per (p, n) for the axiom
# battery run inside paper-suite; acceptance runs the same checks at the
# full y-degree 32 instead.
INTEGRITY_SHAPES = {
    (2, 1): (1, 17, 12), (3, 1): (1, 17, 12), (5, 1): (1, 17, 12),
    (2, 2): (6, 9, 9), (3, 2): (6, 9, 9), (2, 3): (4, 9, 9),
}


def integrity_records(cfg, bld, p, n):
    D, M, acap = INTEGRITY_SHAPES.get((p, n), (1, 9, 9))

    def mk(f, acap=acap):
        u_ok, uw = check_unitality(f, depth=8)
        c_ok, cw = check_commutativity(f, depth=8)
        a_ok, aw = check_associativity(f, cap=acap, depth=8)
        i_ok = check_integrality(f.F)
        verdict = "PASS" if u_ok and c_ok and a_ok and i_ok else "FAIL"
        wit = {"unitality": u_ok, "commutativity": c_ok,
               "associativity": a_ok, "integrality": i_ok,
               "law_cap": f.M, "associativity_cap": acap}
        if not (u_ok and c_ok and a_ok):
            wit["first_failure"] = uw if not u_ok else (cw if not c_ok
                                                       else aw)
        return make_check("fgl-integrity", "sec-2.1", {"p": p, "n": n},
                          verdict, wit,
                          precision_note(f.ctx, caps=[f.M], truncated=True))

    return [bld.run(p, n, D, M, mk)]


# Each suite's record maker, in paper-suite shard order.  A maker takes
# (cfg, bld, p, n) and makes the records of every instance at prime p and
# height n, any prime or height where None.
SUITE_MAKERS = {
    "lemma-2.4": rank_freeness_records,
    "lemma-2.6": euler_vanishing_records,
    "prop-3.2-n1": inverted_prime_records,
    "prop-3.2": height_drop_records,
    "prop-3.3": nonvanishing_records,
    "cor-3.4": quotient_transfer_records,
}
SUITES = tuple(SUITE_MAKERS) + ("paper-suite",)


def suite_records(cfg, suite):
    """The records of one suite.  paper-suite runs the law checks and then
    every suite per (p, n) shard, each shard on a Builder of its own, so a
    shard's laws and their caches go when it ends."""
    if suite != "paper-suite":
        return SUITE_MAKERS[suite](cfg, Builder(cfg), cfg.p, cfg.n)
    makers = [congruence_records, integrity_records, *SUITE_MAKERS.values()]
    shards = grid_shards(cfg.p, cfg.n)
    if cfg.large and cfg.n is None and cfg.p in (None, 2):
        shards.append((2, 3))
    recs = []
    for p, n in shards:
        t0 = time.time()
        bld = Builder(cfg)
        got = [rec for make in makers for rec in make(cfg, bld, p, n)]
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
    with open(cfg.report_path, "w") as fh:
        fh.write(render_json(report))
    counts = report["summary"]["counts"]
    print("%d checks: %d PASS, %d FAIL, %d INDETERMINATE, %d EVIDENCE"
          % (len(records), counts["PASS"], counts["FAIL"],
             counts["INDETERMINATE"], counts["EVIDENCE"]))
    if counts["INDETERMINATE"]:
        print("flagged: %d INDETERMINATE record(s); raise --precision or "
              "run with wider caps to settle them" % counts["INDETERMINATE"])
    _log("report written to %s" % cfg.report_path)
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
        s = f.pk_series(0) if k == 0 else f.m_series(p ** k)
        return s, ((True, None) if k == 0
                   else check_pk_congruence(f, s, k))

    s, (ok, wit) = Builder(cfg).run(p, n, D, M, compute)
    for line in series_lines(s, cfg.N_req):
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
    p = cfg.p if cfg.p is not None else infer_p(cfg.group)
    n = cfg.n if cfg.n is not None else 1
    exps = group_exps(cfg.group, p)
    group = AbelianPGroup(p, exps)
    D = suite_vdeg(cfg)
    caps = caps_for(p, n, exps, D, probe_depth_default(n))
    if cfg.M is not None:
        floor_caps = tuple(p ** (n * kk) + 1 for kk in exps)
        caps = tuple(max(cfg.M, fc) for fc in floor_caps)
        if cfg.M < max(floor_caps):
            _log("warning: y-degree cap raised to %d to hold the "
                 "relation degree" % max(caps))

    def compute(f):
        ring = build_cohring(group, f, caps=caps)
        return total_euler(ring), reduced_euler(ring)[0]

    total, red = Builder(cfg).run(p, n, D, max(caps), compute)
    both = not (args.total or args.reduced)
    if args.total or both:
        print("total Euler class (group %s, p=%d, n=%d):"
              % (group.descriptor(), p, n))
        for line in elem_lines(total, cfg.N_req):
            print(line)
    if args.reduced or both:
        print("reduced Euler class (group %s, p=%d, n=%d):"
              % (group.descriptor(), p, n))
        for line in elem_lines(red, cfg.N_req):
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
        sp.add_argument("--ydeg", type=int, help="y-degree cap")
        sp.add_argument("--group",
                        help="cyclic orders, comma-separated, e.g. 4,2")
        sp.add_argument("--t", type=int, help="saturation / power bound")
        sp.add_argument("--report", help="report path "
                                         "(default morava-report.json)")
        sp.add_argument("--cache", help="cache directory "
                                        "(default $MORAVA_CACHE_DIR or "
                                        ".cache)")
        sp.add_argument("--large", action="store_true",
                        help="include the long-running instances")

    sp = sub.add_parser("pseries", help="print a p^k-series")
    add_common(sp)
    sp.add_argument("--k", type=int, default=1, help="series index")
    sp.add_argument("--check-congruence", action="store_true",
                    help="assert the leading-term congruence")
    sp.add_argument("--golden-out", help="write the series as a golden "
                                         "vector to this path")

    sp = sub.add_parser("euler", help="print Euler classes of a group")
    add_common(sp)
    sp.add_argument("--total", action="store_true")
    sp.add_argument("--reduced", action="store_true")

    sp = sub.add_parser("verify", help="run a check suite")
    sp.add_argument("suite", choices=SUITES)
    add_common(sp)
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
    except ConfigError as e:
        _log("error: %s" % e)
        return 2
    except PrecisionError as e:
        _log("error: precision did not stabilize within %d guard digits: %s"
             % (GUARD_LIMIT, e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
