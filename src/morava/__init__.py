"""Exact-arithmetic formal group laws over truncated Morava E-theory
coefficients, group cohomology of finite abelian p-groups, Euler class
localization, and a verification CLI."""

__version__ = "0.1.0"

from .padic import PadicContext, PrecisionError, EXACT
from .coeff import CoeffContext, CoeffElem
from .series import (YSeries, MultiSeries, ser_new, ser_from_terms,
                     ser_monomial, ms_new, ms_eval, golden_dump, golden_load)
from .fgl import (FormalGroupLaw, build_fgl, build_fgl_cached, formal_sum,
                  check_pk_congruence, check_integrality, check_unitality,
                  check_commutativity, check_associativity)
from .groupcoh import (AbelianPGroup, GroupHom, CohRing, RingElem,
                       build_cohring, pullback, verify_rank,
                       verify_free_over_subring)
from .euler import (Character, total_euler, reduced_euler,
                    verify_restriction_vanishing, verify_unit_divisibility)
from .localize import (verify_mutual_euler_divisibility,
                       verify_height_drop_unit, verify_inverted_prime_model,
                       verify_localized_nonvanishing,
                       verify_elementary_quotient_transfer)
from .report import make_check, make_report, render_json, summarize

__all__ = [
    "PadicContext",
    "PrecisionError",
    "EXACT",
    "CoeffContext",
    "CoeffElem",
    "YSeries",
    "MultiSeries",
    "ser_new",
    "ser_from_terms",
    "ser_monomial",
    "ms_new",
    "ms_eval",
    "golden_dump",
    "golden_load",
    "FormalGroupLaw",
    "build_fgl",
    "build_fgl_cached",
    "formal_sum",
    "check_pk_congruence",
    "check_integrality",
    "check_unitality",
    "check_commutativity",
    "check_associativity",
    "AbelianPGroup",
    "GroupHom",
    "CohRing",
    "RingElem",
    "build_cohring",
    "pullback",
    "verify_rank",
    "verify_free_over_subring",
    "Character",
    "total_euler",
    "reduced_euler",
    "verify_restriction_vanishing",
    "verify_unit_divisibility",
    "verify_mutual_euler_divisibility",
    "verify_height_drop_unit",
    "verify_inverted_prime_model",
    "verify_localized_nonvanishing",
    "verify_elementary_quotient_transfer",
    "make_check",
    "make_report",
    "render_json",
    "summarize",
    "__version__",
]
