"""Check records and reproducible report emission.

Every verification produces records with one fixed shape; the JSON rendering
is byte-stable across runs (sorted keys, fixed indent, no timestamps), so
two runs with the same inputs can be diffed directly.  Anything
non-deterministic, wall time in particular, belongs on stderr.
"""

import json

SCHEMA = "report_v1"

VERDICTS = ("PASS", "FAIL", "INDETERMINATE", "EVIDENCE")

# PASS/FAIL are exact verdicts at the stated truncation.  INDETERMINATE
# means the procedure exhausted its configured bounds without deciding.
# EVIDENCE marks checks that are by nature finite probes of an infinite
# claim and never count as proof.


def make_check(check_id, anchor, params, verdict, witness=None,
               precision_loss=None):
    if verdict not in VERDICTS:
        raise ValueError("unknown verdict %r" % (verdict,))
    return {
        "check_id": check_id,
        "anchor": anchor,
        "params": params,
        "verdict": verdict,
        "witness": witness if witness is not None else {},
        "precision_loss": precision_loss if precision_loss is not None else {},
    }


def summarize(checks):
    counts = {v: 0 for v in VERDICTS}
    for c in checks:
        counts[c["verdict"]] += 1
    if counts["FAIL"]:
        overall = "FAIL"
    elif counts["INDETERMINATE"]:
        overall = "INDETERMINATE"
    else:
        overall = "PASS"
    return {"counts": counts, "overall": overall}


def make_report(checks, meta):
    return {
        "schema": SCHEMA,
        "meta": meta,
        "checks": list(checks),
        "summary": summarize(checks),
    }


def render_json(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def precision_note(ctx, caps=None, extra=None):
    """Uniform precision_loss payload: the working parameters, and the caps
    when the check ran cut at y-degree caps, which is what ``truncated``
    states."""
    note = {"N": ctx.N, "D": ctx.D, "floor": ctx.padic.floor,
            "truncated": caps is not None}
    if caps is not None:
        note["caps"] = list(caps)
    if extra:
        note.update(extra)
    return note
