"""Write `reference.json`: the verdicts every benchmark pass is checked
against.

    python3 perfbench/capture_reference.py

Runs one cold `verify paper-suite` pass, one warm pass on the cache it
filled, and the axiom battery in shape order, each in a fresh interpreter
as `run.py` does, and stores per record (check_id, anchor, params, verdict)
with the sha256 of the record's JSON, the sha256 of the whole report, and
per axiom shape the verdict, final precision and associativity term
count.  Refuses to write when a pass exits nonzero.
"""

import hashlib
import json
import os
import shutil
import sys
import tempfile

from run import (AXIOM_SHAPES, CHILD, REFERENCE, REPORT, SUITE_ARGV, WORK,
                 record_digest, record_key, run_child)


def suite_reference(cwd):
    res = run_child([sys.executable, "-m", "morava.cli"] + list(SUITE_ARGV),
                    cwd, 600)
    if res["code"] != 0:
        raise SystemExit("paper-suite exited %d" % res["code"])
    with open(os.path.join(cwd, REPORT), "rb") as fh:
        raw = fh.read()
    records = [{"key": record_key(c), "check_id": c["check_id"],
                "anchor": c["anchor"], "params": c["params"],
                "verdict": c["verdict"], "sha256": record_digest(c)}
               for c in json.loads(raw)["checks"]]
    return {"report_sha256": hashlib.sha256(raw).hexdigest(),
            "records": records}


def main():
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="reference-", dir=WORK)
    try:
        ref = {"paper-suite-cold": suite_reference(tmp),
               "paper-suite": suite_reference(tmp)}
        res = run_child([sys.executable, CHILD, "axioms",
                         json.dumps(AXIOM_SHAPES)], tmp, 600)
        if res["code"] != 0:
            raise SystemExit("axiom battery exited %d" % res["code"])
        with open(os.path.join(tmp, "axioms.json")) as fh:
            ref["fgl-axioms"] = {"shapes": json.load(fh)}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
