"""The seed-42 reports of the suites, pinned byte for byte.

A refactor must leave every report byte as it was, so any change here fails;
move a digest only with a deliberate change of what a report says.  The
exact suites run in exact arithmetic only, so their digest does not depend
on the BLAS build.  In the numeric suites, a row whose ``delta`` parameter
is a float is a float-mode check whose residual digits depend on the BLAS
build: it enters by check name, parameters and status only, while every
exact row (such as ``positivity.gram_exact_ldl``) enters whole.
"""

import hashlib
import json

from planalg.config import Config
from planalg.suites import run_suites

EXACT_SUITES = ("filtalg", "jones", "annular", "gjs-iso", "commutant-replay")
DIGEST = "40e6cbb00bb46267dc6d6fc82e460b381d73345084176fc9439bec755bb37b5a"

NUMERIC_SUITES = ("positivity", "estimates")
NUMERIC_DIGEST = "9e159c81c55f0a52ae1d4e0c45fe835445336aa993d366f248b0d2c4e59a0bd3"


def test_exact_suites_report_is_pinned():
    report = run_suites(EXACT_SUITES, Config(seed=42, trials=1, level=1))
    assert report["status"] == "pass"
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST


def test_numeric_suites_report_is_pinned():
    report = run_suites(NUMERIC_SUITES, Config(seed=42, trials=1, level=0))
    assert report["status"] == "pass"
    rows = [{key: row[key] for key in ("check", "params", "status")}
            if isinstance(row["params"].get("delta"), float) else row
            for row in report["checks"]]
    text = json.dumps(dict(report, checks=rows), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == NUMERIC_DIGEST
