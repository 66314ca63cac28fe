"""The seed-42 report of the exact suites, pinned byte for byte.

A refactor must leave every report byte as it was, so any change here fails;
move the digest only with a deliberate change of what a report says.  These
suites run in exact arithmetic only, so the digest does not depend on the
BLAS build.
"""

import hashlib
import json

from planalg.config import Config
from planalg.suites import run_suites

EXACT_SUITES = ("filtalg", "jones", "annular", "gjs-iso", "commutant-replay")
DIGEST = "40e6cbb00bb46267dc6d6fc82e460b381d73345084176fc9439bec755bb37b5a"


def test_exact_suites_report_is_pinned():
    report = run_suites(EXACT_SUITES, Config(seed=42, trials=1, level=1))
    assert report["status"] == "pass"
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
