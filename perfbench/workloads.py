"""The benchmark's workloads and the inputs each run derives from its seed.

A trial is one call of ``planalg.suites.run_suites(suites, Config(seed=s,
trials=1, level=level, max_colour=max_colour))``, the function that
``pa verify`` calls.  Why each workload was chosen, and which layers it
stresses or bypasses, is written up in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

# planalg's default seed.  Every benchmark process runs its warm-up trial at
# this seed and compares the report digest with the one pinned below.
REFERENCE_SEED = 42

# Later performance claims must also hold at this workload seed, which no
# tuning of the benchmark used (choosing-metrics guide, section 6.3).
HELD_OUT_SEED = 9001

# Measured trial seeds are drawn from this range, which excludes REFERENCE_SEED.
_TRIAL_SEEDS = (1_000, 2**31)


@dataclass(frozen=True)
class Workload:
    suites: tuple[str, ...]
    level: int
    max_colour: int | None      # None: planalg's default, level + 3
    digest: str                 # report_digest of the trial at REFERENCE_SEED


# Trial times of the symbolic suites swing with the random inputs: at
# planalg's default colours (up to 5 at level 2), from 0.1 s to 2 s a suite.
# With 30 s runs, one suite's median then moved by up to a quarter between
# seeds, and a run held too few trials for a tail percentile above its
# median.  So the filtalg/jones/annular and gjs-iso suites share one
# workload, whose inputs stop at colour 3: about 0.6 s a trial, so a 45 s
# run holds some 70 trials.
WORKLOADS = {
    "symbolic": Workload(
        ("filtalg", "jones", "annular", "gjs-iso"), 2, 3,
        "5305befb448f99ab2941045a4cafe0e83427e3eb5348175949bd481d55c1e329"),
    "numeric": Workload(
        ("positivity", "estimates", "commutant-replay"), 0, None,
        "9b2514493c757564f296a2317d0428a6d2a697bd421e94fa86d4dceebae6b82b"),
}


def trial_seeds(workload: str, seed: int):
    """The endless, reproducible sequence of trial seeds of one run."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(*_TRIAL_SEEDS)


def run_trial(workload: Workload, seed: int) -> dict:
    from planalg.config import Config
    from planalg.suites import run_suites
    return run_suites(workload.suites,
                      Config(seed=seed, trials=1, level=workload.level,
                             max_colour=workload.max_colour))


def report_bytes(report: dict) -> bytes:
    return json.dumps(report, sort_keys=True).encode()


def report_digest(reports) -> str:
    """SHA-256 of the concatenated reports, float-mode residuals left out.

    A row whose ``delta`` parameter is a float is a float-mode check: its
    residual digits depend on the BLAS build, so only its check name,
    parameters and status enter the digest.  Every exact row enters whole.
    """
    h = hashlib.sha256()
    for report in reports:
        rows = [{key: row[key] for key in ("check", "params", "status")}
                if isinstance(row["params"].get("delta"), float) else row
                for row in report["checks"]]
        h.update(report_bytes(dict(report, checks=rows)))
    return h.hexdigest()
