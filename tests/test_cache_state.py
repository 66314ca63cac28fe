"""Reports do not depend on what the process-global caches already hold.

Every cache is keyed by all its value depends on (ring or delta, colour,
level), so a report computed in a process that earlier ran other seeds,
deltas and levels must equal, byte for byte, the report of a fresh process.
Cold means a fresh interpreter: the intern table is never cleared in place,
since diagrams compare by identity and a cleared table would split equal
diagrams.

The seed-free checks of the numeric suites run once per process: a second
run at another seed must hit their caches and add no miss.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import planalg
from planalg import analysis, suites
from planalg.config import Config
from planalg.scalars import Ring
from planalg.suites import SUITE_NAMES, run_suites

NUMERIC = ("positivity", "estimates", "commutant-replay")
SYMBOLIC = ("filtalg", "annular", "gjs-iso", "jones")

# the seed-free checks of the numeric suites, one cache each
SEED_FREE = (analysis.gram_min_eigenvalue, analysis.gram_positive_definite_exact,
             analysis._capping_ok, analysis._xnxm_system,
             suites._pk_commutes_cd_ok, suites._el_fixed_point_ok)

# every suite at other seeds, deltas, levels and max colours; the single
# deltas come first, so a table keyed without its delta would hand the
# default run (deltas 2 and 5/2) the values of 5/2 or 2.2 where it needs 2
WARM_UP = [dict(seed=8, trials=1, max_colour=3, delta="5/2"),
           dict(seed=9, trials=1, max_colour=3, delta="2.2"),
           dict(seed=7, trials=1, max_colour=3),
           dict(seed=10, trials=1, level=0, max_colour=3),
           dict(seed=11, trials=1, level=1, max_colour=2)]

_SCRIPT = """
import json, sys
from planalg.config import Config
from planalg.suites import SUITE_NAMES, run_suites
names, target, warm_up = json.loads(sys.argv[1])
for cfg in warm_up:
    run_suites(SUITE_NAMES, Config(**cfg))
sys.stdout.write(json.dumps(run_suites(names, Config(**target)), sort_keys=True))
"""


def _report_in_new_process(names, target, warm_up) -> str:
    src = str(Path(planalg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps([names, target, warm_up])],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_numeric_report_is_the_same_cold_and_warm():
    target = dict(seed=42)
    cold = _report_in_new_process(NUMERIC, target, [])
    assert json.loads(cold)["status"] == "pass"
    assert _report_in_new_process(NUMERIC, target, WARM_UP) == cold


def test_symbolic_report_is_the_same_cold_and_warm():
    target = dict(seed=42, trials=1, max_colour=3)
    cold = _report_in_new_process(SYMBOLIC, target, [])
    assert json.loads(cold)["status"] == "pass"
    assert _report_in_new_process(SYMBOLIC, target, WARM_UP) == cold


def test_seed_free_numeric_checks_run_once():
    run_suites(NUMERIC, Config(seed=3))
    before = [f.cache_info() for f in SEED_FREE]
    run_suites(NUMERIC, Config(seed=4))
    after = [f.cache_info() for f in SEED_FREE]
    for f, b, a in zip(SEED_FREE, before, after):
        assert a.misses == b.misses, f.__name__         # nothing recomputed
        assert a.hits > b.hits, f.__name__              # and the cache was read


def test_xnxm_verify_repeats_from_its_cache():
    ring = Ring.rational(Fraction(5, 2))
    analysis._xnxm_system.cache_clear()         # a cold call first
    first = analysis.xnxm_verify(1, 2, random.Random(5))
    second = analysis.xnxm_verify(1, 2, random.Random(5))
    info = analysis._xnxm_system.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert first == second and first["status"] == "pass"
    _texpr, perp_basis, cols = analysis._xnxm_system(1, 2, ring)
    assert isinstance(perp_basis, tuple) and isinstance(cols, tuple)
    assert all(isinstance(col, tuple) for col in cols)

