"""One benchmark process: import planalg, warm up, run trials in a closed loop.

run.py starts this in a fresh interpreter for every measurement, because
planalg keeps process-global caches (``_enumerate_cached``, ``_good_tangles``,
``GnsGeometry._cache``, ``_CONVENTIONS_CHECKED``) that one workload would
otherwise warm for the next.  Prints one JSON object on stdout.

    python3 perfbench/worker.py --workload symbolic --seed 1 --seconds 10 \
        --mode run|setup|trace
"""

import argparse
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402  (the benchmark's own module, next to this file)

SETUP_CALIBRATIONS = 5      # calibration slices before and again after set-up


def calibration_s() -> float:
    """Wall time of a fixed slice of pure-Python work, about 30 ms.

    The work is shaped like planalg's inner loops (dicts of Fractions keyed
    by small ints and tuples) but runs no planalg code, so no change to the
    program moves it.  Slices interleaved with the trials track how fast
    the host runs Python at that moment; run.py scales timings by them.
    """
    t0 = time.perf_counter()
    acc = {}
    for i in range(1000):
        terms = {i % 5 - 2: Fraction(i % 7 + 1, 3), i % 3: Fraction(1, i % 4 + 1)}
        prod = {}
        for e1, c1 in terms.items():
            for e2, c2 in terms.items():
                prod[e1 + e2] = prod.get(e1 + e2, 0) + c1 * c2
        key = tuple(sorted((i * 7 % 11, i * 3 % 13)))
        acc[key] = acc.get(key, 0) + sum(prod.values())
    return time.perf_counter() - t0


def _check(workload, seed: int, report_of) -> tuple[bool, dict | None]:
    """Run one trial; it fails if it raises or any check is not `pass`."""
    try:
        report = report_of(workload, seed)
    except Exception as exc:            # a failed trial, counted, not fatal
        print(f"trial seed {seed} raised {exc!r}", file=sys.stderr)
        return False, None
    if report["status"] != "pass":
        print(f"trial seed {seed} failed a check", file=sys.stderr)
    return report["status"] == "pass", report


def _import_planalg() -> None:
    import planalg.suites
    if not Path(planalg.suites.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"planalg was imported from outside {SRC}")


def _warm_up(workload, report_of) -> tuple[int, int]:
    """The warm-up trial at REFERENCE_SEED; (attempted, failed) with its digest
    checked against the pinned one."""
    ok, report = _check(workload, workloads.REFERENCE_SEED, report_of)
    if ok and workloads.report_digest([report]) != workload.digest:
        print("reference report digest mismatch", file=sys.stderr)
        ok = False
    return 1, int(not ok)


def _timed(workload, seed: int, report_of):
    t0 = time.perf_counter()
    ok, report = _check(workload, seed, report_of)
    return time.perf_counter() - t0, ok, report


def set_up(workload) -> dict:
    """Time `import planalg` plus the warm-up trial, bracketed by
    calibration slices for run.py to scale it by."""
    calibration = [calibration_s() for _ in range(SETUP_CALIBRATIONS)]
    t0 = time.perf_counter()
    _import_planalg()
    attempted, failed = _warm_up(workload, workloads.run_trial)
    setup_s = time.perf_counter() - t0
    calibration += [calibration_s() for _ in range(SETUP_CALIBRATIONS)]
    return {"setup_s": setup_s, "setup_calibration_s": calibration,
            "attempted": attempted, "failed": failed}


def measure(name: str, seed: int, seconds: float) -> dict:
    """Set-up, then untraced trials until `seconds` have passed, each
    followed by a calibration slice."""
    workload = workloads.WORKLOADS[name]
    result = set_up(workload)
    times, calibration = [], []
    cpu0 = time.process_time()
    t_start = time.perf_counter()
    deadline = t_start + seconds
    for trial_seed in workloads.trial_seeds(name, seed):
        if time.perf_counter() >= deadline:
            break
        dt, ok, _ = _timed(workload, trial_seed, workloads.run_trial)
        calibration.append(calibration_s())
        result["attempted"] += 1
        if ok:
            times.append(dt)
        else:
            result["failed"] += 1
    result.update(trial_s=times, calibration_s=calibration,
                  window_s=time.perf_counter() - t_start,
                  cpu_s=time.process_time() - cpu0,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return result


def traced_trial(tracer, trial: int):
    """A run_trial that installs `tracer` around the call as trial `trial`."""
    def report_of(workload, seed):
        tracer.install(trial)
        try:
            return workloads.run_trial(workload, seed)
        finally:
            tracer.uninstall()
    return report_of


def trace(name: str, seed: int, seconds: float, spans_path: Path | None) -> dict:
    """Pairs of one untraced and one traced trial at the same seed, in
    alternating order, until `seconds` have passed.

    A pair fails unless both reports are byte-identical, so every traced run
    also checks that tracing is transparent.  The warm-up trial is traced
    as trial 0 to expose set-up work.
    """
    from tracer import Tracer
    from planalg.analysis import GnsGeometry

    workload = workloads.WORKLOADS[name]
    _import_planalg()
    tracer = Tracer()
    attempted, failed = _warm_up(workload, traced_trial(tracer, 0))
    plain_s = traced_s = 0.0
    deadline = time.perf_counter() + seconds
    trials = []
    for i, trial_seed in enumerate(workloads.trial_seeds(name, seed), start=1):
        if time.perf_counter() >= deadline:
            break
        runs = {}
        for traced in ((False, True) if i % 2 else (True, False)):
            report_of = traced_trial(tracer, i) if traced else workloads.run_trial
            runs[traced] = _timed(workload, trial_seed, report_of)
        attempted += 2
        (dt_plain, ok_plain, plain), (dt_traced, ok_traced, traced) = \
            runs[False], runs[True]
        failed += (not ok_plain) + (not ok_traced)
        if ok_plain and ok_traced:
            if workloads.report_bytes(plain) != workloads.report_bytes(traced):
                print(f"traced report differs at seed {trial_seed}", file=sys.stderr)
                failed += 1
            plain_s += dt_plain
            traced_s += dt_traced
            trials.append(i)
    metrics = tracer.layer_metrics(
        trials, setup_trial=0,
        overhead_ratio=plain_s / traced_s if traced_s else 0.0,
        gns_cache_entries=len(GnsGeometry._cache))
    if spans_path is not None:
        tracer.save(spans_path)
    per = 1 / max(1, len(trials))
    self_s = {suite: {name: t * per for name, t in row.most_common()}
              for suite, row in tracer.suite_self_s(trials).items()}
    return {"attempted": attempted, "failed": failed, "traced_trials": len(trials),
            "layers": metrics, "suite_self_s": self_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("run", "setup", "trace"), default="run")
    parser.add_argument("--spans", type=Path, help="where --mode trace writes its spans")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = set_up(workloads.WORKLOADS[args.workload])
    elif args.mode == "trace":
        result = trace(args.workload, args.seed, args.seconds, args.spans)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
