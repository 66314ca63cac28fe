"""The planalg benchmark: `pa verify`-style trials, timed end to end or traced.

    python3 perfbench/run.py --workload symbolic|numeric --seed N \
        --seconds S --trace 0|1

It benchmarks the planalg sources in src/ next to this directory, from
any working directory.  Each measurement runs in fresh interpreters
(worker.py) with numpy/BLAS pinned to one thread; the load is a closed
loop of one caller.  With --trace 0 the last stdout line carries the
end-to-end metrics, with --trace 1 the per-layer metrics; both also state
whether every trial passed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 3          # fresh processes whose set-up time gives the median
# One calibration slice (worker.calibration_s) at the speed all timings are
# scaled to: its usual time on the 2-vCPU Xeon host with Python 3.11.7 where
# the benchmark was written.
CALIBRATION_REF_S = 0.030
TAIL_BEYOND = 10        # the tail percentile leaves this many trials above it
CHILD_TIMEOUT_S = 60    # on top of --seconds, for one worker process

END_TO_END = [
    ("trials_per_s", "1/s"),
    ("trial_p50_ms", "ms"),
    ("trial_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _steal_ticks() -> int | None:
    """Host-wide CPU steal ticks from /proc/stat, read-only."""
    for line in _read("/proc/stat").splitlines():
        if line.startswith("cpu "):
            return int(line.split()[8])
    return None


def environment() -> dict:
    import numpy
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": model}


def _worker(args: list[str], seconds: float) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=seconds + CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND trials
    beyond it; the maximum when there are too few trials."""
    ordered = sorted(times)
    rank = len(ordered) - 1 - (TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The end-to-end metrics, with every timing scaled to reference speed.

    The host's speed drifts by up to a half between runs, because other
    tenants share its cores.  Each timing is therefore multiplied by CALIBRATION_REF_S
    over the mean calibration slice measured alongside it: after every
    trial for the trial timings, right after set-up for set-up.
    """
    common = ["--workload", workload, "--seed", str(seed)]
    before = [_worker(common + ["--mode", "setup"], 0)
              for _ in range(SETUP_RUNS // 2)]
    main = _worker(common + ["--mode", "run", "--seconds", str(seconds)], seconds)
    after = [_worker(common + ["--mode", "setup"], 0)
             for _ in range(SETUP_RUNS - 1 - SETUP_RUNS // 2)]
    runs = before + [main] + after
    raw = main["trial_s"]
    if not raw:
        raise SystemExit("no trial passed, so no timing can be reported")
    scale = CALIBRATION_REF_S / statistics.fmean(main["calibration_s"])
    times = [t * scale for t in raw]
    setups = [r["setup_s"] * CALIBRATION_REF_S
              / statistics.fmean(r["setup_calibration_s"]) for r in runs]
    tail_s, tail_pct = tail(times)
    metrics = {
        "trials_per_s": len(times) / sum(times),
        "trial_p50_ms": 1e3 * statistics.median(times),
        "trial_tail_ms": 1e3 * tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    record = {"attempted": sum(r["attempted"] for r in runs),
              "failed": sum(r["failed"] for r in runs),
              "trials": len(times), "tail_percentile": tail_pct,
              "host_slowdown": 1 / scale, "cpu_s": main["cpu_s"],
              "window_s": main["window_s"],
              "raw_trials_per_s": len(raw) / sum(raw),
              "raw_setup_s": [r["setup_s"] for r in runs],
              "setup_slowdown": [statistics.fmean(r["setup_calibration_s"])
                              / CALIBRATION_REF_S for r in runs],
              "raw_trial_s": raw}
    return metrics, record


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    result = _worker(["--workload", workload, "--seed", str(seed), "--mode",
                      "trace", "--seconds", str(seconds),
                      "--spans", str(OUT / f"spans-{workload}.npz")], seconds)
    record = {key: result[key] for key in ("attempted", "failed", "traced_trials",
                                           "suite_self_s", "peak_rss_mb")}
    return result["layers"], record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "planalg" / "__init__.py").is_file():
        print(f"no planalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    steal_before = _steal_ticks()
    measure = traced if args.trace else end_to_end
    values, record = measure(args.workload, args.seed, args.seconds)
    steal_after = _steal_ticks()
    env["steal_ticks"] = (None if steal_before is None
                          else steal_after - steal_before)
    units = dict(LAYER_METRICS if args.trace else END_TO_END)

    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"args": vars(args), "env": env, "metrics": values,
                    **record}, indent=1))
    print(f"env {json.dumps(env)}")
    for name, unit in units.items():
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"{args.workload} fail_ratio = {failed / attempted:.6g} "
          f"({failed} of {attempted} trials)")
    if "tail_percentile" in record:
        print(f"{args.workload} trial_tail_ms is p{record['tail_percentile']:.1f} "
              f"of {record['trials']} trials")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
