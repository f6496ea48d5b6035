"""Run one benchmark workload on one seed and print its metrics.

    python3 bench/run_bench.py --workload wlan-reserved --seed 1 --seconds 36 --trace 0

--trace 0 measures the end-to-end metrics with nothing wrapped. --trace 1
runs the quality rounds once to warm up, then the workload untraced for half
the time and traced for the other half,
and reports the per-layer metrics derived from the spans, the tracing overhead,
and whether both halves produced the same CSV bytes. Human-readable lines come
first; a `DETAIL {...}` line carries everything measured, and the last line is
the JSON result: {"correct", "attempted", "failed", "metrics"}.

The benchmark imports sdwnsim from the checkout's src/ and exits non-zero,
printing no result, when that tree is missing.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spans       # noqa: E402
import workloads   # noqa: E402
from workloads import SRC, WORKLOADS   # noqa: E402

SETUP_REPEATS = 5
TAIL_LADDER = (50, 60, 70, 75, 80, 90, 95, 99)
MIN_BEYOND = 10
END_TO_END = {"setup_s": "s", "trials_per_s": "1/s", "sdwn_trial_p50_ms": "ms",
              "sdwn_trial_tail_ms": "ms", "peak_rss_mb": "MB"}   # BENCHMARK.json's metrics


def import_sdwnsim():
    """sdwnsim's modules, imported from this checkout's src/ and nowhere else."""
    package = SRC / "sdwnsim"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"run_bench: no sdwnsim sources at {package}")
    sys.path.insert(0, str(SRC))
    import sdwnsim
    from sdwnsim import cellular, config, control, errors, harness, metrics, model, wlan
    if Path(sdwnsim.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"run_bench: imported sdwnsim from {sdwnsim.__file__}, not {package}")
    return SimpleNamespace(cellular=cellular, config=config, control=control, errors=errors,
                           harness=harness, metrics=metrics, model=model, wlan=wlan)


# ---- statistics ----------------------------------------------------------------

def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def samples_beyond(values, q: float) -> int:
    cut = percentile(values, q)
    return int(np.sum(np.asarray(values, dtype=float) > cut))


def tail_percentile(n: int):
    """Highest ladder percentile with at least MIN_BEYOND of n distinct samples beyond it."""
    sample = np.arange(n)
    fits = [q for q in TAIL_LADDER if n and samples_beyond(sample, q) >= MIN_BEYOND]
    return max(fits, default=None)


# ---- measurement ---------------------------------------------------------------

def setup_seconds(workload, seed: int) -> float:
    """Median over fresh processes of the time from process start to the end of
    set-up: importing sdwnsim, load_config and building the first inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                                 "--workload", workload.name, "--seed", str(seed)],
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=120)
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"run_bench: set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def measure(workload, sd, seed: int, seconds: float):
    """Set up, then run rounds until `seconds` have passed. The quality rounds
    always run whole; later rounds stop at the first grid point or instance
    that would start past the deadline."""
    state = workload.setup(sd, seed)
    deadline = time.perf_counter() + seconds
    rounds = [workload.run_round(state, r) for r in range(workload.quality_rounds)]
    while time.perf_counter() < deadline:
        rounds.append(workload.run_round(state, len(rounds), deadline))
    return rounds


def summarize(workload, rounds) -> dict:
    trials = [t for rd in rounds for t in rd.trials]
    sdwn = [t.seconds for t in trials if t.sdwn and t.seconds is not None]
    failures = [{"trial": t.key, "problems": t.problems} for t in trials if t.problems]
    q = workload.tail_percentile
    return {
        "rounds": len(rounds),
        "attempted": len(trials),
        "failed": len(failures),
        "failures": failures,
        "round_s": [rd.seconds for rd in rounds],
        "round_trials": [len(rd.trials) for rd in rounds],
        "trials_per_s": len(trials) / sum(rd.seconds for rd in rounds),
        "sdwn_samples": len(sdwn),
        "sdwn_scaled": sum(t.scaled for t in trials),
        "sdwn_ms": [1e3 * x for x in sdwn],
        "sdwn_trial_p50_ms": 1e3 * percentile(sdwn, 50) if sdwn else None,
        "sdwn_trial_tail_ms": 1e3 * percentile(sdwn, q) if sdwn else None,
        "tail": {"percentile": q, "samples": len(sdwn),
                 "beyond": samples_beyond(sdwn, q) if sdwn else 0},
        "csv_sha256": workloads.digest(rounds[:workload.quality_rounds]),
        "quality": workload.quality(rounds[:workload.quality_rounds]),
    }


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 30
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "ram_gib": round(ram, 1),
            "python": platform.python_version(), "numpy": np.__version__}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def layer_unit(name: str) -> str:
    if name.endswith(("useful_ratio", "overhead_share")):
        return "ratio"
    if "trials_per_s" in name:
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


# ---- the two kinds of run --------------------------------------------------------

def run_plain(workload, seed, seconds):
    setup = setup_seconds(workload, seed)
    sd = import_sdwnsim()
    rounds = measure(workload, sd, seed, seconds)
    s = summarize(workload, rounds)
    values = {"setup_s": setup, "trials_per_s": s["trials_per_s"],
              "sdwn_trial_p50_ms": s["sdwn_trial_p50_ms"],
              "sdwn_trial_tail_ms": s["sdwn_trial_tail_ms"], "peak_rss_mb": peak_rss_mb()}
    end_to_end = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    end_to_end["failed_share"] = {"value": s["failed"] / s["attempted"], "unit": "ratio"}
    for name, (value, unit_name) in s["quality"].items():
        end_to_end[name] = {"value": value, "unit": unit_name}

    print(f"workload {workload.name}  seed {seed}  seconds {seconds:g}  rounds {s['rounds']}  "
          f"trials {s['attempted']} ({s['sdwn_samples']} SDWN, "
          f"{s['sdwn_scaled']} scaled_infeasible)")
    for name, m in end_to_end.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        note = ""
        if name == "setup_s":
            note = f"median of {SETUP_REPEATS} fresh-process set-ups"
        elif name == "sdwn_trial_tail_ms":
            t = s["tail"]
            note = f"p{t['percentile']} of {t['samples']} SDWN trials, {t['beyond']} beyond"
        elif name == "failed_share":
            note = f"{s['failed']} of {s['attempted']}"
        elif name in s["quality"]:
            note = f"quality, first {workload.quality_rounds} round(s)"
        print(f"  {name:<28} {value:>12} {m['unit']:<9} {note}")
    print(f"  csv_sha256 {s['csv_sha256']}")
    print(f"  machine {json.dumps(machine())}")
    for f in s["failures"]:
        print(f"  FAILED {f['trial']}: {'; '.join(f['problems'])}")
    detail = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": 0,
              "machine": machine(), "end_to_end": end_to_end, "tail": s["tail"],
              "rounds": s["rounds"], "round_s": s["round_s"], "sdwn_scaled": s["sdwn_scaled"],
              "round_trials": s["round_trials"], "sdwn_ms": s["sdwn_ms"],
              "attempted": s["attempted"], "failed": s["failed"], "failures": s["failures"],
              "csv_sha256": s["csv_sha256"]}
    result = {"correct": s["failed"] == 0, "attempted": s["attempted"], "failed": s["failed"],
              "metrics": {k: end_to_end[k] for k in END_TO_END}}
    return detail, result


def run_traced(workload, seed, seconds):
    sd = import_sdwnsim()
    # warm-up pass over the quality rounds, so first-call costs (allocator growth,
    # thread pools) fall on neither half and the overhead compares like with like
    measure(workload, sd, seed, 0)
    plain = summarize(workload, measure(workload, sd, seed, seconds / 2))
    tracer = spans.Tracer()
    wrap = spans.targets(sd) + [(workloads, "verify", "bench.verify", None, None)]
    with spans.installed(tracer, wrap):
        traced = summarize(workload, measure(workload, sd, seed, seconds / 2))
    layers = spans.layer_metrics(tracer.spans)
    layers["trace.trials_per_s_untraced"] = plain["trials_per_s"]
    layers["trace.trials_per_s_traced"] = traced["trials_per_s"]
    # both halves start at round 0, so their common rounds ran identical inputs
    common = min(plain["rounds"], traced["rounds"])
    layers["trace.overhead_share"] = (sum(traced["round_s"][:common])
                                      / sum(plain["round_s"][:common]) - 1.0)
    layers["trace.spans"] = len(tracer.spans)
    identical = plain["csv_sha256"] == traced["csv_sha256"]

    print(f"workload {workload.name}  seed {seed}  seconds {seconds:g}  traced "
          f"(untraced half: {plain['attempted']} trials, traced half: {traced['attempted']})")
    for name, value in layers.items():
        print(f"  {name:<46} {value:>14.6g} {layer_unit(name)}")
    print(f"  csv_sha256 untraced {plain['csv_sha256']}")
    print(f"  csv_sha256 traced   {traced['csv_sha256']}  identical={identical}")
    print(f"  machine {json.dumps(machine())}")
    failures = plain["failures"] + traced["failures"]
    for f in failures:
        print(f"  FAILED {f['trial']}: {'; '.join(f['problems'])}")
    attempted = plain["attempted"] + traced["attempted"]
    detail = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": 1,
              "machine": machine(),
              "per_layer": {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()},
              "csv_sha256_untraced": plain["csv_sha256"], "csv_sha256_traced": traced["csv_sha256"],
              "csv_identical": identical, "attempted": attempted, "failed": len(failures),
              "failures": failures}
    result = {"correct": identical and not failures, "attempted": attempted,
              "failed": len(failures), "metrics": detail["per_layer"]}
    return detail, result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if args.setup_probe:
        workload.setup(import_sdwnsim(), seed)
        print("ready", flush=True)
        return 0
    if not (SRC / "sdwnsim" / "__init__.py").is_file():
        raise SystemExit(f"run_bench: no sdwnsim sources under {SRC}")
    run = run_traced if args.trace else run_plain
    detail, result = run(workload, seed, args.seconds)
    print("DETAIL " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
