"""Run every workload and record the result: the benchmark's one-command report.

    python3 bench/report.py [--seconds 36] [--out bench/BENCH_0.json]

For each workload it runs run_bench.py three times, each in a fresh process:
untraced on the workload's default seed, untraced on the held-out seed, and
traced on the default seed. It prints every end-to-end metric with its unit,
the failed share and the per-layer checks, and writes all of it, with the
machine record, to the JSON file named by --out.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run_bench import tail_percentile   # noqa: E402
from workloads import WORKLOADS   # noqa: E402

HELD_OUT_SEED = 2


def run(name, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run_bench.py"), "--workload", name,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"report: {name} seed {seed} trace {trace} exited {proc.returncode}")
    line = next(x for x in proc.stdout.splitlines() if x.startswith("DETAIL "))
    detail = json.loads(line[len("DETAIL "):])
    detail.pop("sdwn_ms", None)
    return detail


def trace_checks(name, traced) -> dict:
    """What the trace must explain, per the workload's purpose (README.md)."""
    m = {k: v["value"] for k, v in traced["per_layer"].items()}
    checks = {"csv_identical": traced["csv_identical"]}
    if name == "wlan-reserved":
        share = m["wlan.optimize_tau.total_s"] / m["harness.run_trial.sdwn_total_s"]
        checks["optimize_tau_share_of_sdwn_time"] = share
        checks["optimize_tau_share_at_least_0.9"] = share >= 0.9
        checks["optimize_tau_calls_eq_sdwn_plus_2x_strict_infeasible"] = (
            m["wlan.optimize_tau.calls"]
            == m["harness.run_trial.sdwn_calls"] + 2 * m["harness.run_trial.scaled"])
    if name == "wlan-unreserved":
        checks["feasibility_check_infeasible_is_0"] = m["wlan.feasibility_check.infeasible"] == 0
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--out", type=Path, default=HERE / "BENCH_0.json")
    args = parser.parse_args(argv)

    record = {"command": "python3 bench/run_bench.py --workload W --seed S "
                         f"--seconds {args.seconds:g} --trace T",
              "held_out_seed": HELD_OUT_SEED, "workloads": {}}
    for name, workload in WORKLOADS.items():
        default = run(name, workload.default_seed, args.seconds, 0)
        held_out = run(name, HELD_OUT_SEED, args.seconds, 0)
        traced = run(name, workload.default_seed, args.seconds, 1)
        record["machine"] = default["machine"]
        record["workloads"][name] = {
            "default_seed": workload.default_seed, "tail_percentile": workload.tail_percentile,
            "default": default, "held_out": held_out, "traced": traced,
            "trace_checks": trace_checks(name, traced)}

    for name, entry in record["workloads"].items():
        print(f"{name}  (seed {entry['default_seed']} | held-out seed {HELD_OUT_SEED})")
        for metric, m in entry["default"]["end_to_end"].items():
            held = entry["held_out"]["end_to_end"][metric]["value"]
            fmt = lambda v: "n/a" if v is None else f"{v:.6g}"   # noqa: E731
            print(f"  {metric:<28} {fmt(m['value']):>12} | {fmt(held):>12} {m['unit']}")
        tail = entry["default"]["tail"]
        print(f"  tail: p{tail['percentile']} of {tail['samples']} SDWN trials, "
              f"{tail['beyond']} beyond (the ten-beyond rule picks "
              f"p{tail_percentile(tail['samples'])} for this count)")
        layers = entry["traced"]["per_layer"]
        print(f"  tracing overhead {layers['trace.overhead_share']['value']:+.1%} "
              f"(traced {layers['trace.trials_per_s_traced']['value']:.4g} vs untraced "
              f"{layers['trace.trials_per_s_untraced']['value']:.4g} trials/s)")
        print(f"  trace checks {json.dumps(entry['trace_checks'])}")
    print(f"machine {json.dumps(record['machine'])}")
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
