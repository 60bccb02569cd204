"""Run every workload of the benchmark and print one table.

    python3 perfbench/suite.py --seed N [--trace 0|1]
    python3 perfbench/suite.py --smoke

The first form runs perfbench/run.py once per workload, for BENCHMARK.json's
run_seconds, and prints each end-to-end metric with its unit, median,
quartiles and sample count, plus failed_frac (with --trace 1, the per-layer
metrics instead). The second is the benchmark's smoke test: each workload
once at a reduced size, traced and untraced, asserting that every metric
named in BENCHMARK.json is emitted with its unit and that the outputs pass
their checks. It exits 1 on the first failure. Both cover every workload of
perfbench/workloads.py, also sweep-step, which BENCHMARK.json leaves out.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_workload(name, seed, seconds, trace, reduced=False):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if reduced:
        cmd.append("--reduced")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{name}: run.py exited {proc.returncode}\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    results = HERE / "out" / f"{name}-seed{seed}{'-trace' if trace else ''}.json"
    return last, json.loads(results.read_text())


def smoke(bench):
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            last, _ = run_workload(name, 7, 0, trace, reduced=True)
            expected = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            if got != expected:
                missing = sorted(set(expected) - set(got))
                extra = sorted(set(got) - set(expected))
                wrong = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
                raise SystemExit(f"{name} trace={trace}: missing {missing}, "
                                 f"unexpected {extra}, wrong units {wrong}")
            if not last["correct"] or last["failed"] or last["attempted"] < 1:
                raise SystemExit(f"{name} trace={trace}: {last}")
            print(f"smoke {name} trace={trace}: {len(got)} metrics with units, correct")
    print("smoke test passed")


def table(bench, seed, trace):
    for name in workloads.WORKLOADS:
        _, result = run_workload(name, seed, bench["run_seconds"], trace)
        print(f"{name} (seed {seed}, commit {result['machine']['git_commit']}): "
              f"failed_frac {result['failed_frac']:.6g} share ({result['failed']} of "
              f"{result['attempted']} samples)")
        if trace:
            for metric, value in result["per_layer"].items():
                print(f"  {metric:<46} {value:.6g}")
            continue
        for metric, v in result["end_to_end"].items():
            print(f"  {metric:<12} {v['median']:.6g} {v['unit']}  "
                  f"[q1 {v['q1']:.6g}, q3 {v['q3']:.6g}]  n={v['n']}")
        for problem in result["problems"]:
            print(f"  problem: {problem}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.smoke:
        smoke(bench)
    else:
        table(bench, args.seed, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
