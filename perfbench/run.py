"""qmeasure benchmark: times `qmeasure.cli.main` on one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample is one fresh process (perfbench/child.py) that imports
qmeasure from ./src, loads the config and times one `main` call; the next
sample starts when the previous one has ended (a closed loop with one
client). Samples repeat until S seconds have passed, and at least twice, so
every run can check that a second run of the same seed emits byte-identical
CSV and JSON. Every sample's output is checked against engine A.

With --trace 1 one more sample runs with every layer wrapped in spans
(perfbench/spans.py) and the per-layer metrics replace the end-to-end ones
on the last line. The full result set, with the machine it ran on, goes to
perfbench/out/. The last line of standard output is a JSON object with the
keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# output directory of every sample, relative to the run's directory, so the
# settings echoed in the emitted JSON are the same for every sample
EMITTED = "emitted"

# name -> unit of every metric on the last line, end-to-end with --trace 0
# and per-layer with --trace 1
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
# a run stops starting samples after this long, whatever --seconds says, so
# that it ends well inside the 180 s a run may take
MAX_SECONDS = 120.0
# BLAS and OpenMP thread settings for this process and the samples. One
# thread: a second one gave no workload a shorter wall time on a 2-core Xeon
# VM (run-default 4.2-4.8 s either way), but spun on the other core, which
# ties each BLAS call to the slower of two cores a busy host shares out
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def git_commit():
    """The checkout's commit, or None where the checkout is no git repository
    (the ceiling keeps git from reporting an enclosing repository's commit)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine(threads):
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "git_commit": git_commit(),
    }


def summarize(values):
    """Median, quartiles and count of a list of samples."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_sample(spec, run_dir, timeout):
    """One sample in a fresh process, emitting into run_dir/emitted."""
    shutil.rmtree(run_dir / EMITTED, ignore_errors=True)
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                              cwd=run_dir, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"exit_code": None, "error": f"no result within {timeout} s"}
    if proc.returncode != 0:
        return {"exit_code": proc.returncode, "error": proc.stderr[-2000:]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["exit_code"] != 0:
        result["error"] = proc.stderr[-2000:]
    if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
        return {"exit_code": -1, "error": f"imported qmeasure from {result['module']}"}
    return result


def check_sample(name, sample, out, ref, first):
    """Problems with one sample's emitted files; sets sample['gate_use']."""
    if sample.get("exit_code") != 0:
        return [f"exit code {sample.get('exit_code')}: {sample.get('error', '')}"]
    stem = workloads.WORKLOADS[name].argv[0]
    try:
        csv_text = (out / f"{stem}.csv").read_text()
        json_text = (out / f"{stem}.json").read_text()
    except OSError as exc:
        return [f"missing output: {exc}"]
    header, rows = workloads.parse_csv(csv_text)
    problems, sample["gate_use"] = workloads.CHECKS[name](rows, ref)
    if sample["gate_use"] > 1.0:
        problems.append(f"gate_use {sample['gate_use']:.4g} exceeds 1")
    problems += [f"wall-clock field {f}" for f in workloads.clock_fields(header, json_text)]
    if first is not None and (csv_text, json_text) != first:
        problems.append("output differs from the first sample of the same seed")
    sample["files"] = (csv_text, json_text)
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="shrink the workload (for the smoke test, perfbench/suite.py --smoke)")
    args = parser.parse_args(argv)

    if not (SRC / "qmeasure" / "cli.py").is_file():
        print(f"error: no qmeasure sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(dict.fromkeys(THREAD_VARS, str(BLAS_THREADS)))
    sys.path.insert(0, str(SRC))
    from qmeasure.harness import config_from_mapping

    name = args.workload
    tag = f"{name}-seed{args.seed}" + ("-trace" if args.trace else "")
    out = OUT / tag
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    mapping = workloads.workload_config(name, args.seed, args.reduced)
    config_path = out / "config.json"
    config_path.write_text(json.dumps(mapping, indent=2, sort_keys=True) + "\n")
    ref = workloads.Reference(config_from_mapping(mapping))

    def sample(trace_file=None):
        spec = {"src": str(SRC), "config": str(config_path), "trace_file": trace_file,
                "argv": [*workloads.WORKLOADS[name].argv, "--config", str(config_path),
                         "--out", EMITTED]}
        result = run_sample(spec, out, timeout=150)
        found = check_sample(name, result, out / EMITTED, ref, first)
        result["failed"] = bool(found)
        return result, found

    samples, problems, first = [], [], None
    started = time.perf_counter()
    deadline = started + MAX_SECONDS
    min_samples = 1 if args.trace else 2
    while len(samples) < min_samples or (time.perf_counter() - started < args.seconds
                                         and time.perf_counter() < deadline):
        result, found = sample()
        problems += [f"sample {len(samples)}: {p}" for p in found]
        if first is None and "files" in result:
            first = result["files"]
        samples.append(result)

    traced = None
    if args.trace:
        traced, found = sample(trace_file=str(out / "spans.json"))
        problems += [f"traced sample: {p}" for p in found]

    timed = [s for s in samples if s.get("exit_code") == 0 and "gate_use" in s]
    attempted = len(samples) + (traced is not None)
    failed = sum(s["failed"] for s in samples) + bool(traced and traced["failed"])
    result = {
        "workload": name,
        "seed": args.seed,
        "reduced": args.reduced,
        "config": mapping,
        "machine": machine(BLAS_THREADS),
        "loop": "closed, one client: one fresh process per sample, started when the last ended",
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems,
        "end_to_end": {},
        "samples": [{k: s[k] for k in (*END_TO_END, "exit_code") if k in s} for s in samples],
    }
    for metric, unit in END_TO_END.items():
        values = [s[metric] for s in timed]
        if values:
            result["end_to_end"][metric] = {"unit": unit, **summarize(values)}

    metrics = {m: {"value": v["median"], "unit": v["unit"]}
               for m, v in result["end_to_end"].items()}
    if traced is not None and traced.get("exit_code") == 0:
        untraced = result["end_to_end"].get("wall_s", {}).get("median")
        layers, trace_problems, result["trace_warnings"] = spans.layer_metrics(
            json.loads(Path(out / "spans.json").read_text()), untraced, PER_LAYER)
        problems += [f"trace: {p}" for p in trace_problems]
        result["per_layer"] = layers
        result["span_file"] = str(out / "spans.json")
        metrics = {m: {"value": v, "unit": PER_LAYER[m]} for m, v in layers.items()}

    correct = not problems and bool(timed)
    result["correct"] = correct
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=2) + "\n")

    m = result["machine"]
    print(f"workload {name}  seed {args.seed}  commit {m['git_commit']}")
    print(f"machine: {m['nproc']} cpus ({m['cpu_model']}), Python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}, {m['blas']} x{m['blas_threads']} threads")
    for metric, v in result["end_to_end"].items():
        print(f"  {metric:<12} median {v['median']:.6g} {v['unit']}  "
              f"q1 {v['q1']:.6g}  q3 {v['q3']:.6g}  n={v['n']}")
    print(f"  {'failed_frac':<12} {result['failed_frac']:.6g} share  "
          f"({failed} of {attempted} samples)")
    if "per_layer" in result:
        for metric, value in result["per_layer"].items():
            print(f"  {metric:<46} {value:.6g} {PER_LAYER[metric]}")
        print("  top-level spans + harness.unattributed_s = trace.wall_s; "
              "trace.overhead_s = trace.wall_s - untraced median wall_s")
    for p in problems:
        print(f"  problem: {p}")
    for w in result.get("trace_warnings", ()):
        print(f"  warning: {w}")
    print(f"results: {OUT / (tag + '.json')}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
