"""One benchmark sample: a fresh process that sets up qmeasure and times one
`qmeasure.cli.main` call.

Usage: python3 perfbench/child.py SPEC.json

SPEC holds `src` (the directory holding the qmeasure package), `config` (the
workload's JSON config), `argv` (the CLI arguments) and `trace_file` (null
for an untraced sample). The last line of standard output is a JSON object
with `setup_s` (importing qmeasure and loading the config), `wall_s` (the
`main` call), `peak_rss_mb`, `exit_code`, `module` (where qmeasure was
imported from) and `stdout` (what `main` printed).
"""

import contextlib
import io
import json
import resource
import sys
import time


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)

    started = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import qmeasure.cli
    from qmeasure.harness import load_config

    load_config(spec["config"])
    setup_s = time.perf_counter() - started

    tracer = None
    if spec["trace_file"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        t0 = time.perf_counter()
        code = qmeasure.cli.main(spec["argv"])
        t1 = time.perf_counter()
    if tracer is not None:
        tracer.dump(spec["trace_file"], t0, t1)

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": t1 - t0,
        "peak_rss_mb": peak_kb / 1024.0,
        "exit_code": code,
        "module": qmeasure.__file__,
        "stdout": captured.getvalue(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
