"""Run one hybridgnn command in-process and record what it cost.

Usage: python3 child.py SPEC.json

SPEC is a JSON object written by run.py:
  src       directory that holds the `hybridgnn` package
  argv      arguments for `hybridgnn.cli.main`
  trace     "off", "layers" (every layer function) or "outer" (data, params
            and fold-pool functions only)
  run_id    identifier stamped on every span
  busy_log  file that fold workers append their busy intervals to
  log       file that receives the command's stdout and stderr
  result    file this script writes its JSON result to

Each command runs in a fresh process so that peak RSS belongs to that command
alone: it is the larger of this process's own peak (VmHWM) and its reaped
children's (the fold workers') maximum resident set size.
"""

import json
import os
import resource
import sys
import time


def own_peak_kib() -> int:
    """This process's peak resident set size in KiB.

    It is read as VmHWM, the peak of this process's own address space.
    ru_maxrss would also carry the parent's peak, because a child that
    subprocess starts with vfork inherits it at exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    log_fd = os.open(spec["log"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.dup2(log_fd, 1)
    os.dup2(log_fd, 2)
    sys.path.insert(0, spec["src"])
    from hybridgnn import cli

    tracer = None
    if spec["trace"] != "off":
        from tracer import Tracer

        tracer = Tracer(spec["run_id"], spec["busy_log"])
        tracer.install(layers=spec["trace"] == "layers")

    start = time.perf_counter()
    rc = cli.main(spec["argv"])
    wall_s = time.perf_counter() - start
    sys.stdout.flush()

    kib = max(own_peak_kib(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "rc": rc,
        "wall_s": wall_s,
        "peak_rss_mb": kib / 1024.0,
        "trace": tracer.summary(wall_s) if tracer else None,
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
