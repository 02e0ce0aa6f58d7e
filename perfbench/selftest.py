"""Self-test of the benchmark harness: every workload at a tiny size.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Runs each workload in WORKLOADS once untraced and once traced, at the sizes
in `workloads.TINY` with unchanged argv, and checks that every run passes its
output checks and prints exactly the metrics BENCHMARK.json names (every
metric for the workloads it lists). Takes well under a minute.
"""

import contextlib
import io
import json
import sys

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402  (needs the package path above)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = {w["name"] for w in spec["workloads"]}
    expected = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    for name, workload in workloads.WORKLOADS.items():
        for trace in (False, True):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = run.run_workload(workloads.tiny(workload), seed=0, seconds=0,
                                        trace=trace, workdir=run.WORK / "selftest" / name)
            label = f"{name} trace={int(trace)}"
            if code != 0:
                problems.append(f"{label}: exit code {code}")
                continue
            result = json.loads(stdout.getvalue().strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            names = set(result["metrics"])
            if name in listed and names != expected[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(names ^ expected[trace])}")
            print(f"{label}: attempted {result['attempted']}, failed {result['failed']}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
