"""Benchmark of the hybridgnn command-line program.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates the workload's inputs from the seed (set-up, repeated
SETUP_REPEATS times and reported as a median), then runs the workload's
command through `hybridgnn.cli.main(argv)`, in-process in a fresh child
interpreter per command, until S seconds have passed. Every command's outputs
are checked. With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it alternates traced and untraced commands and reports the
per-layer split (see tracer.py). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Lines before it describe the
machine and every metric in readable form.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

SETUP_REPEATS = 15
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Traced metrics that the fold-pool workload measures on its own run; the
# rest of its per-layer split comes from the serial run on the same inputs.
POOL_RUN_METRICS = (
    "data.load_dataset.ms", "data.build_segments.ms", "data.segments",
    "training.ten_fold_cv.ms", "training.ten_fold_cv.worker_busy_share",
    "trace.traced_wall_ms", "trace.unattributed_ms", "trace.bookkeeping_ms",
)


def machine_facts() -> dict:
    """What the numbers depend on, recorded with every result. The BLAS
    thread variables are read, never set, so the program runs as users run it."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without machine-readable build facts
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(),
        **{name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def git_commit() -> str | None:
    """The checkout's commit read from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill the command's process group (the child and any fold workers a
    crash left behind) and wait until every member has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed: int, seconds: float, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.dir = workdir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0  # commands that crashed, exited non-zero or failed a check
        self.failures: list[str] = []
        self.commands = 0

    # -- set-up ------------------------------------------------------------------

    def setup(self) -> tuple[dict, list[float]]:
        import workloads

        times = []
        for _ in range(SETUP_REPEATS):
            target = self.dir / "input"
            shutil.rmtree(target, ignore_errors=True)
            start = time.perf_counter()
            inputs = workloads.setup(self.workload, self.seed, str(target))
            times.append(time.perf_counter() - start)
        return inputs, times

    # -- one command ---------------------------------------------------------------

    def command(self, workload, inputs: dict, trace: str, reference_out: str | None = None,
                keep: bool = False):
        """Run the workload's command once in a child interpreter and check it.

        The command's output directory is deleted after the check unless
        `keep`, so written files do not pile up under later commands."""
        import workloads

        self.commands += 1
        tag = f"{self.commands:03d}"
        out = self.dir / f"out_{tag}"
        shutil.rmtree(out, ignore_errors=True)
        spec = {
            "src": str(SRC),
            "argv": workload.command(inputs, str(out)),
            "trace": trace,
            "run_id": f"{workload.name}-seed{self.seed}-{tag}",
            "busy_log": str(self.dir / f"busy_{tag}.jsonl"),
            "log": str(self.dir / f"log_{tag}.txt"),
            "result": str(self.dir / f"result_{tag}.json"),
        }
        spec_path = self.dir / f"spec_{tag}.json"
        spec_path.write_text(json.dumps(spec))
        self.attempted += 1
        result = self._spawn(spec_path, Path(spec["result"]))
        if result is None:
            failures, facts = [f"no result (see {spec['log']})"], {}
        elif result["rc"] != 0:
            failures, facts = [f"exit code {result['rc']}"], {}
        else:
            try:
                failures, facts = workloads.check(workload, inputs, str(out), reference_out)
            except (OSError, ValueError, KeyError) as exc:
                failures, facts = [f"output unreadable: {exc!r}"], {}
        if failures:
            self.failed += 1
            self.failures.extend(f"{spec['run_id']}: {msg}" for msg in failures)
        if result is not None:
            result.update(facts, out=str(out), ok=not failures)
        if not keep:
            shutil.rmtree(out, ignore_errors=True)
        return result

    def _spawn(self, spec_path: Path, result_path: Path):
        timeout = max(1.0, self.deadline - time.monotonic())
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            cwd=str(ROOT), start_new_session=True,
        )
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
        finally:
            _kill_group(proc)
        if proc.returncode != 0 or not result_path.is_file():
            return None
        return json.loads(result_path.read_text())

    def time_left(self, started: float, next_s: float) -> bool:
        """Whether a command that takes as long as the last one, `next_s`
        seconds with its check, still ends within the run's seconds."""
        return time.monotonic() - started + next_s <= self.seconds

    def cleanup_outputs(self) -> None:
        for path in self.dir.glob("out_*"):
            shutil.rmtree(path, ignore_errors=True)
        shutil.rmtree(self.dir / "input", ignore_errors=True)


def measure(run: Run, inputs: dict, trace: bool) -> dict:
    """Run commands while the next one still ends within the run's seconds
    (at least one untraced and, when tracing, one traced); returns their results.

    A workload's `warmup` commands run first and are checked but not
    reported: on the reference machine the first command after set-up was
    up to 30 % slower than the rest.

    A workload with a `reference` first runs the serial command on the same
    inputs: its report is what the fold-pool report must equal, and in a
    traced run a traced serial command gives the per-layer split that the
    fold workers cannot report.
    """
    import workloads

    workload = run.workload
    reference_out = serial_traced = None
    if workload.reference:
        serial = replace(workload, name=workload.reference, reference=None,
                         argv=workloads.WORKLOADS[workload.reference].argv)
        reference = run.command(serial, inputs, "off", keep=True)
        reference_out = reference["out"] if reference else None
        if trace:
            serial_traced = run.command(serial, inputs, "layers")
    for _ in range(workload.warmup):
        run.command(workload, inputs, "off", reference_out)
    untraced, traced = [], []
    mode = "outer" if workload.reference else "layers"
    started, last_s = time.monotonic(), 0.0
    while not untraced or (trace and not traced) or run.time_left(started, last_s):
        before = time.monotonic()
        if trace and len(traced) <= len(untraced):
            traced.append(run.command(workload, inputs, mode, reference_out))
        else:
            untraced.append(run.command(workload, inputs, "off", reference_out))
        last_s = time.monotonic() - before
        if time.monotonic() > run.deadline:
            break
    return {
        "untraced": _completed(untraced),
        "traced": _completed(traced),
        "serial_traced": (_completed([serial_traced]) or [None])[0],
    }


def _completed(results: list) -> list:
    """The results of commands that ran to a zero exit code."""
    return [r for r in results if r is not None and r["rc"] == 0]


def end_to_end(setup_times, results) -> dict:
    """name -> (median, unit, sample count) over the untraced commands."""
    checked = [r for r in results if "work" in r]
    return {
        "setup_s": (median(setup_times), "s", len(setup_times)),
        "wall_s": (median(r["wall_s"] for r in results), "s", len(results)),
        "seg_per_s": (median(r["work"] / r["wall_s"] for r in checked) if checked else 0.0,
                      "seg/s", len(checked)),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in results), "MB", len(results)),
    }


def per_layer(raw: dict) -> tuple[dict, str]:
    """Median of each traced metric, plus the run's tracing accounting."""
    traced = [r["trace"]["metrics"] for r in raw["traced"]]
    metrics = {name: median(m[name] for m in traced) for name in traced[0]}
    source = "this workload's traced commands"
    if raw["serial_traced"] is not None:
        pool_run = {name: metrics[name] for name in POOL_RUN_METRICS}
        metrics = dict(raw["serial_traced"]["trace"]["metrics"])
        metrics.update(pool_run)
        source = ("layers: traced serial command on the same inputs; "
                  f"{', '.join(POOL_RUN_METRICS)}: traced fold-pool commands")
    untraced_ms = 1000.0 * median(r["wall_s"] for r in raw["untraced"])
    metrics["trace.untraced_wall_ms"] = untraced_ms
    metrics["trace.overhead_share"] = metrics["trace.traced_wall_ms"] / untraced_ms - 1.0
    return metrics, source


def unit_of(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith("share"):
        return "fraction"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hybridgnn" / "__init__.py").is_file():
        print(f"error: no hybridgnn package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return run_workload(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace), WORK / args.workload)


def run_workload(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> int:
    """One run: set up, measure, check, print the report and the JSON line."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    facts = machine_facts()
    run = Run(workload, seed, seconds, workdir)
    inputs, setup_times = run.setup()
    raw = measure(run, inputs, trace)
    run.cleanup_outputs()
    for msg in run.failures:
        print(f"check failed: {msg}", file=sys.stderr)
    if not raw["untraced"] or (trace and not raw["traced"]):
        print("error: no command of this run completed", file=sys.stderr)
        return 1

    e2e = end_to_end(setup_times, raw["untraced"])
    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    print(f"workload {workload.name}, seed {seed}: {len(raw['untraced'])} untraced and "
          f"{len(raw['traced'])} traced commands ok; {run.attempted} attempted, {run.failed} failed")
    for name, (value, unit, count) in e2e.items():
        print(f"  {name:<18} {value:12.4f} {unit:<6} median of {count}")
    throughput = "infer_seg_per_s" if workload.kind == "export" else "train_seg_per_s"
    print(f"  {throughput:<18} {e2e['seg_per_s'][0]:12.4f} seg/s  reported as seg_per_s")
    losses = [r["final_train_loss"] for r in raw["untraced"] if r.get("final_train_loss") is not None]
    if losses:
        print(f"  {'final_train_loss':<18} {median(losses):12.6f} -      median of {len(losses)}")
    print(f"  {'error_rate':<18} {run.failed / run.attempted:12.4f} -      "
          f"{run.failed} failed of {run.attempted} attempted")

    results = raw["untraced"] + raw["traced"]
    if trace:
        metrics, source = per_layer(raw)
        print(f"  per-layer source: {source}")
        print(f"  trace accounting: traced wall {metrics['trace.traced_wall_ms']:.1f} ms, "
              f"untraced median wall {metrics['trace.untraced_wall_ms']:.1f} ms, overhead "
              f"{100 * metrics['trace.overhead_share']:.1f} %, unattributed "
              f"{metrics['trace.unattributed_ms']:.1f} ms (of which tracer bookkeeping "
              f"{metrics['trace.bookkeeping_ms']:.1f} ms)")
        for name in sorted(metrics):
            print(f"    {name:<42} {metrics[name]:14.4f} {unit_of(name)}")
        spans = [r["trace"].pop("spans") for r in results if r["trace"]]
        if raw["serial_traced"] is not None:
            spans.append(raw["serial_traced"]["trace"].pop("spans"))
        (workdir / "trace.json").write_text(json.dumps(
            {"machine": facts, "layer_source": source, "metrics": metrics, "spans": spans}))
        output = {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}
    else:
        output = {name: {"value": value, "unit": unit} for name, (value, unit, _n) in e2e.items()}
    (workdir / "result.json").write_text(json.dumps(
        {"workload": workload.name, "seed": seed, "seconds": seconds, "machine": facts,
         "setup_s": setup_times, "commands": results, "failures": run.failures}, indent=1))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": output}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
