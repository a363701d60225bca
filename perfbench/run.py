"""Outside-in benchmark of the epikit command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it uses the package under
``src/`` and nothing installed.  The load is a closed loop with one
client: each op runs the workload's CLI commands one after another, every
command a fresh ``python -m epikit.cli`` process, so no in-process cache
carries over between ops.  Each command's exit code and output are
checked (see ``workloads.py``).

With ``--trace 0`` the last stdout line gives the end-to-end metrics:
the median time of one op, the median start-up time of a bare
``epikit --version`` process, and the largest max-RSS among the child
processes.

With ``--trace 1`` ops alternate between the plain form and a traced
form (``spans.py``) that records spans around each module's public
functions, and the last line gives per-layer self times and exact counts.
Exact counts must repeat across the ops of a run and across runs of the
same code, workload and seed in one checkout; a mismatch is reported as a
fault of the benchmark, not as noise.

Every time is in reference seconds.  A shared host runs the same code up
to twice as slow for seconds or minutes at a time, and differently on
each core.  So the whole run is pinned to one core, ``probe.py``, a short
fixed pure-Python load that does not touch epikit, repeats on that core
beside the commands, and each command's CPU time (user plus system, as
``wait4`` reports it; for this single-threaded CLI, its wall time on an
idle core) is scaled by ``PROBE_REF_S`` over the harmonic mean CPU time
of the probe's repetitions that ended while the command ran.  The probe
samples the core's speed at even steps in time, and the work a command
does is that speed summed over its CPU time, so the mean speed (the
harmonic mean of the repetition times) is the factor that matches it.
Span self times, which are CPU times of the traced process, get the
factor of their command.  The result is the time on a core where one
probe repetition takes ``PROBE_REF_S``: a faster program reads lower, a
busier host does not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import spans

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0
SETUP_SAMPLES = 11
# the CPU time of one probe.py repetition on a quiet core, a little under
# the fastest seen on a 2-vCPU Xeon (Sapphire Rapids) KVM guest; it fixes
# the unit of the reported times
PROBE_REF_S = 0.0015
# a command shorter than this many probe repetitions is scaled by the
# first ones that ended after it started
MIN_PROBES = 5

END_TO_END = {"op_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Timing(NamedTuple):
    """One command: its perf_counter start and end, and its CPU time."""

    start: float
    end: float
    cpu: float


class Probe:
    """``probe.py`` running beside the measured commands."""

    def __init__(self, work: Path):
        self.out = work / "probe.json"
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), str(self.out), str(DEADLINE_S)],
            stdout=subprocess.DEVNULL,
        )
        self.ends: list[float] = []
        self.durations: list[float] = []

    def stop(self) -> None:
        """Stops the probe, waits for it to end and reads its repetitions."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.out.is_file() and not self.ends:
            data = json.loads(self.out.read_text())
            self.ends, self.durations = data["end"], data["duration"]

    def reference_time(self, timing: Timing) -> float | None:
        """The command's CPU time scaled by PROBE_REF_S over the harmonic
        mean CPU time of the repetitions that ended while it ran (at least
        MIN_PROBES of them); None when the probe recorded too few."""
        lo = bisect_left(self.ends, timing.start)
        hi = max(bisect_right(self.ends, timing.end), lo + MIN_PROBES)
        inside = self.durations[lo:hi]
        if len(inside) < MIN_PROBES:
            return None
        return timing.cpu * PROBE_REF_S / statistics.harmonic_mean(inside)


class Runner:
    """Starts CLI processes from the checkout and checks what they print."""

    def __init__(self, root: Path, work: Path, started: float):
        self.work = work
        self.deadline = started + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.peak_rss_kb = 0

    def spawn(self, argv: list[str]) -> tuple[Timing, int, bytes, bytes]:
        """Runs one command; returns its timing, exit code, stdout and
        stderr."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(
                argv, stdout=out, stderr=err, cwd=self.work, env=self.env
            )
            # a blocking wait sees the exit at once (Popen.wait with a
            # timeout polls, in sleeps of up to 50 ms); a hung op is killed
            # at the run's deadline, fails its check on the kill's exit
            # code, and the run stops there
            killer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            end = perf_counter()
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        timing = Timing(start, end, usage.ru_utime + usage.ru_stime)
        return timing, code, out_path.read_bytes(), err_path.read_bytes()

    def cli(self, args: list[str]) -> tuple[Timing, int, bytes, bytes]:
        return self.spawn([sys.executable, "-m", "epikit.cli", *args])

    def op(self, steps, spans_path: Path | None = None):
        """Runs every step once.  Returns the steps' timings, the first
        failure (or None) and, when traced, the per-step span files."""
        timings, traces = [], []
        for i, step in enumerate(steps):
            for path in step.outputs:
                path.unlink(missing_ok=True)
            if spans_path is None:
                timing, code, out, err = self.cli(step.args)
            else:
                trace = spans_path.with_suffix(f".{i}.json")
                trace.unlink(missing_ok=True)
                timing, code, out, err = self.spawn(
                    [sys.executable, str(HERE / "spans.py"), str(trace), "--", *step.args]
                )
                traces.append(trace)
            timings.append(timing)
            if b"Traceback" in err:
                error = "traceback on stderr: " + err.decode(errors="replace")[-300:]
            else:
                try:
                    error = step.check(code, out)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    error = f"unreadable output: {exc!r}"
            if error:
                return timings, f"{' '.join(step.args[:3])}: {error}", traces
        return timings, None, traces


def measure_setup(runner: Runner, faults: list[str]) -> list[Timing]:
    """Timings of SETUP_SAMPLES `epikit --version` processes:
    interpreter start, package import and parser build.  One unmeasured
    call first writes bytecode, as an installed package would have it."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        timing, code, out, _ = runner.cli(["--version"])
        if code != 0 or not out.startswith(b"epikit "):
            faults.append(f"--version: exit {code}, stdout {out[:80]!r}")
        if i:
            samples.append(timing)
    return samples


def seconds(timing: Timing, probe: Probe, faults: list[str]) -> float:
    """The command's CPU time in reference seconds."""
    scaled = probe.reference_time(timing)
    if scaled is None:
        faults.append(f"the probe recorded fewer than {MIN_PROBES} repetitions "
                      f"from a command's start on")
        return timing.cpu
    return scaled


def pin_to_one_core() -> None:
    """Keeps this process, and every process it starts, on one core: the
    commands and the probe that measures their core."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def keep_going(run_start: float, loop_start: float, seconds: float,
               walls: list[float]) -> bool:
    """Start another op while it is expected to end by `seconds` plus half
    an op, and always within the run's deadline.  `walls` are the ops'
    elapsed times, checks included."""
    now = perf_counter()
    est = statistics.median(walls)
    return now - loop_start + est / 2 < seconds and now - run_start + est < DEADLINE_S


def layer_metrics(traces: list[Path], scales: list[float]) -> dict[str, float]:
    """Per-layer values of one traced op, summed over its steps; each
    step's self times are multiplied by its scale, the factor that turns
    its CPU seconds into reference seconds."""
    values: dict[str, float] = {}
    for path, scale in zip(traces, scales):
        data = json.loads(path.read_text())
        for name, (calls, self_s) in spans.self_times(data["spans"]).items():
            values[f"{name}.calls"] = values.get(f"{name}.calls", 0) + calls
            values[f"{name}.self_s"] = values.get(f"{name}.self_s", 0.0) + self_s * scale
        for name, count in data["counters"].items():
            values[name] = values.get(name, 0) + count
    return values


def per_layer_names() -> list[tuple[str, str]]:
    out = [(f"{span}.{kind}", "count" if kind == "calls" else "s")
           for span, kinds in spans.SPANS.items() for kind in kinds]
    out += [(name, "count") for name in spans.COUNTERS]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


def counts_record(root: Path, workload: str, seed: int) -> Path:
    """Where the first traced run of a workload and seed keeps its exact
    counts.  The name holds a sha256 of the measured package's sources and
    the benchmark's own, so runs are compared only with runs of the same
    code: a change may alter counts on purpose."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "epikit").glob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(f"{path.parent.name}/{path.name}\0".encode())
        digest.update(path.read_bytes())
        digest.update(b"\0")
    name = f"{workload}-seed{seed}-{digest.hexdigest()[:16]}.json"
    return root / ".bench_work" / "counts" / name


def check_counts(record: Path, per_op: list[dict[str, float]],
                 faults: list[str]) -> dict[str, int]:
    """Every span's call count and every search counter must repeat exactly
    between the ops of a run and with the counts in ``record``, written by
    the first run of the same code, workload and seed."""
    counts = [
        {k: int(v) for k, v in op.items() if k.endswith(".calls") or k in spans.COUNTERS}
        for op in per_op
    ]
    for other in counts[1:]:
        if other != counts[0]:
            faults.append(f"exact counts differ between ops of one run: {counts}")
    if record.is_file():
        before = json.loads(record.read_text())
        if before != counts[0]:
            faults.append(f"exact counts differ from an earlier run: {before} vs {counts[0]}")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(counts[0], sort_keys=True))
    return counts[0]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()
    pin_to_one_core()

    root = Path.cwd()
    src = root / "src"
    if not (src / "epikit" / "cli.py").is_file():
        print(f"error: no epikit sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import epikit
    import workloads

    if Path(epikit.__file__).resolve().parent != (src / "epikit").resolve():
        print(f"error: epikit imported from {epikit.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.BUILDERS)}", file=sys.stderr)
        return 2

    work = root / ".bench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    faults: list[str] = []
    probe = None
    try:
        steps = workloads.BUILDERS[args.workload](args.seed, work)
        runner = Runner(root, work, started)
        probe = Probe(work)
        # each op's per-step timings, and each traced op's span files
        plain: list[list[Timing]] = []
        traced: list[list[Timing]] = []
        trace_files: list[list[Path]] = []
        elapsed: list[float] = []
        failed = 0
        setup = [] if args.trace else measure_setup(runner, faults)
        loop_start = perf_counter()
        while True:
            op_start = perf_counter()
            timings, error, _ = runner.op(steps)
            plain.append(timings)
            failed += error is not None
            if error:
                faults.append(error)
            if args.trace:
                timings, error, traces = runner.op(steps, work / f"spans-{len(traced)}")
                traced.append(timings)
                if error:
                    failed += 1
                    faults.append(f"traced {error}")
                    break
                trace_files.append(traces)
            elapsed.append(perf_counter() - op_start)
            if not keep_going(started, loop_start, args.seconds, elapsed):
                break
        attempted = len(plain) + len(traced)
        probe.stop()
        per_op = [
            layer_metrics(files, [seconds(t, probe, faults) / t.cpu for t in timings])
            for files, timings in zip(trace_files, traced)
        ]
    finally:
        if probe is not None:
            probe.stop()
        shutil.rmtree(work, ignore_errors=True)

    step_s = [[seconds(t, probe, faults) for t in op] for op in plain]
    plain_s = [sum(op) for op in step_s]
    cpu_s = [sum(t.cpu for t in op) for op in plain]

    if args.trace:
        record = counts_record(root, args.workload, args.seed)
        counts = check_counts(record, per_op, faults) if per_op else {}
        units = per_layer_names()
        values = {
            name: counts.get(name, 0) if unit == "count"
            else statistics.median(op.get(name, 0.0) for op in per_op or [{}])
            for name, unit in units
        }
        traced_s = [sum(seconds(t, probe, faults) for t in op) for op in traced]
        values["trace.overhead_ratio"] = (
            statistics.median(traced_s) / statistics.median(plain_s) if traced else 0.0
        )
    else:
        units = END_TO_END.items()
        values = {
            "op_s_p50": statistics.median(plain_s),
            "setup_s": statistics.median(seconds(t, probe, faults) for t in setup),
            "peak_rss_mb": runner.peak_rss_kb / 1024,
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}

    for fault in faults:
        print(f"fault: {fault}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": len(plain),
        "op_s": plain_s,
        "step_s": step_s,
        "cpu_op_s": cpu_s,
        "wall_op_s": [sum(t.end - t.start for t in op) for op in plain],
        "run_s": perf_counter() - started,
        "faults": faults,
    }))
    print(json.dumps({
        "correct": not faults,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
