"""Seeded end-to-end benchmark of the dialectoscope command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program runs from ``src/`` as
cold processes, one after another (a closed loop with one client).  Each run
generates its inputs from the seed, measures set-up, then repeats whole
rounds of the workload's operations until ``--seconds`` have passed, checks
every output against what the generator computed, and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 1`` replays the
same operations in-process with a span around each layer call and reports
per-layer metrics instead (see ``trace_layers.py``).  Notes and known faults go to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402

#: What the installed ``dialectoscope`` script runs.
CLI = "import sys; from dialectoscope.cli import main; sys.exit(main())"
#: Set-up: import the CLI, load the default profile, build the parser.
SETUP = (
    "import os, dialectoscope.cli as c; c.load_profile(c.DEFAULT_PROFILE); c.build_parser(); os._exit(0)"
)
SETUP_SAMPLES = 12
#: A fixed pure-Python process of the same kind of work as the program
#: (string splitting, regular expressions, dictionaries, JSON) that does not
#: touch the program.  It is run after every timed process, and each timed
#: process is scaled by the reference runs on either side of it.  A workload
#: dominated by other work brings its own reference (``Workload.reference``).
REFERENCE = """import json, re, shlex
table = {}
for i in range(12000):
    key = f"-DNAME_{i}=value {i}"
    table[key] = shlex.split(f"gcc '{key}' -O2 -c f{i}.c") if i % 10 == 0 else re.sub(r"\\d", "#", key)
json.dumps(table, indent=2)
"""
#: The reference's wall time on the host below when it is idle: timings are
#: reported at the speed where the reference takes this long.
REFERENCE_S = 0.15


def program_env(work: Path) -> dict[str, str]:
    """The program's environment: its source on the path, and temporary
    files (``probe verify`` and gcc write some) inside the run's directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work)
    return env


def spawn(argv: list[str], cwd: Path, env: dict, stdout=subprocess.DEVNULL,
          stderr=subprocess.DEVNULL) -> tuple[int, float, float]:
    """Run one process to completion: (exit status, wall seconds, peak RSS
    in MB of the process and the children it waited for)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


class ScaledClock:
    """Times processes at the reference speed.

    On a shared host the speed of this machine swings: the same call's wall
    and CPU time rose by half within 90 seconds, and by up to 1.8x for
    seconds at a time, while other tenants loaded the machine.  The ratio of
    a call's wall time to the reference runs just before and just after it
    moved by under 5% over the same span.
    """

    def __init__(self, work: Path, env: dict, reference: str = REFERENCE, reference_s: float = REFERENCE_S) -> None:
        self.work, self.env = work, env
        self.reference_code, self.reference_s = reference, reference_s
        self.raw: list[float] = []
        self.references: list[float] = []
        self.previous = self.reference()

    def reference(self) -> float:
        status, wall, _ = spawn([sys.executable, "-c", self.reference_code], self.work, self.env)
        if status != 0:
            raise SystemExit(f"reference process exited with status {status}")
        self.references.append(wall)
        return wall

    def time(self, argv: list[str], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
        """(exit status, scaled seconds, peak RSS in MB) of one process."""
        status, wall, peak = spawn([sys.executable, *argv], self.work, self.env, stdout, stderr)
        following = self.reference()
        self.raw.append(wall)
        scaled = wall * self.reference_s / ((self.previous + following) / 2)
        self.previous = following
        return status, scaled, peak


def run_untraced(wl: inputs.Workload, work: Path, seconds: float) -> tuple[dict, inputs.Tally]:
    """Whole rounds until ``seconds`` have passed.  Set-up is sampled
    SETUP_SAMPLES times, spread evenly over the run; the first, unmeasured
    sample writes the bytecode cache."""
    clock = ScaledClock(work, program_env(work), *(wl.reference or ()))
    setup_argv = ["-c", SETUP]
    clock.time(setup_argv)
    setup = []
    tally = inputs.Tally()
    times: list[list[float]] = [[] for _ in wl.ops]
    done_work = [0] * len(wl.ops)  # per completed call; a unit is one unit of work
    rss: list[float] = []
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    start = time.perf_counter()
    rounds = 0
    while not rounds or time.perf_counter() - start < seconds:
        for i, op in enumerate(wl.ops):
            if len(setup) < SETUP_SAMPLES * min(1.0, (time.perf_counter() - start) / seconds):
                setup.append(clock.time(setup_argv)[1])
            with open(out_path, "w") as out, open(err_path, "w") as err:
                status, scaled, peak = clock.time(["-c", CLI, *op.argv], out, err)
            failed = tally.record(op, status, out_path.read_text(), err_path.read_text())
            if op.timed and failed < op.units:
                times[i].append(scaled)
                rss.append(peak)
                done_work[i] = op.work if op.units == 1 else op.units - failed
        rounds += 1
    while len(setup) < SETUP_SAMPLES:
        setup.append(clock.time(setup_argv)[1])
    done = [(n, statistics.median(t)) for n, t in zip(done_work, times) if t]
    round_s = sum(t for _, t in done)
    print(f"reference process: median {statistics.median(clock.references):.4f} s,"
          f" min {min(clock.references):.4f} s; unscaled call median {statistics.median(clock.raw):.4f} s",
          file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "work_per_s": (sum(n for n, _ in done) / round_s, "1/s"),
        "call_ms": (round_s / len(done) * 1000, "ms"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    return tally.result({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}), tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dialectoscope" / "cli.py").is_file():
        print(f"error: no program source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = inputs.WORKLOADS[args.workload](str(work), random.Random(f"{args.workload}:{args.seed}"))
        if args.trace:
            import trace_layers

            result, tally = trace_layers.run_traced(wl, work, args.seconds, program_env(work))
        else:
            result, tally = run_untraced(wl, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, value in wl.properties.items():
        print(f"input {args.workload} {name} = {value:.4g}", file=sys.stderr)
    for fault, count in tally.faults.items():
        print(f"failed {count}: {fault}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
