"""End-to-end benchmark of the kanon service, with a traced per-layer split.

Run from the repository root::

    python3 perfbench/run.py --workload cold-solve --seed 1 --seconds 25
    python3 perfbench/run.py --workload warm-hits --trace 1
    python3 perfbench/run.py --workload all

Each run starts real ``kanon serve`` / ``kanon route`` processes from
``src/`` (default options, ``--port 0``, a fresh ``--cache-dir`` per
server), sets them up, and drives them with one closed-loop client: one
process, one thread, one connection, JSON lines over a stdlib socket.
Inputs come from ``gen.py`` and every response is checked by
``check.py``; neither imports the program.

Every process of a run, the client included, is pinned to one CPU
(the last the run may use).  With one request in flight the processes
hand off to each other and never run at once; on a shared virtual
machine an idle CPU is descheduled by the host, and a handoff across
CPUs then waits for the host to run it again, which made round trips
vary by half from run to run.  On one CPU the handoffs stay local.

An end-to-end run sets up ``FLEETS`` fresh fleets in turn and times a
short loop on each; a figure is the median of its per-fleet values
(``latency_tail_ms`` is taken over the pooled round trips of all the
loops).  A slow spell on a shared host then moves one loop, not the
figure, and every loop starts from the same program state.

The timings (``setup_s``, ``throughput_rps``, the latencies and
``server_cpu_ms_per_req``) are read at a reference host speed: each
fleet's are scaled by the factor ``speed.py`` measures while that fleet
runs.  The host's speed swung by half from one set of runs to the next
(see ``speed.py``); the program's share of the time does not.  The
unscaled p50 and set-up time and the median factor are printed on the
``workload:`` line.  Per-layer times are not scaled.

Only the round trips are on the clock.  The client's own work between
requests (building the next input, decoding and checking a response)
is off it, so ``throughput_rps`` is requests over the summed round-trip
time of the one connection.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload on two fleets, for half the time each: one plain, then one
with every program process started through ``bootstrap.py``, and
reports the per-layer metrics of the second (see ``layers.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed check makes the
exit code 1; a run that cannot start (no ``src/``, a program that does
not come up, a traced layer that never fired) exits 2 without a result
line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import layers
import speed
from fleet import BenchError, Client
from workloads import WORKLOADS

#: fresh fleets per end-to-end run (``--trace 0``), each set up and
#: then timed for its share of ``--seconds``
FLEETS = 5

#: the tail percentile of every workload, over the round trips pooled
#: from all the fleets of a run.  A 25 s cold-solve run has exactly ten
#: samples beyond it.  Higher ones on the faster workloads moved with
#: single-request stalls of the host, which the speed scaling cannot
#: correct: over ten seeds warm-hits p99 spread by 31% and delta-stream
#: p95 by 20%, while their p50 spread by under 9%
TAIL = 0.90

#: the end-to-end metrics and their units
END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_frac": "ratio",
    "suppressed_frac": "ratio",
    "peak_rss_mb": "MB",
    "server_cpu_ms_per_req": "ms",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in ``(0, 1]``)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class Loop:
    """The set-up and timed loop of one fleet."""

    def __init__(self) -> None:
        self.setup_seconds = 0.0
        #: probe chunk CPU times (ms) taken around this fleet's work
        self.probes: list[float] = []
        self.latencies: list[float] = []
        self.clock = 0.0
        #: load requests the fleet served while the loop ran: the timed
        #: ones plus any the client sent off the clock
        self.requests = 0
        self.cpu_seconds = 0.0
        self.peak_rss_mb = 0.0
        #: the scale that reads this fleet's timings at the reference
        #: host speed (set once the loop has run)
        self.factor = 1.0


class Pass:
    """Set-ups and timed loops on one or more fresh fleets."""

    def __init__(self) -> None:
        self.loops: list[Loop] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.stars = 0
        self.cells = 0
        self.untouched = 0
        self.groups = 0
        self.dispositions: dict[str, int] = {}
        self.inputs: list[str] = []
        self.releases: list[str] = []
        self.router = layers.Aggregate()
        self.server = layers.Aggregate()

    @property
    def latencies(self) -> list[float]:
        return [t for loop in self.loops for t in loop.latencies]

    def absorb(self, workload) -> None:
        """Add one fleet's verification tallies."""
        self.attempted += workload.attempted
        self.failed += workload.failed
        self.failures += workload.failures[:5 - len(self.failures)]
        self.stars += workload.stars
        self.cells += workload.cells
        self.untouched += workload.untouched
        self.groups += workload.groups
        for cache, count in workload.dispositions.items():
            self.dispositions[cache] = self.dispositions.get(cache, 0) + count
        if not self.inputs:
            self.inputs, self.releases = workload.inputs, workload.releases


def timed_loop(workload, client: Client, seconds: float,
               quota: int | None, loop: Loop) -> None:
    """Run for *seconds* of round trips, or *quota* requests if given."""
    gc.collect()
    gc.disable()
    try:
        while (loop.clock < seconds if quota is None
               else len(loop.latencies) < quota):
            line = workload.prepare(client)
            start = time.perf_counter()
            try:
                raw = client.exchange(line)
            except OSError as exc:
                # the one connection is gone: count it and stop the loop
                workload.attempted += 1
                workload.fail(f"transport: {exc}")
                break
            elapsed = time.perf_counter() - start
            loop.clock += elapsed
            loop.latencies.append(elapsed)
            workload.finish(raw)
            speed.after_request(loop.probes, elapsed)
    finally:
        gc.enable()
    loop.requests = len(loop.latencies) + workload.loop_extras


def measure(cls, seed: int, root: Path, workdir: Path, seconds: float,
            traced: bool, fleets: int) -> Pass:
    """Set up *fleets* fresh fleets in turn and time a loop on each."""
    run = Pass()
    share = seconds / fleets
    quota = None if cls.fixed_rate is None \
        else max(1, round(cls.fixed_rate * share))
    for number in range(fleets):
        fleet_dir = workdir / f"{'traced' if traced else 'plain'}-{number}"
        fleet_dir.mkdir(parents=True)
        workload = cls(seed, root, fleet_dir, traced, number)
        client = None
        loop = Loop()
        marks = []
        try:
            speed.probe(loop.probes, speed.BEFORE_SETUP)
            started = time.perf_counter()
            workload.start()
            client = Client(workload.entry.address)
            workload.setup(client)
            loop.setup_seconds = time.perf_counter() - started
            workload.verify_setup()
            workload.in_setup = False
            programs = workload.programs
            cpu = sum(p.cpu_seconds() for p in programs)
            marks = [p.mark() for p in programs] if traced else []
            timed_loop(workload, client, share, quota, loop)
            loop.factor = speed.factor(loop.probes)
            loop.cpu_seconds = sum(p.cpu_seconds() for p in programs) - cpu
            loop.peak_rss_mb = sum(p.peak_rss_mb() for p in programs)
        finally:
            if client is not None:
                client.close()
            workload.shutdown()
        run.loops.append(loop)
        run.absorb(workload)
        for program, mark in zip(workload.programs, marks):
            final = layers.load(program.trace_file)
            part = run.router if "router" in program.log.name else run.server
            part.add(final, layers.load(mark))
    return run


def scaled_p50_ms(loop: Loop) -> float:
    return 1000.0 * loop.factor * percentile(loop.latencies, 0.5)


def end_to_end(run: Pass) -> dict:
    """The end-to-end metrics of an untraced pass.

    ``server_cpu_ms_per_req`` is the CPU time all program processes
    used while a loop ran (background work such as the router's health
    sweeps included) over the load requests they served meanwhile: the
    timed ones plus any the client sent off the clock (delta-stream's
    chain restarts).  Timings are scaled to the reference host speed.
    """

    loops = [loop for loop in run.loops if loop.latencies]
    if not loops:
        raise BenchError("no fleet completed a timed request")

    def median(per_loop) -> float:
        return statistics.median(per_loop(loop) for loop in loops)

    values = {
        "setup_s": median(lambda loop: loop.setup_seconds * loop.factor),
        "throughput_rps": median(lambda loop: len(loop.latencies)
                                 / loop.clock / loop.factor),
        "latency_p50_ms": median(scaled_p50_ms),
        "latency_tail_ms": 1000.0 * percentile(
            [t * loop.factor for loop in loops for t in loop.latencies],
            TAIL),
        "ok_frac": 1.0 - run.failed / max(run.attempted, 1),
        "suppressed_frac": run.stars / max(run.cells, 1),
        "peak_rss_mb": median(lambda loop: loop.peak_rss_mb),
        "server_cpu_ms_per_req": median(lambda loop: 1000.0 * loop.factor
                                        * loop.cpu_seconds / loop.requests),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def unscaled(run: Pass) -> dict:
    """The timings as the clock read them, and the median speed factor."""
    loops = [loop for loop in run.loops if loop.latencies]
    return {
        "speed_factor": statistics.median(loop.factor for loop in loops),
        "setup_s": statistics.median(loop.setup_seconds for loop in loops),
        "latency_p50_ms": statistics.median(
            1000.0 * percentile(loop.latencies, 0.5) for loop in loops),
    }


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(root: Path, seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_digest": source_digest(root),
        "seed": seed,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 root: Path, workdir: Path) -> tuple[dict, Pass]:
    cls = WORKLOADS[name]
    if not trace:
        run = measure(cls, seed, root, workdir, seconds, False, FLEETS)
        metrics = end_to_end(run)
    else:
        plain = measure(cls, seed, root, workdir, seconds / 2, False, 1)
        run = measure(cls, seed, root, workdir, seconds / 2, True, 1)
        run.attempted += plain.attempted
        run.failed += plain.failed
        run.failures += plain.failures
        metrics = layers.per_layer(
            name, cls.timed_op, run.router, run.server,
            1000.0 * statistics.fmean(run.latencies), run.untouched,
            run.groups, scaled_p50_ms(run.loops[0]),
            scaled_p50_ms(plain.loops[0]))
    report = {
        "workload": name,
        "fleets": len(run.loops),
        "timed_requests": len(run.latencies),
        "attempted": run.attempted,
        "failed_frac": run.failed / max(run.attempted, 1),
        "tail_percentile": TAIL,
        "dispositions": run.dispositions,
        "input_digest": gen.digest(run.inputs),
        "release_digest": gen.digest(run.releases),
        "unscaled": unscaled(run),
    }
    print("workload: " + json.dumps(report, sort_keys=True))
    for line in layers.predictions(name, metrics) if trace else ():
        print("prediction: " + line)
    for metric, entry in metrics.items():
        samples = (f"{len(run.loops)} set-ups" if metric == "setup_s"
                   else f"{len(run.latencies)} requests on "
                   f"{len(run.loops)} fleet(s)")
        print(f"metric {name} {metric} = {entry['value']:.6g} "
              f"{entry['unit']} (n={samples})")
    for failure in run.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return metrics, run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("error: run from the repository root (no src/repro/cli.py "
              "here)", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = root / ".perfbench-work" / f"run-{os.getpid()}"
    print("provenance: " + json.dumps(provenance(root, args.seed),
                                      sort_keys=True))
    metrics: dict = {}
    attempted = failed = 0
    try:
        for name in names:
            result, run = run_workload(name, args.seed, args.seconds,
                                       bool(args.trace), root,
                                       workdir / name)
            metrics[name] = result
            attempted += run.attempted
            failed += run.failed
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it
    if len(names) == 1:
        metrics = metrics[names[0]]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
