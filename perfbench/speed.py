"""A probe of how fast the host runs the benchmark's CPU right now.

On a shared virtual machine the CPU's speed changes under the program:
a fixed pure-Python loop pinned to one CPU took 15 ms in some seconds
and 21-25 ms in others, and whole sets of runs ten minutes apart
differed by half.  The program's own CPU time per request followed the
same swings, so they are the host's, not the program's.

The probe is a fixed chunk of the benchmark's own work, of the kind a
request costs the serving stack (decode a request line, parse its CSV,
hash it, encode rows), timed in CPU time of the calling thread so that
another process sharing the CPU does not lengthen it.  The client runs
chunks between its requests, off the clock, on the CPU the program runs
on.  A fleet's timings are then scaled by

    factor = REFERENCE_MS / (median probe CPU time during that fleet)

which reads them as if the host ran at the reference speed.  The probe
never imports the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import statistics
import time

import gen

#: a probe chunk's CPU time at the reference speed, in ms (about its
#: median on the 2-vCPU Xeon VM the bounds were measured on)
REFERENCE_MS = 0.6

#: probe CPU time to spend after each timed request, as a share of its
#: round trip (at least one chunk)
SHARE = 0.02

#: chunks run just before a fleet is set up
BEFORE_SETUP = 20

_LINE = json.dumps({"op": "anonymize", "k": 4,
                    "csv": gen.table_csv(0, "probe", 0, 300)})


def chunk_ms() -> float:
    """CPU time of one probe chunk, in ms."""
    start = time.thread_time()
    request = json.loads(_LINE)
    rows = list(csv.reader(io.StringIO(request["csv"])))
    hashlib.sha256(request["csv"].encode("utf-8")).hexdigest()
    json.dumps(rows)
    return 1000.0 * (time.thread_time() - start)


def probe(samples: list[float], count: int = 1) -> None:
    samples.extend(chunk_ms() for _ in range(count))


def after_request(samples: list[float], round_trip: float) -> None:
    """Probe for about ``SHARE`` of a *round_trip* (in seconds)."""
    probe(samples, max(1, round(SHARE * 1000.0 * round_trip / REFERENCE_MS)))


def factor(samples: list[float]) -> float:
    """The scale that reads timings taken with *samples* at the
    reference speed."""
    return REFERENCE_MS / statistics.median(samples)
