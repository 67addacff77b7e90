"""The three workloads: how each starts its fleet, sets up, and loads it.

A workload object lives for one fleet.  ``start`` spawns the program
processes, ``setup`` sends the set-up requests, and the timed loop then
alternates ``prepare`` (off the clock: build the next request line),
one round trip, and ``finish`` (off the clock: decode and verify the
response).  Every response is verified by :mod:`check`; a failure is
counted, never raised.
"""

from __future__ import annotations

import json
from pathlib import Path

import check
import gen
from fleet import BenchError, Client, Program

K = 4
#: table indices reserved per fleet of a run
TABLES_PER_FLEET = 100_000
#: inputs fingerprinted per run: the set-up inputs plus this many of
#: the timed loop's first inputs — a fixed prefix, so two commits whose
#: runs both get that far digest the same inputs however fast they are
DIGEST_PREFIX = 16


class Workload:
    """Shared bookkeeping; subclasses define the traffic."""

    name = ""
    #: the protocol op of the timed requests
    timed_op = "anonymize"
    #: when set, a timed loop sends a fixed number of requests (this
    #: many per second of its share of ``--seconds``) instead of running
    #: for its share of the time, so the work done, and the memory it
    #: leaves behind, do not depend on how fast the program is
    fixed_rate: float | None = None

    def __init__(self, seed: int, root: Path, workdir: Path, traced: bool,
                 fleet: int):
        self.seed = seed
        #: first table index of this fleet: each fleet of a run gets
        #: its own tables, so a run averages over more inputs
        self.first_table = fleet * TABLES_PER_FLEET
        self.root = root
        self.workdir = workdir
        self.traced = traced
        self.programs: list[Program] = []
        self.entry: Program | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.stars = 0
        self.cells = 0
        self.dispositions: dict[str, int] = {}
        self.inputs: list[str] = []
        self.releases: list[str] = []
        self.untouched = 0
        self.groups = 0
        self._deferred: list = []
        #: set-up requests sent; True until the timed loop begins
        self.setup_inputs = 0
        self.in_setup = True
        #: load requests sent off the clock while the timed loop ran
        self.loop_extras = 0

    # -- fleet ---------------------------------------------------------

    def spawn(self, label: str, args: list[str]) -> Program:
        trace = self.workdir / f"{label}.trace.json" if self.traced else None
        program = Program(self.root, args, self.workdir / f"{label}.log",
                          trace_file=trace)
        self.programs.append(program)
        return program

    def spawn_serve(self, label: str) -> Program:
        return self.spawn(label, ["serve", "--port", "0", "--cache-dir",
                                  str(self.workdir / f"{label}.cache")])

    def start(self) -> None:
        raise NotImplementedError

    def shutdown(self) -> None:
        """Stop the fleet through the protocol; kill what lingers."""
        try:
            if self.entry is not None and self.entry.address is not None:
                client = Client(self.entry.address, timeout=30.0)
                try:
                    client.call({"op": "shutdown"})
                finally:
                    client.close()
        except (OSError, BenchError, ValueError):
            pass
        finally:
            for program in self.programs:
                program.stop()

    # -- traffic -------------------------------------------------------

    def setup(self, client: Client) -> None:
        raise NotImplementedError

    def setup_call(self, client: Client, request: dict, sent: str,
                   op: str) -> dict:
        """One set-up request; it is verified later, off the set-up clock."""
        if self.in_setup:
            self.setup_inputs += 1
        else:
            self.loop_extras += 1
        self.note_input(sent)
        ident, line = client.encode(request)
        response = json.loads(client.exchange(line))
        self._deferred.append((ident, response, sent, op))
        return response

    def verify_setup(self) -> list:
        """Verify the set-up responses; see :meth:`verified`."""
        results = [self.verified(*entry) for entry in self._deferred]
        self._deferred = []
        return results

    def prepare(self, client: Client) -> bytes:
        raise NotImplementedError

    def finish(self, raw: bytes) -> None:
        raise NotImplementedError

    # -- verification --------------------------------------------------

    def verified(self, ident: int, raw: bytes | dict, sent, op: str,
                 extra_check=None) -> tuple[dict, int, int] | None:
        """Decode and check one response; ``None`` if it failed.

        *sent* is the input as CSV text or as ``(header, rows)`` lists.
        A passing response comes back as ``(response, starred cells,
        released cells)``.
        """
        self.attempted += 1
        try:
            response = raw if isinstance(raw, dict) else json.loads(raw)
        except ValueError as exc:
            return self.fail(f"{op}: undecodable response ({exc})")
        if response.get("id") != ident:
            return self.fail(f"{op}: response id {response.get('id')!r} "
                             f"for request {ident}")
        if not response.get("ok"):
            return self.fail(f"{op}: error {response.get('code')}: "
                             f"{response.get('error')}")
        released = response.get("csv")
        if not isinstance(released, str):
            return self.fail(f"{op}: response without a csv release")
        found, starred, cells = check.audit(sent, released, K,
                                            response.get("stars"))
        if extra_check is not None:
            found += extra_check(response)
        if found:
            return self.fail(f"{op}: " + "; ".join(found[:3]))
        cache = str(response.get("cache"))
        self.dispositions[cache] = self.dispositions.get(cache, 0) + 1
        self.stars += starred
        self.cells += cells
        if len(self.releases) < self.setup_inputs + DIGEST_PREFIX:
            self.releases.append(released)
        return response, starred, cells

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(reason)
        return None

    def note_input(self, text: str) -> None:
        if self.in_setup or \
                len(self.inputs) < self.setup_inputs + DIGEST_PREFIX:
            self.inputs.append(text)


class ColdSolve(Workload):
    """Every request a distinct n=400 table: the solver does the work."""

    name = "cold-solve"
    fixed_rate = 4.0
    rows = 400

    def start(self) -> None:
        self.entry = self.spawn_serve("serve")
        self.entry.wait_listening()

    def setup(self, client: Client) -> None:
        # one warm-up solve, so lazy imports and first-call costs are
        # paid before the clock starts
        csv = gen.table_csv(self.seed, "warm-up", 0, self.rows)
        self.setup_call(client, self._request(csv), csv, "warm-up")
        self.index = 0

    def _request(self, csv: str) -> dict:
        return {"op": "anonymize", "csv": csv, "k": K,
                "algorithm": "center_cover"}

    def prepare(self, client: Client) -> bytes:
        csv = gen.table_csv(self.seed, self.name,
                            self.first_table + self.index, self.rows)
        self.index += 1
        self.note_input(csv)
        ident, line = client.encode(self._request(csv))
        self._pending = (ident, csv)
        return line

    def finish(self, raw: bytes) -> None:
        ident, csv = self._pending
        self.verified(ident, raw, csv, "anonymize")


class WarmHits(Workload):
    """A 16-table working set repeated through a router: memory hits."""

    name = "warm-hits"
    rows = 1000
    tables = 16

    def start(self) -> None:
        shards = [self.spawn_serve(f"shard{i}") for i in range(2)]
        addresses = [shard.wait_listening() for shard in shards]
        args = ["route", "--port", "0"]
        for host, port in addresses:
            args += ["--shard", f"{host}:{port}"]
        self.entry = self.spawn("router", args)
        self.entry.wait_listening()

    def setup(self, client: Client) -> None:
        self.requests = []
        for i in range(self.tables):
            csv = gen.table_csv(self.seed, self.name,
                                self.first_table + i, self.rows)
            request = {"op": "anonymize", "csv": csv, "k": K,
                       "algorithm": "mondrian"}
            self.requests.append(request)
            self.setup_call(client, request, csv, "set-up")
        self.index = 0

    def verify_setup(self) -> list:
        results = super().verify_setup()
        #: per table: (verified release, stars, cells), or None
        self.expected = [
            (passed[0]["csv"], *passed[1:]) if passed else None
            for passed in results
        ]
        return results

    def prepare(self, client: Client) -> bytes:
        slot = self.index % self.tables
        self.index += 1
        ident, line = client.encode(self.requests[slot])
        self._pending = (ident, slot)
        return line

    def finish(self, raw: bytes) -> None:
        """Byte-compare with the verified set-up release of the table."""
        ident, slot = self._pending
        self.attempted += 1
        try:
            response = json.loads(raw)
        except ValueError as exc:
            self.fail(f"hit: undecodable response ({exc})")
            return
        if response.get("id") != ident or not response.get("ok"):
            self.fail(f"hit: bad response {str(response)[:200]}")
            return
        expected = self.expected[slot]
        if expected is None or response.get("csv") != expected[0]:
            self.fail(f"hit: release of table {slot} differs from its "
                      "verified set-up release")
            return
        _, starred, cells = expected
        if response.get("stars") != starred:
            self.fail(f"hit: stars {response.get('stars')} != {starred}")
            return
        cache = str(response.get("cache"))
        self.dispositions[cache] = self.dispositions.get(cache, 0) + 1
        self.stars += starred
        self.cells += cells


class DeltaStream(Workload):
    """Eight incremental chains grown by 10-row deltas: the write path."""

    name = "delta-stream"
    timed_op = "delta"
    chains = 8
    step = 10
    first = 200
    last = 600

    def start(self) -> None:
        self.entry = self.spawn_serve("serve")
        self.entry.wait_listening()

    def _new_chain(self, client: Client, number: int, length: int) -> dict:
        """Start chain *number* from its first *length* rows.

        Set-up starts are verified after the set-up clock stops;
        restarts inside the loop are verified at once (off the clock).
        """
        rows = gen.census_rows(
            gen.rng_for(self.seed, self.name, self.first_table + number),
            self.last)
        csv = gen.to_csv(rows[:length])
        request = {"op": "anonymize", "csv": csv, "k": K,
                   "algorithm": "incremental"}
        response = self.setup_call(client, request, csv, "chain start")
        if number >= self.chains:
            self.verify_setup()
        return {"rows": rows, "length": length,
                "key": response.get("state_key")}

    def setup(self, client: Client) -> None:
        # prefixes staggered over 200..550 rows, so chain lengths stay
        # spread evenly over 200..600 whenever the clock stops
        spacing = (self.last - self.first) // self.chains
        self.active = [
            self._new_chain(client, c, self.first + c * spacing)
            for c in range(self.chains)
        ]
        self.started = self.chains
        self.index = 0

    def prepare(self, client: Client) -> bytes:
        slot = self.index % self.chains
        self.index += 1
        chain = self.active[slot]
        if chain["length"] + self.step > self.last or chain["key"] is None:
            chain = self._new_chain(client, self.started, self.first)
            self.started += 1
            self.active[slot] = chain
        start = chain["length"]
        delta = gen.to_csv(chain["rows"][start:start + self.step])
        self.note_input(delta)
        ident, line = client.encode({"op": "delta", "state_key": chain["key"],
                                     "csv": delta})
        self._pending = (ident, chain)
        return line

    def finish(self, raw: bytes) -> None:
        ident, chain = self._pending
        grown = chain["length"] + self.step
        sent = (list(gen.HEADER), [list(row) for row in chain["rows"][:grown]])

        def delta_fields(response: dict) -> list[str]:
            info = response.get("delta") or {}
            if info.get("rows_total") != grown:
                return [f"delta rows_total {info.get('rows_total')} != "
                        f"{grown}"]
            if not response.get("state_key"):
                return ["delta response without a state_key"]
            return []

        passed = self.verified(ident, raw, sent, "delta", delta_fields)
        if passed is None:
            chain["key"] = None
            return
        response = passed[0]
        chain["length"] = grown
        chain["key"] = response["state_key"]
        self.untouched += response["delta"].get("untouched_groups", 0)
        self.groups += response["delta"].get("groups", 0)


WORKLOADS = {cls.name: cls for cls in (ColdSolve, WarmHits, DeltaStream)}
