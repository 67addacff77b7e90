"""Per-layer metrics from the traced processes' aggregates.

Each traced process writes ``{name: [count, seconds]}`` twice: at the
start of the timed loop (the mark) and at exit.  The loop's share is
the difference.  Router and shard processes are summed separately,
because some metrics subtract one from the other.

Self times are differences of inclusive times.  ``dispatch.wait`` is
measured from the last cache miss to the next ``run_tasks`` entry,
which is exact with one request in flight, as the closed loop ensures.
"""

from __future__ import annotations

import json
from pathlib import Path

from fleet import BenchError

#: wrappers that must fire during the timed loop of each workload; a
#: rename in the program then fails the traced run instead of silently
#: reporting the layer as zero
EXPECTED = {
    "cold-solve": (
        "server.handle[anonymize]", "table.from_csv", "table.to_csv",
        "artifacts.instance_key", "cache.get", "cache.put",
        "dispatch.run_tasks", "solve.anonymize", "cover.build_ball_cover",
        "reduce.reduce_and_shrink", "suppress.anonymize_partition",
        "backend.distance_row", "backend.neighbor_order", "backend.diameter",
    ),
    "warm-hits": (
        "router.handle[anonymize]", "router.routing_key",
        "connections[anonymize]", "server.handle[anonymize]",
        "table.from_csv", "artifacts.instance_key", "cache.get",
    ),
    "delta-stream": (
        "server.handle[delta]", "table.from_csv", "table.to_csv",
        "artifacts.instance_key", "artifacts.state_key", "cache.get",
        "cache.put", "dispatch.run_tasks", "incremental.from_dict",
        "incremental.from_state", "incremental.insert",
        "incremental.finalize", "incremental.export_state",
        "incremental.as_dict",
    ),
}

#: per-layer metric units (the order BENCHMARK.json lists them in)
UNITS = {
    "backend.distance_row_ms": "ms",
    "backend.neighbor_order_ms": "ms",
    "backend.diameter_ms": "ms",
    "backend.matrix_rows": "count/req",
    "backend.neighbor_orders": "count/req",
    "backend.distance_calls": "count/req",
    "backend.full_group_scans": "count/req",
    "backend.memo_hit_ratio": "ratio",
    "cover.build_ball_cover_ms": "ms",
    "reduce.reduce_and_shrink_ms": "ms",
    "suppress.anonymize_partition_ms": "ms",
    "solve.anonymize_ms": "ms",
    "solve.self_ms": "ms",
    "table.from_csv_ms": "ms",
    "table.to_csv_ms": "ms",
    "table.from_csv_calls": "count/req",
    "artifacts.instance_key_ms": "ms",
    "artifacts.state_key_ms": "ms",
    "artifacts.instance_key_calls": "count/req",
    "router.handle_ms": "ms",
    "router.routing_key_ms": "ms",
    "router.self_ms": "ms",
    "router.connections_per_request": "ratio",
    "server.handle_ms": "ms",
    "server.handle_self_ms": "ms",
    "wire.overhead_ms": "ms",
    "dispatch.wait_ms": "ms",
    "dispatch.run_tasks_ms": "ms",
    "dispatch.batch_size_mean": "count",
    "cache.get_ms": "ms",
    "cache.put_ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.puts_per_request": "count/req",
    "cache.evictions": "count/req",
    "incremental.restore_ms": "ms",
    "incremental.insert_ms": "ms",
    "incremental.finalize_ms": "ms",
    "incremental.export_state_ms": "ms",
    "incremental.state_bytes": "B",
    "incremental.untouched_group_ratio": "ratio",
    "gc.pause_ms": "ms",
    "gc.gen2_collections": "count/req",
    "trace.overhead_frac": "ratio",
}

#: the solve-facing ops of the protocol (pings and stats are not load)
LOAD_OPS = ("anonymize", "delta")


class Aggregate:
    """``{name: [count, seconds]}`` summed over processes."""

    def __init__(self) -> None:
        self.data: dict[str, list] = {}

    def add(self, final: dict, mark: dict) -> None:
        for name, (count, seconds) in final.items():
            before = mark.get(name, (0, 0.0))
            entry = self.data.setdefault(name, [0, 0.0])
            entry[0] += count - before[0]
            entry[1] += seconds - before[1]

    def count(self, *names: str) -> float:
        return sum(self.data.get(name, (0, 0.0))[0] for name in names)

    def ms(self, *names: str) -> float:
        return 1000.0 * sum(self.data.get(name, (0, 0.0))[1]
                            for name in names)

    def fired(self, name: str) -> bool:
        return self.data.get(name, (0, 0.0))[0] > 0


def load(path: Path) -> dict:
    return json.loads(path.read_text())


def per_layer(workload: str, timed_op: str, router: Aggregate,
              server: Aggregate, mean_latency_ms: float, untouched: int,
              groups: int, traced_p50: float, plain_p50: float) -> dict:
    """The per-layer metrics of one traced timed loop.

    Means are per load request the shards served while the clock ran
    (on ``delta-stream`` that includes the chain restarts the client
    sends off its clock, one in about forty requests).
    ``wire.overhead_ms`` compares the client's mean round trip with the
    mean outermost ``handle`` of the timed op alone.
    ``trace.overhead_frac`` compares the traced and plain passes' p50s,
    each read at the reference host speed (see ``speed.py``).
    """
    fleet = Aggregate()
    for part in (router, server):
        for name, (count, seconds) in part.data.items():
            entry = fleet.data.setdefault(name, [0, 0.0])
            entry[0] += count
            entry[1] += seconds
    missing = [name for name in EXPECTED[workload] if not fleet.fired(name)]
    if missing:
        raise BenchError(
            f"traced run: wrapper(s) never fired on {workload}: "
            f"{', '.join(missing)} (renamed or bypassed in the program?)")

    handle = [f"server.handle[{op}]" for op in LOAD_OPS]
    routed = [f"router.handle[{op}]" for op in LOAD_OPS]
    n = max(server.count(*handle), 1)

    def per_req_ms(part: Aggregate, *names: str) -> float:
        return part.ms(*names) / n

    def per_req(part: Aggregate, *names: str) -> float:
        return part.count(*names) / n

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    server_handle = per_req_ms(server, *handle)
    router_handle = per_req_ms(router, *routed)
    memo = server.count("backend.memo_hits")
    cover = per_req_ms(server, "cover.build_ball_cover")
    reduce_ = per_req_ms(server, "reduce.reduce_and_shrink")
    suppress = per_req_ms(server, "suppress.anonymize_partition")
    anonymize = per_req_ms(server, "solve.anonymize")
    outer, outer_name = router, f"router.handle[{timed_op}]"
    if not router.fired(outer_name):
        outer, outer_name = server, f"server.handle[{timed_op}]"
    outermost = ratio(outer.ms(outer_name), outer.count(outer_name))
    values = {
        "backend.distance_row_ms": per_req_ms(server, "backend.distance_row"),
        "backend.neighbor_order_ms":
            per_req_ms(server, "backend.neighbor_order"),
        "backend.diameter_ms": per_req_ms(server, "backend.diameter"),
        "backend.matrix_rows": per_req(server, "backend.matrix_rows"),
        "backend.neighbor_orders": per_req(server, "backend.neighbor_orders"),
        "backend.distance_calls": per_req(server, "backend.distance_calls"),
        "backend.full_group_scans":
            per_req(server, "backend.full_group_scans"),
        "backend.memo_hit_ratio": ratio(memo, memo + server.count(
            "backend.neighbor_orders", "backend.full_group_scans")),
        "cover.build_ball_cover_ms": cover,
        "reduce.reduce_and_shrink_ms": reduce_,
        "suppress.anonymize_partition_ms": suppress,
        "solve.anonymize_ms": anonymize,
        "solve.self_ms": anonymize - cover - reduce_ - suppress,
        "table.from_csv_ms": per_req_ms(fleet, "table.from_csv"),
        "table.to_csv_ms": per_req_ms(fleet, "table.to_csv"),
        "table.from_csv_calls": per_req(fleet, "table.from_csv"),
        "artifacts.instance_key_ms":
            per_req_ms(fleet, "artifacts.instance_key"),
        "artifacts.state_key_ms": per_req_ms(fleet, "artifacts.state_key"),
        "artifacts.instance_key_calls":
            per_req(fleet, "artifacts.instance_key"),
        "router.handle_ms": router_handle,
        "router.routing_key_ms": per_req_ms(router, "router.routing_key"),
        "router.self_ms":
            router_handle - server_handle if router_handle else 0.0,
        "router.connections_per_request": per_req(
            router, *(f"connections[{op}]" for op in LOAD_OPS)),
        "server.handle_ms": server_handle,
        "server.handle_self_ms": server_handle - per_req_ms(
            server, "table.from_csv@loop", "artifacts.instance_key@loop",
            "artifacts.state_key@loop", "incremental.from_dict@loop",
            "cache.get", "cache.put", "dispatch.wait", "dispatch.run_tasks"),
        "wire.overhead_ms": mean_latency_ms - outermost,
        "dispatch.wait_ms": per_req_ms(server, "dispatch.wait"),
        "dispatch.run_tasks_ms": per_req_ms(server, "dispatch.run_tasks"),
        "dispatch.batch_size_mean": ratio(
            server.count("dispatch.tasks"),
            server.count("dispatch.run_tasks")),
        "cache.get_ms": per_req_ms(server, "cache.get"),
        "cache.put_ms": per_req_ms(server, "cache.put"),
        "cache.hit_ratio": ratio(
            server.count("cache.get_hits"), server.count("cache.get")),
        "cache.puts_per_request": per_req(server, "cache.put"),
        "cache.evictions": per_req(server, "cache.evictions"),
        "incremental.restore_ms": per_req_ms(
            server, "incremental.from_dict", "incremental.from_state"),
        "incremental.insert_ms": per_req_ms(server, "incremental.insert"),
        "incremental.finalize_ms": per_req_ms(server, "incremental.finalize"),
        "incremental.export_state_ms": per_req_ms(
            server, "incremental.export_state", "incremental.as_dict"),
        "incremental.state_bytes": ratio(
            server.count("incremental.state_bytes"),
            server.count("incremental.as_dict")),
        "incremental.untouched_group_ratio": ratio(untouched, groups),
        "gc.pause_ms": per_req_ms(fleet, "gc.pause"),
        "gc.gen2_collections": per_req(fleet, "gc.gen2_collections"),
        "trace.overhead_frac": traced_p50 / plain_p50 - 1.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in UNITS.items()}


def predictions(workload: str, metrics: dict) -> list[str]:
    """Check the design predictions this benchmark's workloads rest on."""
    value = {name: entry["value"] for name, entry in metrics.items()}
    lines = []
    if workload == "cold-solve":
        share = (value["cover.build_ball_cover_ms"]
                 + value["reduce.reduce_and_shrink_ms"]) \
            / max(value["server.handle_ms"], 1e-9)
        lines.append(f"cover + Reduce take {share:.1%} of server.handle_ms "
                     f"(predicted >= 90%): "
                     f"{'holds' if share >= 0.9 else 'does not hold'}")
    elif workload == "warm-hits":
        calls = value["table.from_csv_calls"]
        lines.append(f"table.from_csv_calls is {calls:.3f} per routed hit "
                     f"(predicted 2): "
                     f"{'holds' if abs(calls - 2) < 0.01 else 'does not hold'}")
    elif workload == "delta-stream":
        wait = value["dispatch.wait_ms"]
        lines.append(f"dispatch.wait_ms is {wait:.2f} ms (predicted about "
                     f"the 5 ms batch window): "
                     f"{'holds' if 4.0 <= wait <= 7.5 else 'does not hold'}")
    return lines
