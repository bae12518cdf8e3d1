"""Per-layer metrics from the spans of one traced pass.

A layer is one of partpat's modules; a span's self time is its duration
minus the durations of its direct children, so the self times of all spans
inside the pass add up to the top-level spans' durations. A metric of a
layer the workload does not call reads 0 (its ``calls`` is 0 too).
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import reference

MODULES = ("core", "containment", "enumeration", "formulas", "dacp", "cli")


def percentile(values: list[float], q: int) -> float:
    """The q-th of statistics.quantiles(values, n=100); 0 without samples."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


class Spans:
    def __init__(self, spans: list[list], end_ns: int) -> None:
        self.spans = spans
        self.dur = [s[2] - s[1] for s in spans]
        child = [0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += self.dur[i]
        self.self_ns = [d - c for d, c in zip(self.dur, child)]
        # spans of the timed pass; the cache re-open runs after it
        self.timed = [i for i, s in enumerate(spans) if s[2] <= end_ns]
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s[0]].append(i)

    def calls(self, name: str, where=lambda i: True) -> list[int]:
        return [i for i in self.by_name.get(name, ()) if where(i)]

    def total_s(self, idx: list[int]) -> float:
        return sum(self.dur[i] for i in idx) / 1e9

    def mean_us(self, idx: list[int]) -> float:
        return self.total_s(idx) * 1e6 / len(idx) if idx else 0.0


def layer_values(traced: dict, untraced_wall_s: float, ref: reference.Reference, pool: dict) -> dict[str, float]:
    """Every per-layer value of one traced pass.

    ``traced`` is tracer.run_job's output; ``pool`` holds the deep cell's
    one- and two-worker times, empty for the other workloads.
    """
    sp = Spans(traced["spans"], traced["t0_ns"] + traced["wall_ns"])
    v: dict[str, float] = {}

    counts = sp.calls("enumeration.count_avoiders")
    cells = [tuple(sp.spans[i][4]) for i in counts]
    nodes = sum(ref.nodes(tau, n) for tau, n in cells)
    deepest: dict[str, int] = {}
    for tau, n in cells:
        deepest[tau] = max(n, deepest.get(tau, 0))
    single_walk = sum(ref.nodes(tau, n) for tau, n in deepest.items())
    v["enumeration.count_avoiders.calls"] = len(counts)
    v["enumeration.count_avoiders.s"] = sp.total_s(counts)
    v["enumeration.count_avoiders.nodes"] = nodes
    v["enumeration.count_avoiders.ns_per_node"] = sp.total_s(counts) * 1e9 / nodes if nodes else 0.0
    v["enumeration.count_avoiders.recount_ratio"] = nodes / single_walk if single_walk else 0.0
    v["enumeration.pool.speedup"] = pool["wall1"] / pool["wall2"] if pool else 0.0
    v["enumeration.pool.cpu_overhead"] = pool["cpu2"] / pool["cpu1"] if pool else 0.0

    oracle = sp.calls("enumeration.count_avoiders_oracle")
    partitions = sum(reference.bell(sp.spans[i][4]) for i in oracle)
    v["enumeration.count_avoiders_oracle.s"] = sp.total_s(oracle)
    v["enumeration.count_avoiders_oracle.us_per_partition"] = sp.total_s(oracle) * 1e6 / partitions if partitions else 0.0
    items = sp.calls("enumeration.all_partitions")
    n_items = sum(1 for i in items if sp.spans[i][4])
    v["enumeration.all_partitions.us_per_item"] = sp.total_s(items) * 1e6 / n_items if n_items else 0.0

    reopen = set(sp.calls("bench.cache_reopen"))
    in_reopen = lambda i: sp.spans[i][3] in reopen  # noqa: E731
    loads = sp.calls("enumeration.CountCache.load", in_reopen)
    v["enumeration.CountCache.load_s"] = sp.total_s(loads)
    v["enumeration.CountCache.get_us"] = sp.mean_us(sp.calls("enumeration.CountCache.get", in_reopen))
    v["enumeration.CountCache.add_us"] = sp.mean_us(sp.calls("enumeration.CountCache.add"))
    v["enumeration.CountCache.entries"] = traced.get("cache_entries", 0)

    # queries made directly, not the ones contains() makes on the oracle's behalf
    contains = set(sp.calls("containment.contains"))
    queries = sp.calls("containment.find_occurrence", lambda i: sp.spans[i][3] not in contains)
    query_us = [sp.dur[i] / 1e3 for i in queries]
    v["containment.find_occurrence.calls"] = len(queries)
    v["containment.find_occurrence.us.p50"] = percentile(query_us, 50)
    v["containment.find_occurrence.us.p99"] = percentile(query_us, 99)
    v["containment.find_occurrence.hit_ratio"] = sum(1 for i in queries if sp.spans[i][4]) / len(queries) if queries else 0.0
    v["containment.contains.us"] = sp.mean_us(list(contains))

    for name in ("core.SetPartition", "core.parse", "core.permeability", "dacp.to_dacp",
                 "dacp.from_dacp", "dacp.dacp_contains", "formulas.block_recursion"):
        v[f"{name}.us"] = sp.mean_us(sp.calls(name))
    for name in ("core.permeability", "formulas.block_recursion"):
        v[f"{name}.calls"] = len(sp.calls(name))

    v["cli.main.self_s"] = sum(sp.self_ns[i] for i in sp.calls("cli.main")) / 1e9
    v["cli.import_s"] = sp.total_s(sp.calls("import.cli"))
    module_self: dict[str, int] = defaultdict(int)
    for i in sp.timed:
        module_self[sp.spans[i][0].split(".")[0]] += sp.self_ns[i]
    for module in MODULES + ("bench",):
        v[f"{module}.self_s"] = module_self[module] / 1e9

    wall_s = traced["wall_ns"] / 1e9
    top = [i for i in sp.timed if sp.spans[i][3] < 0]
    v["trace.wall_s"] = wall_s
    v["trace.overhead_s"] = wall_s - untraced_wall_s
    v["trace.unaccounted_s"] = wall_s - sp.total_s(top)
    v["trace.spans"] = len(sp.spans)
    return v
