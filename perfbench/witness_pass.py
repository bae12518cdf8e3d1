"""One pass of seeded library calls, as a partpat user would make them.

    PYTHONPATH=src python3 perfbench/witness_pass.py INPUTS.json RESULTS.json

The inputs come from workloads.py. Each find_occurrence call is timed
alone, and so is each stage; between queries it times hostspeed.task,
to measure how fast this process ran. Checking the answers is left to
the caller, outside the pass.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager, nullcontext

import hostspeed


def run(inputs: dict, phase=lambda name: nullcontext(), host_every: int = 0) -> dict:
    """Run every call the inputs ask for. ``phase(name)`` brackets each
    stage; the tracer passes one that records a span. With ``host_every``,
    hostspeed.task is timed before every host_every-th query."""
    import partpat as pp  # looked up per call, so the tracer's wrappers apply

    clock = time.perf_counter_ns
    stage_ns: dict[str, int] = {}

    @contextmanager
    def stage(name: str):
        t0 = clock()
        with phase(f"bench.{name}"):
            yield
        stage_ns[name] = clock() - t0

    with stage("parse"):
        patterns = [pp.parse(t) for t in inputs["patterns"]]
        hosts = [pp.parse(t) for t in inputs["hosts"]]
    answers: list[list[int] | None] = []
    latency: list[int] = []
    host_ns: list[int] = []
    with stage("query_loop"):
        for q, (h, j) in enumerate(inputs["queries"]):
            if host_every and q % host_every == 0:
                host_ns.append(hostspeed.timed_task())
            host, pattern = hosts[h], patterns[j]
            start = clock()
            occ = pp.find_occurrence(host, pattern)
            latency.append(clock() - start)
            answers.append(list(occ.map) if occ is not None else None)
    graph_answers: list[bool] = []
    with stage("dacp"):
        roundtrip = [pp.format_partition(pp.from_dacp(pp.to_dacp(h))) for h in hosts[: inputs["roundtrip"]]]
        small_patterns = [pp.to_dacp(pp.parse(t)) for t in inputs["small_patterns"]]
        for text in inputs["small_hosts"]:
            graph = pp.to_dacp(pp.parse(text))
            graph_answers.extend(pp.dacp_contains(graph, p) for p in small_patterns)
    with stage("recount"):
        recounts = [str(pp.count_avoiders_oracle(pp.parse(t), n).count) for t, n in inputs["recount"]]
    return {
        "answers": answers,
        "latency_ns": latency,
        "roundtrip": roundtrip,
        "graph_answers": graph_answers,
        "recounts": recounts,
        "stage_ns": stage_ns,
        "host_ns": host_ns,
    }


def main(argv: list[str]) -> int:
    inputs_path, results_path = argv
    with open(inputs_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    results = run(inputs, host_every=hostspeed.EVERY)
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
