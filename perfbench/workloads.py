"""The three workloads: what each runs, the inputs made from the seed, and
the checks that decide which operations failed.

Why each workload exists (README.md has the layer-to-metric map):

- ``sweep-k4`` is the desk-scale conjecture scan, ``partpat conjectures
  --all-k 4`` over n = 1..9 with one worker and a fresh cache file. 14 of
  the 15 patterns walk the pruned tree and ``1234`` takes the block
  recursion. Every n is recounted from scratch, so it shows the per-node
  checker, single-walk sequences, dispatch, cache appends and reports.
- ``deep-k5`` is one deep cell, ``partpat count --pattern 123/45`` at
  n = 11 with two workers and no cache. It has no sequence reuse and
  almost no report, so only per-node and process-pool changes move it.
- ``witness`` is seeded library calls with no enumeration: containment
  queries of the patterns of [3..5] on many hosts, graph round trips,
  graph containment on small hosts and an oracle recount of three [4]
  patterns at n = 7. It shows the matcher, ``SetPartition`` construction and
  ``dacp`` and must not move when the pruned counter changes.

The CLI workloads' only seeded input is a containment probe of their own
patterns (``query_*`` metrics), so every workload reports every metric.
The sizes keep a pass to about a second, so that a run holds many passes.
"""

from __future__ import annotations

import csv
import io
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent


def partitions_of(k: int) -> list[str]:
    """Every partition of [k] in canonical notation, by restricted growth strings."""
    out: list[str] = []

    def rec(blocks: list[list[int]], e: int) -> None:
        if e > k:
            out.append(reference.canonical(blocks))
            return
        for b in blocks:
            b.append(e)
            rec(blocks, e + 1)
            b.pop()
        blocks.append([e])
        rec(blocks, e + 1)
        blocks.pop()

    rec([], 1)
    return out


def random_partition(rng: random.Random, n: int, b: int) -> str:
    """Elements of [n] dropped into b labelled bins; empty bins vanish."""
    bins: dict[int, list[int]] = {}
    for e in range(1, n + 1):
        bins.setdefault(rng.randrange(b), []).append(e)
    return reference.canonical(bins.values())


def stratified_hosts(rng: random.Random, n_lo: int, n_hi: int, levels: int, repeat: int = 1) -> list[str]:
    """``repeat`` hosts for every size n_lo..n_hi and every block-count level.

    Sizes and block counts are fixed by the grid and only the element
    placement is random, so the cost of a query set barely depends on the
    seed while its answers do.
    """
    return [
        random_partition(rng, n, max(1, round(n * (i + 0.5) / levels)))
        for _ in range(repeat)
        for n in range(n_lo, n_hi + 1)
        for i in range(levels)
    ]


@dataclass(frozen=True)
class Size:
    sweep_n_to: int = 9
    deep_pattern: str = "123/45"
    deep_n: int = 11
    host_n: tuple[int, int] = (12, 40)
    host_levels: int = 2
    per_host: int = 4
    witness_queries: int = 18000
    sweep_probe_queries: int = 16000
    deep_probe_queries: int = 4000
    small_n: tuple[int, int] = (5, 8)
    small_levels: int = 5
    small_repeat: int = 1
    recount: tuple[tuple[str, int], ...] = (("12/34", 7), ("13/24", 7), ("14/23", 7))


FULL = Size()
# A few seconds per workload: used by selftest.py only.
TINY = Size(
    sweep_n_to=6, deep_n=8, host_n=(12, 14), witness_queries=200, sweep_probe_queries=100, deep_probe_queries=100,
    small_n=(5, 6), small_levels=2, small_repeat=1,
    recount=(("12/34", 5), ("13/24", 5)),
)


@dataclass
class Pass:
    """One timed run of the program: a CLI command or a witness pass."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PARTPAT_CACHE")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(root: Path, work: Path, args: list[str]) -> Pass:
    """Run ``python3 args`` and time it from outside; CPU time and peak RSS
    come from wait4, so they include every process the child waited for."""
    out, err = work / "child.out", work / "child.err"
    with out.open("wb") as so, err.open("wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=so, stderr=se, env=child_env(root), cwd=root)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Pass(
        wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode,
        out.read_text(encoding="utf-8"), err.read_text(encoding="utf-8"),
    )


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failures spelled out."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)


@dataclass
class Workload:
    name: str
    seed: int
    size: Size
    root: Path
    work: Path
    ref: reference.Reference
    workers: int = 1
    argv: list[str] = field(default_factory=list)
    cells: list[tuple[str, int]] = field(default_factory=list)
    inputs: dict = field(default_factory=dict)
    cache: Path | None = None

    @property
    def is_cli(self) -> bool:
        return bool(self.argv)

    def params(self) -> dict:
        """Workload parameters for the provenance record."""
        return {
            "argv": self.argv,
            "cells": len(self.cells),
            "queries": len(self.inputs["queries"]),
            "graph_checks": len(self.inputs["small_hosts"]) * len(self.inputs["small_patterns"]),
            "recount": self.inputs["recount"],
            "host_n": list(self.size.host_n),
        }

    def operations(self) -> int:
        """Checked operations in one witness pass or probe."""
        i = self.inputs
        return (
            len(i["queries"]) + i["roundtrip"]
            + len(i["small_hosts"]) * len(i["small_patterns"]) + len(i["recount"])
        )

    def expected_total(self) -> int:
        """Sum of the exact counts one pass produces."""
        cells = self.cells or [tuple(r) for r in self.inputs["recount"]]
        return sum(self.ref.count(tau, n) for tau, n in cells)

    # ------------------------------------------------------------ passes

    def run_pass(self) -> Pass:
        """One untraced run of the CLI command, with a fresh cache file."""
        if self.cache is not None:
            self.cache.unlink(missing_ok=True)
        return run_child(self.root, self.work, ["-m", "partpat.cli", *self.argv])

    def run_queries(self) -> Pass:
        """witness_pass.py on the seeded inputs: the whole witness pass, or a
        CLI workload's containment probe."""
        return run_child(self.root, self.work, [str(HERE / "witness_pass.py"), str(self.inputs_file), str(self.results_file)])

    @property
    def inputs_file(self) -> Path:
        return self.work / f"{self.name}.inputs.json"

    @property
    def results_file(self) -> Path:
        return self.work / f"{self.name}.results.json"

    # ------------------------------------------------------------ checks

    def check_cells(self, returncode: int, stdout: str, tally: Tally) -> None:
        """One operation per (tau, n) cell; a non-zero exit fails them all."""
        got: dict[tuple[str, int], int] = {}
        try:
            for row in csv.DictReader(io.StringIO(stdout)):
                got[(row["tau"], int(row["n"]))] = int(row["count"])
        except (KeyError, TypeError, ValueError):
            pass  # every cell missing from ``got`` fails below
        for tau, n in self.cells:
            value = got.get((tau, n))
            closed = reference.closed_form(tau, n)
            mirror = got.get((reference.reverse(tau), n), value)
            ok = (
                returncode == 0
                and value is not None
                and value == self.ref.count(tau, n)
                and (closed is None or value == closed)
                and mirror == value
            )
            tally.check(ok, f"{tau} n={n}: got {value}, exit {returncode}")

    def check_queries(self, results: dict, tally: Tally, seen: dict) -> None:
        """Check a witness pass's answers.

        A witness must standardize to its pattern; an "avoids" answer must be
        confirmed by reference.contains, a different search. ``seen`` holds
        answers already checked, so repeated passes on the same inputs cost a
        lookup each.
        """
        inputs = self.inputs
        for i, (h, j) in enumerate(inputs["queries"]):
            host, tau, answer = inputs["hosts"][h], inputs["patterns"][j], results["answers"][i]
            key = (host, tau, tuple(answer) if answer is not None else None)
            ok = seen.get(key)
            if ok is None:
                hblocks, pblocks = reference.blocks_of(host), reference.blocks_of(tau)
                if answer is None:
                    ok = not reference.contains(hblocks, pblocks)
                else:
                    n = sum(len(b) for b in hblocks)
                    ok = (
                        len(answer) == sum(len(b) for b in pblocks)
                        and all(1 <= e <= n for e in answer)
                        and all(a < b for a, b in zip(answer, answer[1:]))
                        and reference.standardize(hblocks, answer) == tau
                    )
                seen[key] = ok
            tally.check(ok, f"find_occurrence({host}, {tau}) -> {answer}")
        for i, host in enumerate(inputs["hosts"][: inputs["roundtrip"]]):
            back = results["roundtrip"][i]
            tally.check(back == host, f"from_dacp(to_dacp({host})) -> {back}")
        small = inputs["small_patterns"]
        for h, host in enumerate(inputs["small_hosts"]):
            hblocks = reference.blocks_of(host)
            for j, tau in enumerate(small):
                answer = results["graph_answers"][h * len(small) + j]
                key = ("dacp", host, tau, answer)
                ok = seen.get(key)
                if ok is None:
                    ok = seen[key] = answer == reference.contains(hblocks, reference.blocks_of(tau))
                tally.check(ok, f"dacp_contains({host}, {tau}) -> {answer}")
        for (tau, n), value in zip(inputs["recount"], results["recounts"]):
            tally.check(int(value) == self.ref.count(tau, n), f"count_avoiders_oracle({tau}, {n}) -> {value}")


def make(name: str, seed: int, size: Size, root: Path, work: Path, ref: reference.Reference) -> Workload:
    """Build a workload's command and inputs from the seed; nothing is run."""
    rng = random.Random(f"{name}/{seed}")
    wl = Workload(name, seed, size, root, work, ref)
    inputs = {
        "patterns": [], "hosts": [], "queries": [], "roundtrip": 0,
        "small_patterns": [], "small_hosts": [], "recount": [],
    }
    if name == "sweep-k4":
        wl.cache = work / "sweep-k4.cache.jsonl"
        wl.argv = [
            "conjectures", "--all-k", "4", "--n-from", "1", "--n-to", str(size.sweep_n_to),
            "--workers", "1", "--cache", str(wl.cache),
        ]
        inputs["patterns"] = partitions_of(4)
        wl.cells = [(tau, n) for tau in inputs["patterns"] for n in range(1, size.sweep_n_to + 1)]
    elif name == "deep-k5":
        wl.workers = min(2, os.cpu_count() or 1)
        n = str(size.deep_n)
        wl.argv = [
            "count", "--pattern", size.deep_pattern, "--n-from", n, "--n-to", n,
            "--workers", str(wl.workers), "--no-cache",
        ]
        inputs["patterns"] = [size.deep_pattern]
        wl.cells = [(size.deep_pattern, size.deep_n)]
    elif name == "witness":
        inputs["patterns"] = [t for k in (3, 4, 5) for t in partitions_of(k)]
        inputs["small_patterns"] = [t for k in (3, 4) for t in partitions_of(k)]
        inputs["small_hosts"] = stratified_hosts(rng, *size.small_n, size.small_levels, size.small_repeat)
        inputs["recount"] = [list(r) for r in size.recount]
    else:
        raise KeyError(name)
    # Many hosts, each queried with a seeded handful of the patterns: the
    # slowest queries then come from many hosts, not from the few that
    # happen to avoid most patterns, so the tail varies little with the
    # seed. Enough queries for the p99 to have queries / 100 beyond it.
    patterns = range(len(inputs["patterns"]))
    per_host = min(size.per_host, len(patterns))
    grid = (size.host_n[1] - size.host_n[0] + 1) * size.host_levels
    queries = {"sweep-k4": size.sweep_probe_queries, "deep-k5": size.deep_probe_queries}.get(name, size.witness_queries)
    inputs["hosts"] = stratified_hosts(rng, *size.host_n, size.host_levels, -(-queries // (grid * per_host)))
    inputs["queries"] = [[h, j] for h in range(len(inputs["hosts"])) for j in sorted(rng.sample(patterns, per_host))]
    if name == "witness":
        # graph round trips of one host per size and block-count level
        inputs["roundtrip"] = grid
    wl.inputs = inputs
    return wl
