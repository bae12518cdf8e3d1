"""partpat's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; partpat is imported from src/.
``--workload all`` runs every workload in BENCHMARK.json one after another.

With ``--trace 0`` passes of the workload run back to back for S seconds,
each in a fresh process timed from outside, and the end-to-end times are
those of the fastest pass (README.md says why). With ``--trace 1`` one pass runs traced and one
untraced, in-process, and the per-layer metrics come from the spans of the
traced one (tracer.py, layers.py). Every output is checked against the
reference (reference.py); the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where an operation is one (tau, n) cell of a CLI run, one containment
query, graph check or recount. The exit code is 1 when any operation
failed, and 2 without a result line when the benchmark cannot run at all.
Each run also writes a record with its provenance to
.perfbench/results/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import hostspeed
import layers
import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
# Set-up is repeated and its median reported, so one slow start does not
# move setup_s.
SETUP_REPEATS = 7


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ------------------------------------------------------------ provenance


def git_revision(root: Path) -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(wl: workloads.Workload, args: argparse.Namespace) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "partpat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": git_revision(ROOT),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "workload": wl.name,
        "seed": wl.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "tiny" if args.tiny else "full",
        "params": wl.params(),
    }


# ------------------------------------------------------------ set-up


def setup(name: str, seed: int, size: workloads.Size) -> tuple[workloads.Workload, list[float]]:
    """Imports in a fresh interpreter, input generation and reference
    loading, repeated SETUP_REPEATS times; returns the workload and the times."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        probe = workloads.run_child(ROOT, WORK, ["-c", "import partpat.cli"])
        if probe.returncode != 0:
            raise BenchError(f"cannot import partpat from {ROOT / 'src'}:\n{probe.stderr}")
        wl = workloads.make(name, seed, size, ROOT, WORK, reference.load())
        wl.inputs_file.write_text(json.dumps(wl.inputs), encoding="utf-8")
        times.append(time.perf_counter() - t0)
    return wl, times


# ------------------------------------------------------------ untraced runs


class Queries:
    """Query timings folded over passes on the same inputs: each query
    keeps its fastest time, and so does each stage of a witness pass."""

    def __init__(self) -> None:
        self.best_ns: list[int] = []
        self.stage_ns: dict[str, int] = {}
        self.rest_ns = math.inf
        self.host_ns: list[list[int]] = []
        self.passes = 0
        self.seen: dict = {}

    def run(self, wl: workloads.Workload, tally: workloads.Tally) -> workloads.Pass:
        """One witness pass or probe, checked; a pass that crashed fails all
        its operations."""
        wl.results_file.unlink(missing_ok=True)
        p = wl.run_queries()
        try:
            results = json.loads(wl.results_file.read_text(encoding="utf-8")) if p.returncode == 0 else None
        except (OSError, ValueError):
            results = None
        if results is None:
            for _ in range(wl.operations()):
                tally.check(False, f"witness pass exited {p.returncode}: {p.stderr.strip()[-200:]}")
            return p
        wl.check_queries(results, tally, self.seen)
        ns = results["latency_ns"]
        self.best_ns = list(map(min, self.best_ns, ns)) if self.best_ns else ns
        stages = results["stage_ns"]
        self.stage_ns = {k: min(v, self.stage_ns.get(k, v)) for k, v in stages.items()}
        self.host_ns.append(results["host_ns"])
        # interpreter start-up, imports, reading inputs and writing results
        self.rest_ns = min(self.rest_ns, p.wall_s * 1e9 - sum(stages.values()))
        self.passes += 1
        return p

    def pass_s(self) -> float:
        """A witness pass's time from its parts: the fastest start-up and
        output, each stage's fastest time, and in place of the query loop,
        each query's fastest call."""
        # the query loop's own time also holds the hostspeed task calls
        stages = sum(v for k, v in self.stage_ns.items() if k != "query_loop")
        return (self.rest_ns + stages + sum(self.best_ns)) / 1e9


def measure(wl: workloads.Workload, seconds: float, tally: workloads.Tally) -> tuple[dict, dict]:
    """Passes back to back until ``seconds`` have passed.

    On a shared machine interference only ever adds time, so times come
    from the fastest passes: a CLI pass is one command and its time is the
    fastest pass's; a witness pass is timed by part (Queries.pass_s), since
    small parts each find a quiet moment far more often than a whole pass
    does. Queries keep their fastest call. All times are then scaled to the
    reference host speed (hostspeed.py), measured in every query pass,
    which removes the host's slower drift. CPU time is the scaled wall time
    times the passes' median ratio of CPU to wall time.
    """
    passes: list[workloads.Pass] = []
    queries = Queries()
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        if wl.is_cli:
            p = wl.run_pass()
            wl.check_cells(p.returncode, p.stdout, tally)
            passes.append(p)
            if len(passes) % 2 == 0:
                continue
            # the containment probe, the CLI workloads' only seeded input,
            # after every second pass so that its fastest times span the run
            queries.run(wl, tally)
        else:
            passes.append(queries.run(wl, tally))
    walls = [p.wall_s for p in passes]
    best_us = [ns / 1e3 for ns in queries.best_ns]
    raw = {
        # by part when at least one witness pass could be checked
        "wall_s": queries.pass_s() if not wl.is_cli and queries.passes else min(walls),
        "query_s": sum(best_us) / 1e6,
        "query_us.p50": layers.percentile(best_us, 50),
        "query_us.p99": layers.percentile(best_us, 99),
    }
    task_ns = hostspeed.task_ns(queries.host_ns) if queries.host_ns else hostspeed.REFERENCE_NS
    scale = hostspeed.REFERENCE_NS / task_ns
    wall_s = raw["wall_s"] * scale
    values = {
        "wall_s": wall_s,
        "cpu_s": wall_s * statistics.median(p.cpu_s / p.wall_s for p in passes),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
        "avoiders_per_s": wl.expected_total() / wall_s,
        "queries_per_s": len(best_us) / (raw["query_s"] * scale) if best_us else 0.0,
        "query_us.p50": raw["query_us.p50"] * scale,
        "query_us.p99": raw["query_us.p99"] * scale,
    }
    values.update({f"unscaled.{k}": v for k, v in raw.items()})
    values["host.task_us"] = task_ns / 1e3
    samples = {
        "passes": len(passes),
        "wall_s": walls,
        "cpu_s": [p.cpu_s for p in passes],
        "query_passes": queries.passes,
        "query_samples": len(best_us),
        "stage_ns": queries.stage_ns,
        "host_task_ns": queries.host_ns,
        "host_scale": scale,
    }
    return values, samples


# ------------------------------------------------------------ traced run


def run_job(wl: workloads.Workload, trace: bool) -> dict:
    """One in-process pass through tracer.py; returns its output."""
    tag = "traced" if trace else "untraced"
    job = {
        "trace": trace,
        "argv": wl.argv or None,
        "queries": wl.inputs,
        "stdout": str(WORK / "job.out"),
        "stderr": str(WORK / "job.err"),
        "cache": str(wl.cache) if trace and wl.cache is not None else None,
        "out": str(WORK / f"{wl.name}.{tag}.json"),
    }
    if wl.cache is not None:
        wl.cache.unlink(missing_ok=True)
    Path(job["out"]).unlink(missing_ok=True)
    job_file = WORK / "job.json"
    job_file.write_text(json.dumps(job), encoding="utf-8")
    p = workloads.run_child(ROOT, WORK, [str(HERE / "tracer.py"), str(job_file)])
    try:
        out = json.loads(Path(job["out"]).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        raise BenchError(f"{tag} pass of {wl.name} exited {p.returncode}:\n{p.stderr[-2000:]}")
    out["stdout"] = Path(job["stdout"]).read_text(encoding="utf-8")
    return out


def traced(wl: workloads.Workload, tally: workloads.Tally) -> tuple[dict, dict]:
    seen: dict = {}
    plain = run_job(wl, trace=False)
    spans = run_job(wl, trace=True)
    for out in (plain, spans):
        if wl.is_cli:
            wl.check_cells(out["returncode"], out["stdout"], tally)
        wl.check_queries(out["results"], tally, seen)
    pool = {}
    if wl.workers > 1:
        # the deep cell with one worker against the pool, untraced, as the CLI runs it
        argv = list(wl.argv)
        argv[argv.index("--workers") + 1] = "1"
        one = workloads.run_child(ROOT, WORK, ["-m", "partpat.cli", *argv])
        many = wl.run_pass()
        for p in (one, many):
            wl.check_cells(p.returncode, p.stdout, tally)
        pool = {"wall1": one.wall_s, "wall2": many.wall_s, "cpu1": one.cpu_s, "cpu2": many.cpu_s}
    values = layers.layer_values(spans, plain["wall_ns"] / 1e9, wl.ref, pool)
    samples = {"spans_file": str(WORK / f"{wl.name}.traced.json"), "pool": pool}
    return values, samples


# ------------------------------------------------------------ reporting


def run_workload(name: str, args: argparse.Namespace, spec: dict) -> dict:
    size = workloads.TINY if args.tiny else workloads.FULL
    wl, setup_times = setup(name, args.seed, size)
    tally = workloads.Tally()
    if args.trace:
        values, samples = traced(wl, tally)
        wanted = spec["per_layer"]
    else:
        values, samples = measure(wl, args.seconds, tally)
        # scaled to the reference host speed like the run's other times
        values["unscaled.setup_s"] = statistics.median(setup_times)
        values["setup_s"] = values["unscaled.setup_s"] * samples["host_scale"]
        samples["setup_s"] = setup_times
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"{name}: no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "provenance": provenance(wl, args),
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / tally.attempted,
        "failures": tally.notes,
        "metrics": metrics,
        "values": values,
        "samples": samples,
    }
    out = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    prov = record["provenance"]
    print(f"[{name}] seed={wl.seed} git={prov['git_revision'][:12]} python={prov['python']} "
          f"nproc={prov['nproc']} cpu={prov['cpu_model']!r}")
    counts = f", {samples['passes']} passes" if "passes" in samples else ""
    for metric, m in metrics.items():
        note = (
            f" (of {samples['query_samples']} queries, each its fastest of {samples['query_passes']} passes)"
            if metric.startswith("query_us.") else ""
        )
        print(f"[{name}] {metric} = {m['value']:.6g} {m['unit']}{note}")
    extra = sorted(set(values) - set(metrics) - {"setup_s"})
    for key in extra:
        print(f"[{name}] {key} = {values[key]:.6g}")
    print(f"[{name}] error_rate = {record['error_rate']:.6g} ({tally.failed} failed of {tally.attempted}{counts})")
    if args.trace:
        within = abs(values["trace.unaccounted_s"]) <= max(abs(values["trace.overhead_s"]), 0.01)
        print(f"[{name}] top-level spans account for the traced wall within the overhead: {within}")
    for note in tally.notes:
        print(f"[{name}] FAILED {note}")
    print(f"[{name}] record: {out.relative_to(ROOT)}")
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for selftest.py")
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "partpat" / "__init__.py").is_file():
            raise BenchError(f"no partpat source under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = [w["name"] for w in spec["workloads"]]
        if args.workload != "all" and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
        WORK.mkdir(exist_ok=True)
        records = [run_workload(n, args, spec) for n in (names if args.workload == "all" else [args.workload])]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['provenance']['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
