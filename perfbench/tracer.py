"""Spans around partpat's public functions, recorded from outside the package.

    PYTHONPATH=src python3 perfbench/tracer.py JOB.json

runs one workload pass in this process: it imports partpat, then calls
``partpat.cli.main(argv)`` and/or the witness calls of witness_pass.py. With ``"trace": true`` every public function of the six
modules is wrapped at run time first, under every name the package's
modules bind it to, so calls made from inside the package (``cli`` calling
``count_avoiders``, ``contains`` calling ``find_occurrence``) are seen too.
The program's source is not touched. Spans stay in memory and are written
to the job's output file when the pass ends.

A span is ``[name, start_ns, end_ns, parent, info]``; ``parent`` is the
index of the enclosing span or -1, and ``info`` is a small summary of the
call that the layer metrics need (the record a counter returned, whether
a query hit).
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time

MODULES = ("core", "containment", "enumeration", "formulas", "dacp", "cli")

# Calls whose result the layer metrics need to see.
INFO = {
    "enumeration.count_avoiders": lambda r: [r.tau, r.n],
    "enumeration.count_avoiders_oracle": lambda r: r.n,
    "containment.find_occurrence": lambda r: r is not None,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._clock = time.perf_counter_ns

    def _open(self, name: str) -> list:
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = self._clock()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = self._clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name: str, fn):
        info = INFO.get(name)

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if info is not None:
                rec[4] = info(result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """One span per item produced, so consumer time between items is not
        charged to the generator."""

        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                rec = self._open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close(rec)
                rec[4] = 1
                yield item

        return traced

    def install(self) -> None:
        """Wrap the public functions of MODULES, plus SetPartition
        construction and the CountCache methods."""
        import partpat

        loaded = [m for name, m in sys.modules.items() if name == "partpat" or name.startswith("partpat.")]
        for short in MODULES:
            module = sys.modules.get(f"partpat.{short}")
            for attr in module.__all__ if module else ():
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                make = self.wrap_generator if inspect.isgeneratorfunction(fn) else self.wrap
                wrapped = make(f"{short}.{attr}", fn)
                for m in loaded:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapped)
        for cls, short, methods in (
            (partpat.SetPartition, "core.SetPartition", {"__init__": ""}),
            (partpat.CountCache, "enumeration.CountCache", {"__init__": ".load", "get": ".get", "add": ".add"}),
        ):
            for method, suffix in methods.items():
                setattr(cls, method, self.wrap(short + suffix, getattr(cls, method)))


def run_job(job: dict) -> dict:
    """Time one pass of the job; with tracing on, also record its spans."""
    tracer = Tracer()
    phase = tracer.span if job["trace"] else (lambda name: contextlib.nullcontext())
    t0 = time.perf_counter_ns()
    out: dict = {"returncode": 0, "t0_ns": t0}
    if job["argv"]:
        with phase("import.cli"):
            import partpat.cli
    else:
        with phase("import.partpat"):
            import partpat
    if job["trace"]:
        tracer.install()
    if job["argv"]:
        with open(job["stdout"], "w", encoding="utf-8") as so, open(job["stderr"], "w", encoding="utf-8") as se, \
                contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
            out["returncode"] = partpat.cli.main(job["argv"])
    if job["queries"] is not None:
        import witness_pass

        with phase("bench.queries"):
            out["results"] = witness_pass.run(job["queries"], phase)
    out["wall_ns"] = time.perf_counter_ns() - t0
    if job["cache"]:
        # re-open the file the pass wrote, to time cache loads and reads
        with open(job["cache"], encoding="utf-8") as fh:
            keys = [(rec["tau"], rec["n"]) for rec in map(json.loads, fh)]
        with phase("bench.cache_reopen"):
            cache = partpat.CountCache(job["cache"])
            for tau, n in keys:
                cache.get(tau, n)
        out["cache_entries"] = len(cache)
    out["spans"] = tracer.spans
    return out


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        job = json.load(fh)
    out = run_job(job)
    with open(job["out"], "w", encoding="utf-8") as fh:
        json.dump(out, fh, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
