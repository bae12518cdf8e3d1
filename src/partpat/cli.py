"""Command-line harness: counting runs, containment queries, conjecture
scans, bound audits, graph conversion, permeability and uniform partitions.

Exit codes: 0 success (a reader that closes stdout early, as ``| head``
does, ends the run quietly with 0), 1 invalid input (or a file that cannot
be read or written), 2 hard assertion failure (a desk-scale theorem check or
internal identity broke), 3 resource ceiling exceeded: a transfer-DP layer
over its state cap, an ``--all-k`` family of more than 10,000 members,
refused before any count, or a ``check`` pattern of some 1,000 blocks or
more, past the containment search's recursion limit. No
conjecture verdict changes the exit status: a trend is reported, a
conjecture-1 counterexample reports ``fail`` and exits 0, and a probe of a
pattern with no row at n >= 2 with a positive count reports ``degenerate``;
among the scans only ``bounds`` exits 2, on a broken theorem check.
``conjectures --all-k K`` needs K >= 1 and ``bounds --all-k K``, which
audits the layered shapes of size 2..K, needs K >= 2.

The scans ``count``, ``conjectures`` and ``bounds`` print through one
report path, as CSV or JSON, to ``--out`` or stdout; a scan refused at a
DP layer prints the exact rows it counted before the refusal, then exits 3.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from itertools import combinations, islice
from pathlib import Path
from typing import Any, Iterator, Sequence

from .containment import find_occurrence
from .core import (
    CeilingError,
    LayeredShape,
    SetPartition,
    format_partition,
    parse,
    permeability,
    permeability_oracle,
    reverse,
)
from .dacp import DacpError, dacp_from_obj, dacp_to_obj, from_dacp, to_dacp
from .enumeration import (
    CountCache,
    CountRecord,
    _long_int_text,
    all_partitions,
    count_sequence,
    f_ratio,
    uniform_count,
    uniform_partitions,
)
from .formulas import log_upper_bound_layered

__all__ = ["main"]

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_ASSERTION = 2
EXIT_CEILING = 3

CACHE_ENV_VAR = "PARTPAT_CACHE"
# an --all-k family and its report are held in memory: as JSON, [8] to n = 9
# peaked at about 230 MB, and the 8,178 bounds shapes of K = 13 to n = 12 at 260 MB
_FAMILY_MAX = 10_000

SCAN_COLUMNS = ("tau", "n", "count", "f_ratio", "pm", "pm_target", "gap", "gap_times_log_n")
BOUND_COLUMNS = (
    "tau", "k", "r", "n", "count", "f_ratio",
    "ln_count", "lower_bound", "upper_bound", "within",
)


class FindingError(RuntimeError):
    """A hard assertion failed; ``main`` prints its message, after any details the command printed."""


def _fmt(x: Any) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _check_scan_flags(args: argparse.Namespace) -> None:
    """Refuse a scan's flags out of range, before the scan builds anything."""
    # --workers has no effect but keeps its range check, so every command line exits as before
    cpus = os.cpu_count() or 1
    if not 1 <= args.workers <= cpus:
        raise ValueError(f"worker count must be between 1 and {cpus}, the CPU count")
    if args.n_from < 0 or args.n_to < args.n_from:
        raise ValueError("n range is empty or negative")


def _scan(
    args: argparse.Namespace, patterns: Sequence[SetPartition], ns: range
) -> tuple[list[list[CountRecord]], CeilingError | None]:
    """Count each pattern at each n of ns, in order: the records of each
    pattern reached, and None, or the refusal when a count falls at or past
    a refused DP layer. The scan stops there, and the records before it are
    exact.

    Each reversal orbit is counted once per scan: a pattern and its reverse
    have one sequence, and the first cache miss of either asks
    ``count_sequence`` for every n up to ``--n-to``. The cache is
    ``--cache``, else ``$PARTPAT_CACHE``, and none under ``--no-cache``.
    """
    path = None if args.no_cache else args.cache or os.environ.get(CACHE_ENV_VAR)
    cache = CountCache(path) if path else None
    sequences: dict[str, tuple[list[int], CeilingError | None]] = {}
    counted: list[list[CountRecord]] = []
    for tau in patterns:
        text = format_partition(tau)
        records: list[CountRecord] = []
        counted.append(records)
        for n in ns:
            count = cache.get(text, n) if cache is not None else None
            if count is None:
                if text not in sequences:
                    try:
                        got = count_sequence(tau, args.n_to), None
                    except CeilingError as exc:  # the counts below the refused layer are exact
                        got = exc.counts, exc
                    sequences[text] = sequences[format_partition(reverse(tau))] = got
                seq, refused = sequences[text]
                if n >= len(seq):
                    return counted, refused
                count = seq[n]
                if cache is not None:
                    cache.add(CountRecord(text, n, count))
            records.append(CountRecord(text, n, count))
    return counted, None


def _scan_rows(tau: SetPartition, records: Sequence[CountRecord]) -> list[dict[str, Any]]:
    pm, _ = permeability(tau)
    target = 1.0 - 1.0 / pm if pm >= 1 else None
    rows = []
    for rec in records:
        f = f_ratio(rec)
        gap = target - f if target is not None and f is not None else None
        rows.append(
            {
                "tau": rec.tau,
                "n": rec.n,
                "count": str(rec.count),
                "f_ratio": f,
                "pm": pm,
                "pm_target": target,
                "gap": gap,
                "gap_times_log_n": gap * math.log(rec.n) if gap is not None else None,
            }
        )
    return rows


def _report(
    args: argparse.Namespace, rows: list[dict[str, Any]], columns: Sequence[str],
    refused: CeilingError | None, doc: Any = None,
) -> None:
    """Write a scan's report to ``--out``, or else stdout: CSV of ``rows``
    under ``columns``, or JSON of ``doc``, or else of the rows. A refused
    scan reports the rows it counted, if any, then raises the refusal."""
    if rows or refused is None:
        if args.format == "json":
            text = json.dumps(rows if doc is None else doc, indent=2) + "\n"
        else:
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows([_fmt(row[c]) for c in columns] for row in rows)
            text = buf.getvalue()
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    if refused is not None:
        raise refused


# ---------------------------------------------------------------- count


def _cmd_count(args: argparse.Namespace) -> int:
    _check_scan_flags(args)
    tau = parse(args.pattern)
    [records], refused = _scan(args, (tau,), range(args.n_from, args.n_to + 1))
    _report(args, _scan_rows(tau, records), SCAN_COLUMNS, refused)
    return EXIT_OK


# ---------------------------------------------------------------- check


def _cmd_check(args: argparse.Namespace) -> int:
    host = parse(args.host)
    pattern = parse(args.pattern)
    occ = find_occurrence(host, pattern)
    if args.format == "json":
        doc = {
            "host": format_partition(host),
            "pattern": format_partition(pattern),
            "contains": occ is not None,
            "witness": list(occ.map) if occ else None,
        }
        print(json.dumps(doc))
    elif occ is not None:
        print(f"contains: witness {json.dumps(list(occ.map))}")
    else:
        print("avoids")
    return EXIT_OK


# ---------------------------------------------------------------- conjectures


def _margin_blow_up(margins: list[float]) -> bool:
    """Sustained growth heuristic: the second half sits above everything in
    the first half and the final margin more than doubles the initial one."""
    if len(margins) < 4 or margins[0] <= 0:
        return False
    half = len(margins) // 2
    return min(margins[half:]) > max(margins[:half]) and margins[-1] > 2 * margins[0]


def _verdict(
    conjecture: str,
    tau: str | None,
    status: str,
    summary: str,
    rows: Sequence[dict[str, Any]] = (),
    counterexample: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Outcome of one conjecture probe for one pattern (or, with tau None,
    the whole family), as the JSON report prints it.

    ``fail`` always carries a concrete counterexample; asymptotic probes
    only ever report a consistent or inconsistent trend, or ``degenerate``
    where there is no trend to read, never a pass.
    """
    if status == "fail" and counterexample is None:
        raise AssertionError("fail verdict requires a counterexample")
    return {
        "conjecture": conjecture,
        "tau": tau,
        "status": status,
        "summary": summary,
        "rows": list(rows),
        "counterexample": counterexample,
    }


def _conjecture_one(
    k: int, counts: dict[str, list[CountRecord]], ns: range
) -> dict[str, Any]:
    block = format_partition(SetPartition.from_blocks([range(1, k + 1)]))
    block_counts = {r.n: r.count for r in counts[block]}
    rows = []
    counterexample = None
    for tau_text, records in counts.items():
        if tau_text == block:
            continue
        n0 = None
        for rec in records:
            if block_counts[rec.n] < rec.count and counterexample is None:
                counterexample = {"tau": tau_text, "n": rec.n, "count": str(rec.count), "block_count": str(block_counts[rec.n])}
            if n0 is None and block_counts[rec.n] > rec.count:
                n0 = rec.n
        rows.append({"tau": tau_text, "first_strict_n": n0})
    if counterexample is not None:
        return _verdict(
            "1", None, "fail",
            f"A_n(block) < A_n({counterexample['tau']}) at n={counterexample['n']}",
            rows, counterexample,
        )
    return _verdict(
        "1", None, "pass",
        f"A_n({block}) >= A_n(tau) for all {len(counts) - 1} other patterns of [{k}], "
        f"n in {ns.start}..{ns.stop - 1}",
        rows,
    )


def _conjecture_probes(tau_text: str, pm: int, usable: Sequence[dict[str, Any]]) -> list[dict[str, Any]]:
    """Verdicts on conjectures 5, 6 and 2-4 for one pattern, read off its
    usable ``_scan_rows``: those with an F_n, at n >= 2 with a positive count."""
    rows5 = [{c: r[c] for c in ("n", "f_ratio", "pm_target", "gap")} for r in usable]
    if pm == 0:
        stays_0 = usable and all(r["f_ratio"] == 0.0 for r in usable)
        return [
            _verdict(
                "5", tau_text, "degenerate",
                "pm=0: target 1-1/pm undefined; growth is at most exponential so F tends to 0"
                + ("; observed F stays 0" if stays_0 else ""),
                rows5,
            ),
            _verdict("6", tau_text, "degenerate", "pm=0: no finite target to compare against"),
        ]
    if not usable:
        why = "no row has n >= 2 and a positive count"
        return [
            _verdict("5", tau_text, "degenerate", f"pm={pm}: {why}, so no F_n to compare with 1-1/pm"),
            _verdict("6", tau_text, "degenerate", f"pm={pm}: {why}, so no margin to bound"),
        ]

    margins = [abs(r["gap_times_log_n"]) for r in usable]
    status = "inconsistent" if _margin_blow_up(margins) else "consistent"
    last = usable[-1]
    rows24 = []
    for r in usable:  # 1 <= A_n <= Bell(n) < n^n, so 0 <= F_n < 1 and c >= 1
        c_est = 1.0 / (1.0 - r["f_ratio"])
        rows24.append({"n": r["n"], "c_estimate": c_est, "distance_to_integer": abs(c_est - round(c_est))})

    summary6 = f"|F_n - (1-1/{pm})| * ln n stays within [{_fmt(min(margins))}, {_fmt(max(margins))}]"
    tail = rows24[-1]
    nearest = round(tail["c_estimate"])
    if nearest != pm:
        summary6 += (
            f"; observed trend prefers c={nearest} (target {_fmt(1 - 1 / nearest)})"
            f" over pm-based c={pm}"
        )
    return [
        _verdict(
            "5", tau_text, status,
            f"pm={pm}, target={_fmt(last['pm_target'])}, gap at n={last['n']} is {_fmt(last['gap'])}",
            rows5,
        ),
        _verdict("6", tau_text, status, summary6, [{"n": r["n"], "margin": m} for r, m in zip(usable, margins)]),
        _verdict(
            "2-4", tau_text, "diagnostic",
            f"1/(1-F_n) at n={tail['n']} is {_fmt(tail['c_estimate'])}, "
            f"{_fmt(tail['distance_to_integer'])} from the nearest integer",
            rows24,
        ),
    ]


def _all_k_family(args: argparse.Namespace, least: int, family: Iterator[Any]) -> list[Any]:
    """``--all-k K``'s lazy ``family``, refused below ``least`` or past ``_FAMILY_MAX`` members."""
    if args.all_k < least:
        raise ValueError(f"--all-k must be >= {least}")
    # Bell(K) and the 2^K - K - 1 shapes of size <= K are both >= 2^(K-1) - 1:
    # a K past the cap by that bound is refused before a member is built
    if args.all_k <= (_FAMILY_MAX + 1).bit_length():
        members = list(islice(family, _FAMILY_MAX + 1))
        if len(members) <= _FAMILY_MAX:
            return members
    raise CeilingError(f"--all-k {args.all_k}: the family has more than {_FAMILY_MAX:,} members, its cap")


def _cmd_conjectures(args: argparse.Namespace) -> int:
    _check_scan_flags(args)
    if args.all_k is not None:
        patterns = tuple(_all_k_family(args, 1, all_partitions(args.all_k)))
    elif args.pattern:
        # a repeated pattern is scanned and reported once, where it first appears
        patterns = tuple(dict.fromkeys(map(parse, args.pattern)))
    else:
        raise ValueError("supply --all-k or at least one --pattern")
    ns = range(args.n_from, args.n_to + 1)
    counted, refused = _scan(args, patterns, ns)
    rows_of = [_scan_rows(tau, records) for tau, records in zip(patterns, counted)]
    verdicts = []
    if refused is None:  # a partial scan prints its exact rows and no verdict
        if args.all_k is not None:
            counts = dict(zip(map(format_partition, patterns), counted))
            verdicts.append(_conjecture_one(args.all_k, counts, ns))
        for rows in rows_of:
            usable = [r for r in rows if r["f_ratio"] is not None]
            verdicts.extend(_conjecture_probes(rows[0]["tau"], rows[0]["pm"], usable))
    scan_rows = [row for rows in rows_of for row in rows]
    for v in verdicts:
        scope = f" tau={v['tau']}" if v["tau"] else ""
        print(f"conjecture {v['conjecture']}{scope}: {v['status']} ({v['summary']})", file=sys.stderr)
    _report(args, scan_rows, SCAN_COLUMNS, refused, {"verdicts": verdicts, "rows": scan_rows})
    return EXIT_OK


# ---------------------------------------------------------------- bounds


def compositions(k: int):
    """All ordered tuples of positive integers summing to k."""
    for r in range(1, k + 1):
        for cuts in combinations(range(1, k), r - 1):
            bounds = (0,) + cuts + (k,)
            yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _cmd_bounds(args: argparse.Namespace) -> int:
    _check_scan_flags(args)
    if args.n_to < 1:
        raise ValueError("--n-to must be >= 1: bounds audits n >= 1")
    shapes: list[LayeredShape] = []
    if args.shape:
        for text in args.shape:
            try:
                parts = tuple(int(x) for x in text.split(","))
            except ValueError:
                raise ValueError(f"malformed shape {text!r}; expected e.g. 2,2")
            shapes.append(LayeredShape(parts))
        # a repeated shape is scanned and reported once, where it first appears
        shapes = list(dict.fromkeys(shapes))
    elif args.all_k is not None:
        shapes = _all_k_family(args, 2, (
            LayeredShape(c) for k in range(2, args.all_k + 1) for c in compositions(k) if len(c) < k
        ))
    else:
        raise ValueError("supply --shape or --all-k")
    for shape in shapes:
        if shape.r >= shape.k:
            raise ValueError(f"shape {shape.parts} has no non-singleton layer (k must exceed r)")

    ns = range(max(args.n_from, 1), args.n_to + 1)
    counted, refused = _scan(args, [shape.to_partition() for shape in shapes], ns)

    rows = []
    findings = []
    for shape, records in zip(shapes, counted):
        k, r, t = shape.k, shape.r, shape.k - shape.r
        for rec in records:
            n = rec.n
            ln_count = math.log(rec.count)  # r < k, so the all-singleton partition avoids
            upper = log_upper_bound_layered(k, r, n)
            lower = math.log(uniform_count(n, t)) if n % t == 0 else None
            within = ln_count <= upper + 1e-9 and (lower is None or lower <= ln_count + 1e-9)
            if not within:
                findings.append(
                    f"bound violation: tau={rec.tau} n={n} ln_count={_fmt(ln_count)} "
                    f"lower={_fmt(lower)} upper={_fmt(upper)}"
                )
            rows.append(
                {
                    "tau": rec.tau,
                    "k": k,
                    "r": r,
                    "n": n,
                    "count": str(rec.count),
                    "f_ratio": f_ratio(rec),
                    "ln_count": ln_count,
                    "lower_bound": lower,
                    "upper_bound": upper,
                    "within": within,
                }
            )
    _report(args, rows, BOUND_COLUMNS, refused)  # a partial scan raises before its findings
    if findings:
        for finding in findings:
            print(finding, file=sys.stderr)
        raise FindingError(f"{len(findings)} bound violations")
    return EXIT_OK


# ---------------------------------------------------------------- dacp


def _cmd_dacp(args: argparse.Namespace) -> int:
    if args.direction == "to":
        p = parse(args.input)
        print(json.dumps(dacp_to_obj(to_dacp(p))))
    else:
        text = args.input
        if text.startswith("@"):
            text = Path(text[1:]).read_text(encoding="utf-8")
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DacpError(f"invalid graph JSON: {exc}")
        p = from_dacp(dacp_from_obj(obj))
        print(format_partition(p))
    if args.roundtrip and from_dacp(to_dacp(p)) != p:
        raise FindingError("roundtrip mismatch")
    return EXIT_OK


# ---------------------------------------------------------------- permeability


def _cmd_permeability(args: argparse.Namespace) -> int:
    tau = parse(args.pattern)
    pm, witness = permeability(tau)
    intervals = witness.intervals(tau.n)
    oracle_value = permeability_oracle(tau) if args.oracle else None
    if args.format == "json":
        doc = {
            "tau": format_partition(tau),
            "pm": pm,
            "cuts": list(witness.cuts),
            "intervals": [list(iv) for iv in intervals],
        }
        if oracle_value is not None:
            doc["oracle"] = oracle_value
        print(json.dumps(doc))
    else:
        print(f"pm = {pm}")
        print(f"cuts = {json.dumps(list(witness.cuts))}")
        print(f"intervals = {json.dumps([list(iv) for iv in intervals])}")
        if oracle_value is not None:
            print(f"oracle = {oracle_value}")
    if oracle_value is not None and oracle_value != pm:
        print(f"greedy pm {pm} != oracle pm {oracle_value}", file=sys.stderr)
        raise FindingError("permeability mismatch")
    return EXIT_OK


# ---------------------------------------------------------------- uniform


def _cmd_uniform(args: argparse.Namespace) -> int:
    if args.list is not None and args.list < 0:
        raise ValueError("--list must be >= 0")
    print(f"count = {uniform_count(args.n, args.sections)}")
    for p in islice(uniform_partitions(args.n, args.sections), args.list):
        print(format_partition(p))
    return EXIT_OK


# ---------------------------------------------------------------- wiring


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # route argparse failures to exit code 1
        raise ValueError(message)


def _add_scan_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n-from", type=int, required=True)
    sub.add_argument("--n-to", type=int, required=True)
    sub.add_argument(
        "--workers", type=int, default=1,
        help="no effect: counting runs in one process (must lie between 1 and the CPU count)",
    )
    sub.add_argument("--cache", help=f"cache file path (default ${CACHE_ENV_VAR})")
    sub.add_argument("--no-cache", action="store_true", help="disable the count cache")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", help="write the report here instead of stdout")


def _build_parser() -> _Parser:
    parser = _Parser(prog="partpat", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_count = subs.add_parser("count", help="exact avoider counts over an n range")
    p_count.add_argument("--pattern", required=True)
    _add_scan_flags(p_count)
    p_count.set_defaults(func=_cmd_count)

    p_check = subs.add_parser("check", help="does HOST contain PATTERN?")
    p_check.add_argument("host")
    p_check.add_argument("pattern")
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.set_defaults(func=_cmd_check)

    p_conj = subs.add_parser("conjectures", help="probe the growth conjectures at desk scale")
    family = p_conj.add_mutually_exclusive_group()
    family.add_argument("--all-k", type=int, help="scan every pattern of [k]")
    family.add_argument("--pattern", action="append", help="explicit pattern (repeatable)")
    _add_scan_flags(p_conj)
    p_conj.set_defaults(func=_cmd_conjectures)

    p_bounds = subs.add_parser("bounds", help="audit the layered upper/lower bounds")
    family = p_bounds.add_mutually_exclusive_group()
    family.add_argument("--shape", action="append", help='layer sizes, e.g. "2,2" (repeatable)')
    family.add_argument("--all-k", type=int, help="every layered shape with sum <= k and r < k")
    _add_scan_flags(p_bounds)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_dacp = subs.add_parser("dacp", help="convert between partitions and their digraphs")
    p_dacp.add_argument("direction", choices=("to", "from"))
    p_dacp.add_argument("input", help="partition string, inline JSON, or @file")
    p_dacp.add_argument("--roundtrip", action="store_true", help="re-convert and assert identity")
    p_dacp.set_defaults(func=_cmd_dacp)

    p_pm = subs.add_parser("permeability", help="minimum interval cuts for a pattern")
    p_pm.add_argument("pattern")
    p_pm.add_argument("--oracle", action="store_true", help="cross-check against exhaustive search")
    p_pm.add_argument("--format", choices=("text", "json"), default="text")
    p_pm.set_defaults(func=_cmd_permeability)

    p_uni = subs.add_parser("uniform", help="stream the uniform partitions of [n]")
    p_uni.add_argument("--n", type=int, required=True)
    p_uni.add_argument("--sections", type=int, required=True)
    p_uni.add_argument("--list", nargs="?", type=int, default=0, metavar="N", help="print at most N members, all without N")
    p_uni.set_defaults(func=_cmd_uniform)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        with _long_int_text():  # counts are exact and can be long
            code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early, as ``| head`` does: not an error.
        # Point fd 1 at the null device so the exit-time flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (ValueError, OSError) as exc:
        # invalid input, a usage, parse or graph error among them; an OSError's
        # message names the file: a missing @input, an --out directory that
        # does not exist, a --cache path that is a directory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CeilingError as exc:
        print(f"ceiling: {exc}", file=sys.stderr)
        return EXIT_CEILING
    except FindingError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
