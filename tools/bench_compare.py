#!/usr/bin/env python3
"""Perf-regression gate over BENCH JSON lines.

Bench drivers emit one machine-readable line per measurement:

  BENCH {"bench":"batching","queries":16,"threads":4,...,"events_per_sec":17528.8,...}

This tool diffs such measurements against checked-in baselines
(bench/baselines/*.json, same line format, `BENCH ` prefix optional) and
fails — exit 1 — when the gated metric (events/sec by default) regressed
by more than the threshold on any measurement present in both sides.

Measurements are matched by identity: every field except the known
metric/outcome fields (elapsed time, rates, speedups, result counts)
forms the key, so a baseline row matches exactly the current row with
the same bench name, thread count, query count, dataset, and so on.
Current rows with no baseline are reported as "new" warnings, but a
baseline row with no counterpart in the fresh run is a HARD FAILURE —
it means a gated configuration silently stopped being measured (bench
renamed, scale changed, workflow step dropped). The error names the
missing identity keys; re-pin with --update-baseline if the change is
intentional (see docs/REPRODUCING.md).

Usage:
  bench_compare.py --baseline bench/baselines --current out1.log [out2.log ...]
  bench_compare.py --baseline bench/baselines --current out.log --update-baseline
  bench_compare.py --self-test

--current files are raw bench-driver stdout; non-BENCH lines are
ignored. --update-baseline rewrites <baseline>/<bench>.json from the
current measurements instead of comparing (used by the nightly
workflow's re-baseline dispatch input). --self-test verifies the gate
itself: a synthesized 2x slowdown must fail and an unchanged run must
pass; exits 0 iff both hold.
"""

import argparse
import json
import os
import sys

# Outcome fields: everything that measures rather than identifies.
# "events"/"occurred" are deterministic for a pinned seed, but they are
# outcomes of the run, not knobs of the configuration, so they stay out
# of the identity key (a correctness change then shows up as a missing/
# new measurement instead of silently gating on a different workload).
METRIC_FIELDS = {
    "elapsed_ms",
    "events_per_sec",
    "mbytes_per_sec",
    "stream_bytes",
    "events",
    "occurred",
    "expired",
    "matches",
    "speedup_vs_serial",
    "batch_speedup",
    "speedup",
    "peak_mb",
    "peak_memory_mb",
    "peak_memory_bytes",
    "peak_bytes",
    "peak_event_index",
    "update_ms",
    "search_ms",
    "adj_entries_scanned",
    "adj_entries_matched",
    # The host's core count: recorded next to every number, but a run on
    # another machine still matches the same pinned configuration (and
    # baselines written before the field existed keep matching).
    "nproc",
}


def parse_bench_lines(text, source):
    """Yields measurement dicts from BENCH-prefixed (or bare) JSON lines."""
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line.startswith("BENCH "):
            line = line[len("BENCH "):]
        if not line.startswith("{"):
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as e:
            raise SystemExit(f"{source}:{lineno}: unparseable BENCH line: {e}")
        if isinstance(row, dict) and "bench" in row:
            out.append(row)
    return out


def identity(row):
    return tuple(sorted((k, row[k]) for k in row if k not in METRIC_FIELDS))


def fmt_identity(row):
    parts = [f"{k}={v}" for k, v in sorted(row.items())
             if k not in METRIC_FIELDS]
    return " ".join(parts)


def load_dir(path):
    rows = []
    if not os.path.isdir(path):
        raise SystemExit(f"baseline directory not found: {path}")
    for name in sorted(os.listdir(path)):
        if name.endswith(".json"):
            with open(os.path.join(path, name), encoding="utf-8") as f:
                rows.extend(parse_bench_lines(f.read(), name))
    return rows


def compare(baseline_rows, current_rows, metric, threshold, out=sys.stdout):
    """Returns (num_regressions, num_compared, missing_rows).

    missing_rows are baseline measurements with no identity-matching row
    in the current run — a pinned configuration that silently stopped
    being measured. Callers must treat a non-empty list as a failure.
    """
    base = {}
    for row in baseline_rows:
        base[identity(row)] = row
    regressions = 0
    compared = 0
    seen = set()
    for row in current_rows:
        if metric not in row:
            continue
        key = identity(row)
        seen.add(key)
        ref = base.get(key)
        if ref is None or metric not in ref:
            print(f"  new (no baseline): {fmt_identity(row)}", file=out)
            continue
        compared += 1
        old, new = float(ref[metric]), float(row[metric])
        if old <= 0:
            print(f"  skip (zero baseline): {fmt_identity(row)}", file=out)
            continue
        delta = (new - old) / old
        verdict = "ok"
        if delta < -threshold:
            verdict = "REGRESSION"
            regressions += 1
        print(f"  {verdict}: {fmt_identity(row)}: {metric} "
              f"{old:.1f} -> {new:.1f} ({delta:+.1%})", file=out)
    missing = []
    for key, ref in base.items():
        if key not in seen and metric in ref:
            missing.append(ref)
            print(f"  MISSING from current run: {fmt_identity(ref)}",
                  file=out)
    return regressions, compared, missing


def update_baseline(baseline_dir, current_rows):
    os.makedirs(baseline_dir, exist_ok=True)
    by_bench = {}
    for row in current_rows:
        by_bench.setdefault(row["bench"], []).append(row)
    for bench, rows in sorted(by_bench.items()):
        path = os.path.join(baseline_dir, f"{bench}.json")
        with open(path, "w", encoding="utf-8") as f:
            for row in rows:
                f.write("BENCH " + json.dumps(row, separators=(",", ":"))
                        + "\n")
        print(f"wrote {path} ({len(rows)} measurements)")


def self_test():
    baseline = [
        {"bench": "batching", "threads": 1, "batched": 0,
         "events_per_sec": 30000.0},
        {"bench": "batching", "threads": 4, "batched": 1,
         "events_per_sec": 17000.0},
        {"bench": "parallel_scaling", "queries": 16, "threads": 4,
         "events_per_sec": 9000.0},
    ]
    slowed = [dict(r, events_per_sec=r["events_per_sec"] * 0.5)
              for r in baseline]
    jitter = [dict(r, events_per_sec=r["events_per_sec"] * 0.95)
              for r in baseline]
    sink = open(os.devnull, "w", encoding="utf-8")
    slow_reg, slow_cmp, slow_missing = compare(
        baseline, slowed, "events_per_sec", 0.15, out=sink)
    ok_reg, ok_cmp, ok_missing = compare(
        baseline, jitter, "events_per_sec", 0.15, out=sink)
    # A baseline row whose configuration vanished from the fresh run (the
    # parallel_scaling measurement below) must surface as a named missing
    # identity, never pass silently or raise a bare KeyError.
    partial = [r for r in jitter if r["bench"] != "parallel_scaling"]
    miss_reg, miss_cmp, missing = compare(
        baseline, partial, "events_per_sec", 0.15, out=sink)
    # A current row carrying the host's nproc still matches its baseline
    # row written without the field.
    with_nproc = [dict(r, nproc=4) for r in jitter]
    np_reg, np_cmp, np_missing = compare(
        baseline, with_nproc, "events_per_sec", 0.15, out=sink)
    sink.close()
    failures = []
    if slow_cmp != len(baseline) or slow_reg != len(baseline):
        failures.append(
            f"a 2x slowdown must fail every measurement "
            f"(flagged {slow_reg}/{slow_cmp} of {len(baseline)})")
    if ok_cmp != len(baseline) or ok_reg != 0:
        failures.append(
            f"5% jitter must pass (flagged {ok_reg}/{ok_cmp})")
    if ok_missing or slow_missing:
        failures.append("full runs must report no missing measurements")
    if (len(missing) != 1 or missing[0]["bench"] != "parallel_scaling"
            or miss_cmp != len(partial)):
        failures.append(
            f"dropping a baselined configuration must be reported as "
            f"exactly that missing identity (got {len(missing)})")
    if np_cmp != len(baseline) or np_reg != 0 or np_missing:
        failures.append(
            f"rows carrying nproc must match baselines without it "
            f"(compared {np_cmp} of {len(baseline)}, "
            f"{len(np_missing)} missing)")
    roundtrip = parse_bench_lines(
        "noise\nBENCH " + json.dumps(baseline[0]) + "\n", "<self-test>")
    if roundtrip != [baseline[0]]:
        failures.append("BENCH line round-trip failed")
    if failures:
        for f in failures:
            print(f"self-test FAILED: {f}")
        return 1
    print("self-test passed: gate fails a deliberately slowed build and "
          "passes jitter within the threshold")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", help="directory of checked-in *.json "
                    "baselines (bench/baselines)")
    ap.add_argument("--current", nargs="+", default=[],
                    help="bench-driver stdout file(s) to gate")
    ap.add_argument("--metric", default="events_per_sec")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="max tolerated fractional drop (default 0.15)")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline files from --current "
                    "instead of comparing")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the gate flags a slowed build; exit 0 "
                    "iff it does")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(self_test())
    if not args.baseline or not args.current:
        ap.error("--baseline and --current are required "
                 "(or use --self-test)")

    current = []
    for path in args.current:
        with open(path, encoding="utf-8") as f:
            current.extend(parse_bench_lines(f.read(), path))
    if not current:
        raise SystemExit("no BENCH lines found in --current input")

    if args.update_baseline:
        update_baseline(args.baseline, current)
        return

    print(f"comparing {len(current)} measurements against {args.baseline} "
          f"(metric {args.metric}, threshold {args.threshold:.0%}):")
    regressions, compared, missing = compare(load_dir(args.baseline), current,
                                             args.metric, args.threshold)
    if compared == 0:
        raise SystemExit("no overlapping measurements to compare — "
                         "re-pin the baselines (--update-baseline)")
    if missing:
        print(f"FAIL: {len(missing)} baselined measurement(s) missing from "
              f"the current run — a gated configuration stopped being "
              f"measured:")
        for ref in missing:
            print(f"  {fmt_identity(ref)}")
        print("re-pin with --update-baseline if this change is intentional")
        sys.exit(1)
    if regressions:
        print(f"FAIL: {regressions} of {compared} measurements regressed "
              f"more than {args.threshold:.0%}")
        sys.exit(1)
    print(f"OK: {compared} measurements within {args.threshold:.0%} of "
          "baseline")


if __name__ == "__main__":
    main()
