#!/usr/bin/env python3
"""Offline validator for tcsm --trace-out chrome-trace JSON.

Checks the schema and physical plausibility of a trace produced by
`tcsm run/replay --trace-out=FILE` (see DESIGN.md §11):

  * the file is a JSON object with a "traceEvents" array (a bare array
    is also accepted — both load in chrome://tracing and Perfetto);
  * every complete-duration event ("ph" == "X") carries a string name
    and category, integer pid/tid, and non-negative finite ts/dur;
  * metadata events ("ph" == "M") have the thread_name shape;
  * per thread, spans are properly nested: sorted by start time, a span
    must either contain or be disjoint from every later span — partial
    overlap on one track means the emitter's clock handling is broken;
  * every tid that appears on a span has a thread_name metadata record.

Usage:
  check_trace.py TRACE.json        validate a trace file (exit 0/1)
  check_trace.py --self-test       run the built-in fixtures (exit 0/1)
"""

import json
import sys

# Slack for float comparisons: timestamps are microseconds with three
# decimals (exact nanoseconds), so anything below 1ns is rounding noise.
EPSILON_US = 0.0005


def load_events(text, errors):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        errors.append("not valid JSON: %s" % e)
        return None
    if isinstance(doc, list):
        return doc
    if isinstance(doc, dict):
        events = doc.get("traceEvents")
        if not isinstance(events, list):
            errors.append('top-level object has no "traceEvents" array')
            return None
        return events
    errors.append("top level must be an object or an array, got %s" %
                  type(doc).__name__)
    return None


def check_span(i, ev, errors):
    """Schema of one ph=="X" event; returns (tid, ts, dur) or None."""
    ok = True
    for key in ("name", "cat"):
        if not isinstance(ev.get(key), str) or not ev.get(key):
            errors.append("event %d: %r must be a non-empty string" % (i, key))
            ok = False
    for key in ("pid", "tid"):
        if not isinstance(ev.get(key), int):
            errors.append("event %d: %r must be an integer" % (i, key))
            ok = False
    for key in ("ts", "dur"):
        v = ev.get(key)
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            errors.append("event %d: %r must be a number" % (i, key))
            ok = False
        elif v < 0 or v != v or v in (float("inf"), float("-inf")):
            errors.append("event %d: %r must be finite and non-negative (got %r)"
                          % (i, key, v))
            ok = False
    args = ev.get("args")
    if args is not None and not isinstance(args, dict):
        errors.append('event %d: "args" must be an object' % i)
        ok = False
    if not ok:
        return None
    return (ev["tid"], float(ev["ts"]), float(ev["dur"]))


def check_metadata(i, ev, errors):
    """Schema of one ph=="M" event; returns the named tid or None."""
    if ev.get("name") != "thread_name":
        errors.append('event %d: unknown metadata name %r' % (i, ev.get("name")))
        return None
    if not isinstance(ev.get("tid"), int):
        errors.append('event %d: metadata "tid" must be an integer' % i)
        return None
    args = ev.get("args")
    if not isinstance(args, dict) or not isinstance(args.get("name"), str):
        errors.append('event %d: thread_name args must carry a string "name"'
                      % i)
        return None
    return ev["tid"]


def check_nesting(tid, spans, errors):
    """Spans on one track must nest: no partial overlap."""
    spans = sorted(spans, key=lambda s: (s[0], -s[1]))
    stack = []  # end times of open ancestors
    for start, dur in spans:
        end = start + dur
        while stack and start >= stack[-1] - EPSILON_US:
            stack.pop()
        if stack and end > stack[-1] + EPSILON_US:
            errors.append(
                "tid %d: span [%f, %f] partially overlaps an enclosing span "
                "ending at %f" % (tid, start, end, stack[-1]))
            return
        stack.append(end)


def validate(text):
    """Returns a list of error strings; empty means the trace is valid."""
    errors = []
    events = load_events(text, errors)
    if events is None:
        return errors
    by_tid = {}
    named_tids = set()
    span_count = 0
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            errors.append("event %d: not an object" % i)
            continue
        ph = ev.get("ph")
        if ph == "X":
            parsed = check_span(i, ev, errors)
            if parsed is not None:
                tid, ts, dur = parsed
                by_tid.setdefault(tid, []).append((ts, dur))
                span_count += 1
        elif ph == "M":
            tid = check_metadata(i, ev, errors)
            if tid is not None:
                named_tids.add(tid)
        else:
            errors.append("event %d: unsupported ph %r" % (i, ph))
    if span_count == 0:
        errors.append("trace contains no complete-duration spans")
    for tid in sorted(by_tid):
        if tid not in named_tids:
            errors.append("tid %d has spans but no thread_name metadata" % tid)
        check_nesting(tid, by_tid[tid], errors)
    return errors


GOOD_TRACE = json.dumps({
    "traceEvents": [
        {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name",
         "args": {"name": "thread-0"}},
        {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
         "args": {"name": "thread-1"}},
        {"name": "arrival_batch", "cat": "stream", "ph": "X", "pid": 1,
         "tid": 0, "ts": 0.0, "dur": 100.0, "args": {"events": 4}},
        {"name": "insert_fanout", "cat": "pipeline", "ph": "X", "pid": 1,
         "tid": 0, "ts": 10.0, "dur": 20.0},
        {"name": "drain", "cat": "pipeline", "ph": "X", "pid": 1,
         "tid": 0, "ts": 30.0, "dur": 5.0},
        {"name": "engine_call", "cat": "test", "ph": "X", "pid": 1,
         "tid": 1, "ts": 12.0, "dur": 15.0, "args": {"lane": 1}},
    ]
})

SELF_TESTS = [
    ("valid trace", GOOD_TRACE, True),
    ("bare array accepted", json.dumps([
        {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name",
         "args": {"name": "thread-0"}},
        {"name": "a", "cat": "c", "ph": "X", "pid": 1, "tid": 0,
         "ts": 1.0, "dur": 2.0},
    ]), True),
    ("broken JSON", "{not json", False),
    ("missing traceEvents", json.dumps({"foo": []}), False),
    ("negative duration", json.dumps({"traceEvents": [
        {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name",
         "args": {"name": "thread-0"}},
        {"name": "a", "cat": "c", "ph": "X", "pid": 1, "tid": 0,
         "ts": 1.0, "dur": -2.0},
    ]}), False),
    ("missing name", json.dumps({"traceEvents": [
        {"cat": "c", "ph": "X", "pid": 1, "tid": 0, "ts": 1.0, "dur": 2.0},
    ]}), False),
    ("non-integer tid", json.dumps({"traceEvents": [
        {"name": "a", "cat": "c", "ph": "X", "pid": 1, "tid": "zero",
         "ts": 1.0, "dur": 2.0},
    ]}), False),
    ("unnamed thread", json.dumps({"traceEvents": [
        {"name": "a", "cat": "c", "ph": "X", "pid": 1, "tid": 7,
         "ts": 1.0, "dur": 2.0},
    ]}), False),
    ("partial overlap on one track", json.dumps({"traceEvents": [
        {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name",
         "args": {"name": "thread-0"}},
        {"name": "a", "cat": "c", "ph": "X", "pid": 1, "tid": 0,
         "ts": 0.0, "dur": 10.0},
        {"name": "b", "cat": "c", "ph": "X", "pid": 1, "tid": 0,
         "ts": 5.0, "dur": 10.0},
    ]}), False),
    ("empty trace", json.dumps({"traceEvents": []}), False),
]


def self_test():
    failures = 0
    for label, text, expect_ok in SELF_TESTS:
        errors = validate(text)
        ok = not errors
        if ok != expect_ok:
            failures += 1
            print("SELF-TEST FAIL: %s (expected %s, got %s)" %
                  (label, "valid" if expect_ok else "invalid",
                   "valid" if ok else "invalid: %s" % "; ".join(errors)))
    if failures:
        print("%d/%d self-tests failed" % (failures, len(SELF_TESTS)))
        return 1
    print("all %d self-tests passed" % len(SELF_TESTS))
    return 0


def main(argv):
    if len(argv) != 2 or argv[1] in ("-h", "--help"):
        print(__doc__.strip())
        return 2 if len(argv) != 2 else 0
    if argv[1] == "--self-test":
        return self_test()
    try:
        with open(argv[1], "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        print("error: %s" % e)
        return 1
    errors = validate(text)
    if errors:
        for e in errors:
            print("INVALID: %s" % e)
        return 1
    events = json.loads(text)
    if isinstance(events, dict):
        events = events["traceEvents"]
    spans = sum(1 for ev in events
                if isinstance(ev, dict) and ev.get("ph") == "X")
    tids = {ev["tid"] for ev in events
            if isinstance(ev, dict) and ev.get("ph") == "X"}
    print("OK: %d spans across %d threads" % (spans, len(tids)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
