#!/usr/bin/env python3
"""Structural validator for shieldctl trace output (trace-event-v1).

Checks that a document is a loadable Chrome Trace Event file and that the
simulator's track layout invariants hold:

  * top level is {"traceEvents": [...]} with schema trace-event-v1;
  * every event has pid/tid/ph/name, and every "X" event has ts + dur plus
    the exact-nanosecond mirror in args ({"ns", "dur_ns"});
  * within each (pid, tid) track, complete spans are sorted by start and do
    not overlap (the exporter's per-track nesting contexts guarantee this —
    an overlap means a track-routing bug, not a rendering quirk);
  * with --expect-oob, at least one out-of-band stage event is present
    (mech-* oob scenarios must show their oob stage on the timeline).

Exit 0 when the document passes, 1 with a diagnostic when it does not,
including valid JSON of the wrong shape.
Stdlib only; no third-party dependencies.

Usage: tools/trace_validate.py TRACE.json [--expect-oob]
"""

import json
import sys


def fail(msg):
    print(f"trace_validate: {msg}", file=sys.stderr)
    return 1


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("-")]
    expect_oob = "--expect-oob" in argv[1:]
    if len(args) != 1 or "-h" in argv[1:] or "--help" in argv[1:]:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path = args[0]

    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        return fail(f"{path}: cannot read: {e.strerror}")
    if not text.strip():
        return fail(f"{path}: file is empty")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        return fail(f"{path}: not valid JSON ({e})")
    try:
        return check(path, doc, expect_oob)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as e:
        # Valid JSON of the wrong shape (a non-object otherData, a string
        # ts, ...) is a diagnostic too, never a traceback.
        cause = f"missing field {e}" if isinstance(e, KeyError) else str(e)
        return fail(f"{path}: malformed trace document ({cause})")


def check(path, doc, expect_oob):
    """Validate one decoded document; returns the exit status."""
    if not isinstance(doc, dict) or not isinstance(
            doc.get("traceEvents"), list):
        return fail(f"{path}: no traceEvents array — not a Chrome Trace "
                    "Event document")
    schema = (doc.get("otherData") or {}).get("schema")
    if schema != "trace-event-v1":
        return fail(f"{path}: schema is {schema!r}, expected 'trace-event-v1'")

    events = doc["traceEvents"]
    spans = {}  # (pid, tid) -> [(start_ns, end_ns, name)]
    saw_oob = False
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            return fail(f"{path}: event #{i} is not an object")
        for field in ("pid", "tid", "ph", "name"):
            if field not in ev:
                return fail(f"{path}: event #{i} has no '{field}'")
        ph = ev["ph"]
        if ph not in ("X", "i", "M"):
            return fail(f"{path}: event #{i} has unexpected phase {ph!r}")
        if "oob" in ev["name"]:
            saw_oob = True
        if ph != "X":
            continue
        if "ts" not in ev or "dur" not in ev:
            return fail(f"{path}: span #{i} ({ev['name']!r}) lacks ts/dur")
        ns_args = ev.get("args", {})
        if "ns" not in ns_args or "dur_ns" not in ns_args:
            return fail(f"{path}: span #{i} ({ev['name']!r}) lacks the "
                        "exact-ns args mirror")
        start, dur = ns_args["ns"], ns_args["dur_ns"]
        if not isinstance(start, int) or not isinstance(dur, int) or dur < 0:
            return fail(f"{path}: span #{i} ({ev['name']!r}) has non-integer "
                        "or negative ns/dur_ns")
        # ts/dur are the same instants rendered in microseconds; they must
        # agree with the exact mirror to the exporter's 3-decimal precision.
        if abs(float(ev["ts"]) * 1000.0 - start) > 1.0:
            return fail(f"{path}: span #{i} ({ev['name']!r}) ts {ev['ts']} "
                        f"disagrees with args.ns {start}")
        spans.setdefault((ev["pid"], ev["tid"]), []).append(
            (start, start + dur, ev["name"]))

    total_spans = 0
    for (pid, tid), track in spans.items():
        total_spans += len(track)
        last_end, last_name = -1, ""
        for start, end, name in sorted(track):
            if start < last_end:
                return fail(
                    f"{path}: track pid={pid} tid={tid}: span {name!r} "
                    f"starting at {start} ns overlaps {last_name!r} ending "
                    f"at {last_end} ns")
            last_end, last_name = end, name

    if expect_oob and not saw_oob:
        return fail(f"{path}: --expect-oob but no out-of-band stage event "
                    "is present")

    print(f"{path}: ok — {len(events)} events, {total_spans} spans on "
          f"{len(spans)} tracks" + (", oob present" if saw_oob else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
