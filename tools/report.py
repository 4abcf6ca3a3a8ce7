#!/usr/bin/env python3
"""Render the simulator's JSON documents as text.

  telemetry  telemetry-v1 (shieldctl stat): counters and timeline
             sparklines; --diff A B lists the series that moved between runs
  blame      attribution-v1 / attribution-rollup-v1 (shieldctl blame, a
             campaign's merged.json): top causes per miss band, and each worst
             sample's decomposition (§6.2)

telemetry and blame also take run reports and `shieldctl run --json` arrays,
rendering every entry that carries a document. Input that cannot be rendered
exits 1 with one diagnostic naming the file, never a traceback. Stdlib only.

Usage:
  tools/report.py telemetry DOC.json [DOC.json ...] [--top N]
  tools/report.py telemetry --diff A.json B.json [--top N]
  tools/report.py blame DOC.json [DOC.json ...] [--top N]
"""

import contextlib
import io
import json
import os
import sys


class ReportError(Exception):
    """Input (exit 1) or a command line (exit 2) that cannot be rendered."""

    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def load_json(path):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise ReportError(f"{path}: cannot read: {e.strerror}")
    if not text.strip():
        raise ReportError(f"{path}: file is empty — the run wrote no output")
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ReportError(f"{path}: not valid JSON ({e})")


@contextlib.contextmanager
def shape_checked(path, kind):
    """Report valid JSON of the wrong shape as one named diagnostic."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as e:
        cause = f"missing field {e}" if isinstance(e, KeyError) else str(e)
        raise ReportError(
            f"{path}: malformed {kind} document ({cause})") from None


def fmt_ns(ns):
    """Render nanoseconds with an adaptive unit, matching format_duration."""
    ns = int(ns)
    if ns < 10_000:
        return f"{ns} ns"
    if ns < 10_000_000:
        return f"{ns / 1e3:.1f} us"
    if ns < 10_000_000_000:
        return f"{ns / 1e6:.3f} ms"
    return f"{ns / 1e9:.3f} s"


def print_more(rows, top, indent="  "):
    if top and len(rows) > top:
        print(f"{indent}... {len(rows) - top} more (raise --top)")


# ---- telemetry --------------------------------------------------------------
SPARK = "▁▂▃▄▅▆▇█"


def find_telemetry(obj):
    """Every telemetry-v* document in one object, whatever its version."""
    schema = obj.get("schema")
    if isinstance(schema, str) and schema.startswith("telemetry-v"):
        return [("", obj)]
    if isinstance(obj.get("telemetry"), dict):
        return [("", obj["telemetry"])]
    result = obj.get("result")
    if isinstance(result, dict) and isinstance(result.get("telemetry"), dict):
        return [(obj.get("spec", {}).get("name", ""), result["telemetry"])]
    return []


def sparkline(values, width=32):
    """Downsample per-tick deltas into a fixed-width unicode sparkline."""
    if not values:
        return ""
    if len(values) > width:
        chunk = len(values) / width
        values = [
            sum(values[int(i * chunk):max(int(i * chunk) + 1,
                                          int((i + 1) * chunk))])
            for i in range(width)
        ]
    peak = max(values)
    if peak == 0:
        return SPARK[0] * len(values)
    return "".join(SPARK[min(len(SPARK) - 1,
                             int(v * len(SPARK) / (peak + 1)))]
                   for v in values)


def print_telemetry(name, doc, top):
    if name:
        print(f"== {name} ==")
    counters = doc.get("counters", {})
    nonzero = sorted(((v, k) for k, v in counters.items() if v),
                     reverse=True)
    print(f"{len(counters)} series, {len(nonzero)} non-zero")
    for value, series in nonzero[:top or None]:
        print(f"  {series:<44} {value:>14}")
    print_more(nonzero, top)

    timeline = doc.get("timeline")
    if not isinstance(timeline, dict):
        return
    series = timeline.get("series", [])
    ticks = timeline.get("points", [])
    activity = {}  # series name -> per-tick deltas
    for t, point in enumerate(ticks):
        for index, delta in point.get("d", []):
            if index >= len(series):
                continue  # series registered after the name list was taken
            activity.setdefault(series[index], [0] * len(ticks))[t] = delta
    print(f"\ntimeline: {len(ticks)} points every "
          f"{timeline.get('period_ns', 0)} ns")
    busiest = sorted(activity.items(), key=lambda kv: -sum(kv[1]))
    for label, deltas in busiest[:top or None]:
        total = sum(deltas)
        if total:
            print(f"  {label:<44} {total:>14}  {sparkline(deltas)}")


def diff_side(path):
    """The schema and counters of the one telemetry document in `path`."""
    with shape_checked(path, "telemetry"):
        docs = collect(load_json(path), path, "telemetry")
        if len(docs) != 1:
            raise ReportError(f"{path}: --diff needs exactly one telemetry "
                              "document per file")
        doc = docs[0][1]
        counters = doc.get("counters", {})
        if not all(isinstance(v, int) for v in counters.values()):
            raise TypeError("a counter is not an integer")
        return doc.get("schema", "telemetry-v1"), counters


def print_diff(path_a, path_b, top):
    schema_a, a = diff_side(path_a)
    schema_b, b = diff_side(path_b)
    if schema_a != schema_b:
        # Cross-version counter sets are not comparable; a silent diff would
        # read as "these series changed" when really the schema did.
        raise ReportError(
            f"schema mismatch: {path_a} is '{schema_a}' but {path_b} is "
            f"'{schema_b}'; refusing to diff across schema versions")
    union = set(a) | set(b)
    # Largest absolute change first; series names are unique, so the sort
    # never compares the values behind them.
    rows = sorted(((abs((b.get(k) or 0) - (a.get(k) or 0)), k, a.get(k),
                    b.get(k)) for k in union if a.get(k) != b.get(k)),
                  reverse=True)
    print(f"a: {path_a}\nb: {path_b}")
    print(f"{len(rows)} of {len(union)} series differ")
    print(f"  {'series':<44} {'a':>14} {'b':>14} {'delta':>15}")
    for _, series, va, vb in rows[:top or None]:
        # A series present in only one report is structural churn (a metric
        # added or removed between builds), not a value change — label it
        # rather than faking a zero on the missing side.
        if va is None:
            print(f"  {series:<44} {'(absent)':>14} {vb:>14} {'added':>15}")
        elif vb is None:
            print(f"  {series:<44} {va:>14} {'(absent)':>14} {'removed':>15}")
        else:
            print(f"  {series:<44} {va:>14} {vb:>14} {vb - va:>+15}")
    print_more(rows, top)


# ---- blame ------------------------------------------------------------------
ATTRIBUTION_SCHEMAS = ("attribution-v1", "attribution-rollup-v1")


def find_attribution(obj):
    """Every attribution document in one object, with its scenario name: the
    object itself, a campaign's rollup and per-outcome documents, or one
    run's own document."""
    if obj.get("schema") in ATTRIBUTION_SCHEMAS:
        return [("", obj)]
    docs = [("campaign rollup", obj.get("attribution"))] + [
        (o.get("name", ""),
         ((o.get("result") or {}).get("telemetry") or {}).get("attribution"))
        for o in obj.get("outcomes", []) if isinstance(o, dict)]
    docs = [(name, doc) for name, doc in docs if isinstance(doc, dict)]
    if docs:
        return docs
    telem = obj.get("telemetry") or (obj.get("result") or {}).get(
        "telemetry") or {}
    if isinstance(telem, dict) and isinstance(telem.get("attribution"), dict):
        name = obj.get("spec", {}).get("name", "") or obj.get("name", "")
        return [(name, telem["attribution"])]
    return []


def print_causes(causes, top, indent="  "):
    rows = sorted(causes.items(), key=lambda kv: (-kv[1].get("ns", 0), kv[0]))
    total = sum(c.get("ns", 0) for c in causes.values())
    for key, cause in rows[:top or None]:
        ns = cause.get("ns", 0)
        pct = 100.0 * ns / total if total else 0.0
        print(f"{indent}{key:<36} {fmt_ns(ns):>12}  {pct:5.1f}%  "
              f"(x{cause.get('count', 0)})")
    print_more(rows, top, indent)


def print_blame(name, doc, top):
    if name:
        print(f"== {name} ==")
    seen = doc.get("samples_seen", 0)
    attributed = doc.get("samples_attributed", 0)
    scenarios = doc.get("scenarios")
    scope = f" across {scenarios} scenarios" if scenarios else ""
    print(f"{attributed} of {seen} samples attributed{scope}")
    for band in doc.get("bands", []):
        n = band.get("samples", 0)
        print(f"\nband {band.get('band', '?')} — {n} "
              f"sample{'' if n == 1 else 's'}")
        print_causes(band.get("causes", {}), top)
    for sample in doc.get("worst", []):
        total = sample.get("total_ns", 0)
        print(f"\nworst: {sample.get('origin', '?')} — {fmt_ns(total)} "
              f"at t={sample.get('start_ns', 0)} ns")
        print_causes(sample.get("causes", {}), top, indent="    ")
        accounted = sum(c.get("ns", 0)
                        for c in sample.get("causes", {}).values())
        if accounted != total:
            # The chain-partition invariant: every worst sample's causes sum
            # exactly to its total. A mismatch means a corrupted document.
            print(f"    WARNING: causes sum to {fmt_ns(accounted)}, "
                  f"not {fmt_ns(total)}")


# ---- driver -----------------------------------------------------------------
# subcommand -> (document kind, finder, renderer, default --top, where that
# document comes from)
COMMANDS = {
    "telemetry": ("telemetry", find_telemetry, print_telemetry, 25,
                  "`shieldctl stat` or `shieldctl run --telemetry`"),
    "blame": ("attribution", find_attribution, print_blame, 10,
              "`shieldctl blame` or a campaign with telemetry.blame"),
}


def collect(obj, path, command):
    """The named documents in one decoded file: the file's object itself, or
    every object of an array, searched by the subcommand's finder."""
    kind, find, _, _, source = COMMANDS[command]
    entries = obj if isinstance(obj, list) else [obj]
    docs = [d for e in entries if isinstance(e, dict) for d in find(e)]
    if not docs:
        raise ReportError(
            f"{path}: no {kind} document found — expected {source} output")
    return docs


def parse_top(args, default):
    if "--top" not in args:
        return default
    i = args.index("--top")
    del args[i]
    try:
        return int(args.pop(i))
    except (IndexError, ValueError):
        raise ReportError("--top needs an integer", 2)


def render(command, args):
    kind, _, print_doc, default_top, _ = COMMANDS[command]
    top = parse_top(args, default_top)
    if command == "telemetry" and args and args[0] == "--diff":
        if len(args) != 3:
            raise ReportError("--diff needs exactly two files", 2)
        print_diff(args[1], args[2], top)
        return
    if not args:
        raise ReportError(f"{command} needs at least one file", 2)
    for i, path in enumerate(args):
        obj = load_json(path)
        # Render one file at a time, so a malformed file emits nothing.
        out = io.StringIO()
        with shape_checked(path, kind), contextlib.redirect_stdout(out):
            if i:
                print()
            docs = collect(obj, path, command)
            for j, (name, doc) in enumerate(docs):
                if j:
                    print()
                print_doc(name if len(docs) > 1 else name or path, doc, top)
        sys.stdout.write(out.getvalue())


def main(argv):
    if (len(argv) < 2 or argv[1] not in COMMANDS
            or {"-h", "--help"} & set(argv)):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        render(argv[1], argv[2:])
        return 0
    except ReportError as e:
        print(f"report: {e}", file=sys.stderr)
        return e.code
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
