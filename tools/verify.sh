#!/usr/bin/env bash
# Tier-1 verify flow, three builds: the plain build + tests + the
# benchmark's own unit tests + end-to-end CLI smokes (registry, cache
# repair, telemetry, reporters, trace export, blame, campaigns and their
# resume and chaos gates), then the same tests under
# ASan+UBSan so the calendar's slot reuse and the threaded bench
# SweepRunner stay sanitizer-clean, then ThreadSanitizer over the
# concurrency-bearing suites.
# ASan aborts on the first finding (-fno-sanitize-recover=all), so any
# sanitizer hit fails its test and set -e stops the script there.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"

cmake --preset default
cmake --build --preset default -j "${jobs}"
ctest --preset default

# The benchmark's own arithmetic: fastest-round estimator, set-up median,
# host scale, metric names, and BENCHMARK.json against what run.py prints.
python3 perfbench/test_perfbench.py

# Whole-registry smoke: every built-in scenario through the parallel
# ScenarioRunner at 1% scale. Exits nonzero when any scenario misses its
# sample target, so registry rot (bad spec, broken preset token) fails
# verify even though no unit test names that scenario. One answer per
# (spec, seed): --no-prefix is accepted and ignored, so the registry prints
# the same bytes with and without it.
cachedir="$(mktemp -d)"
trap 'rm -rf "${cachedir}"' EXIT
./build/tools/shieldctl run --all --smoke --jobs "${jobs}" --json \
  > "${cachedir}/all-default.out"
./build/tools/shieldctl run --all --smoke --jobs "${jobs}" --json --no-prefix \
  > "${cachedir}/all-no-prefix.out"
cmp "${cachedir}/all-default.out" "${cachedir}/all-no-prefix.out"

# Hardened-execution smoke: populate a disk cache, corrupt a few real
# entries the way a crashed writer or bit rot would, then re-run. The
# runner must quarantine the corrupt files, recompute them, still exit 0,
# and account for the repairs in the degraded-run report.
./build/tools/shieldctl run --all --smoke --jobs "${jobs}" \
  --cache-dir "${cachedir}" > /dev/null
corrupted=0
for f in "${cachedir}"/*.json; do
  if [ "${corrupted}" -lt 3 ]; then
    printf '{"format":"shieldsim-cache-v1","checksum":"tru' > "${f}"
    corrupted=$((corrupted + 1))
  fi
done
./build/tools/shieldctl run --all --smoke --jobs "${jobs}" \
  --cache-dir "${cachedir}" --report "${cachedir}/report.json" > /dev/null
python3 - "${cachedir}/report.json" "${corrupted}" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "degraded-run-report-v1", report
assert report["failed"] == 0 and report["timed_out"] == 0, report
assert report["ok"] == report["total"] > 0, report
assert report["cache_entries_recomputed"] >= int(sys.argv[2]), report
EOF

# Telemetry smoke: a fault scenario with the sampler forced on must yield a
# Prometheus exposition that parses line-by-line and a timeline with points,
# and a forced watchdog timeout must leave a flight-recorder dump in the
# degraded-run report.
./build/tools/shieldctl stat faults-storm-shielded --smoke --prom \
  > "${cachedir}/telemetry.prom"
./build/tools/shieldctl stat faults-storm-shielded --smoke \
  > "${cachedir}/telemetry.json"
./build/tools/shieldctl run faults-storm-shielded --smoke --max-events 20000 \
  --report "${cachedir}/timeout-report.json" > /dev/null 2>&1 && {
    echo "verify: watchdogged run unexpectedly exited 0"; exit 1; } || true
python3 - "${cachedir}" <<'EOF'
import json, os, sys
d = sys.argv[1]
lines = [l for l in open(os.path.join(d, "telemetry.prom"))
         if l.strip() and not l.startswith("#")]
assert lines, "empty prometheus exposition"
for line in lines:
    name, value = line.rsplit(None, 1)
    assert name.startswith("shieldsim_"), line
    int(value)  # every sample parses as an integer
doc = json.load(open(os.path.join(d, "telemetry.json")))
assert doc["schema"] == "telemetry-v1", doc.get("schema")
assert doc["timeline"]["points"], "sampler produced no points"
assert any(doc["counters"].values()), "all counters zero"
report = json.load(open(os.path.join(d, "timeout-report.json")))
assert report["timed_out"] == 1, report
dump = report["outcomes"][0]["flight_recording"]
assert dump["schema"] == "flight-recorder-v1", dump
assert dump["events"], "flight dump has no events"
EOF

# Degradation inside one batch: two specs with the same machine, kernel and
# workloads, with an event budget between their costs, so the first run
# completes and the second hits the watchdog. The timed-out outcome must
# carry its own flight recording.
./build/tools/shieldctl run abl-shield-full faults-storm-shielded --smoke \
  --max-events 100000 --report "${cachedir}/fork-timeout-report.json" \
  > /dev/null 2>&1 && {
    echo "verify: watchdogged batch unexpectedly exited 0"; exit 1; } || true
python3 - "${cachedir}/fork-timeout-report.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "degraded-run-report-v1", report
assert report["timed_out"] == 1 and report["ok"] == 1, report
by_name = {o["name"]: o for o in report["outcomes"]}
assert by_name["abl-shield-full"]["status"] == "ok", by_name
doomed = by_name["faults-storm-shielded"]
assert doomed["status"] == "timed_out", doomed
dump = doomed["flight_recording"]
assert dump["schema"] == "flight-recorder-v1", dump
assert dump["events"], "the timed-out run's flight dump has no events"
EOF
# Out-of-band delivery smoke: the whole faults-* family re-run with the
# oob mechanism forced on through the CLI. The rival mechanism must survive
# every hostile fault plan (storms, SMI stalls, lost/duplicated edges,
# timer drift) end-to-end — all ok, counted under the report's
# per-mechanism breakdown, and the storm plan must not push the oob stage
# anywhere near the shielded in-band kernel's tens of microseconds.
oob_faults() {
  local ctl="$1" out="$2"
  "${ctl}" run faults-storm-shielded faults-storm-unshielded \
    faults-smi-shielded faults-lost-dup-shielded faults-drift-shielded \
    --smoke --jobs "${jobs}" --mechanism oob --json --report "${out}" \
    > "${out%.json}-results.json"
  python3 - "${out}" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["failed"] == 0 and report["timed_out"] == 0, report
mech = report["by_mechanism"]
assert mech["oob"]["ok"] == report["total"] > 0, report
results = json.load(open(sys.argv[1][:-5] + "-results.json"))
for r in results:
    worst = r["result"]["probe"]["primary"]["summary"]["max"]
    assert worst < 10_000, (r["spec"]["name"], worst)
EOF
}
oob_faults ./build/tools/shieldctl "${cachedir}/oob-report.json"

python3 tools/report.py telemetry "${cachedir}/telemetry.json" > /dev/null

# Reporter failure-path goldens: every subcommand of tools/report.py must
# reject empty input, corrupt JSON and valid JSON of the wrong shape with a
# named diagnostic (exit 1, never a traceback), as must the trace
# validator, and the telemetry differ must refuse to compare across schema
# versions while labelling series present in only one report as
# added/removed.
: > "${cachedir}/empty.json"
printf '{"truncated' > "${cachedir}/corrupt.json"
printf '{"schema":"telemetry-v1","counters":{},"timeline":%s}' \
  '{"series":["a"],"points":[{"d":[[0]]}]}' > "${cachedir}/shape-telemetry.json"
printf '{"schema":"attribution-v1","bands":[{"band":"x","causes":{"a":5}}]}' \
  > "${cachedir}/shape-blame.json"
printf '{"traceEvents":[],"otherData":[1]}' > "${cachedir}/shape-trace.json"
rejects() {  # rejects PATTERN COMMAND...: exit 1 with PATTERN, no traceback
  local pattern="$1" rc=0; shift
  "$@" > /dev/null 2> "${cachedir}/reporter-err.txt" || rc=$?
  if [ "${rc}" -ne 1 ] || grep -q "Traceback" "${cachedir}/reporter-err.txt" ||
      ! grep -q "${pattern}" "${cachedir}/reporter-err.txt"; then
    echo "verify: exit ${rc}, want 1 with '${pattern}': $*"
    cat "${cachedir}/reporter-err.txt"; exit 1
  fi
}
for sub in telemetry blame; do
  rejects "empty" python3 tools/report.py "${sub}" "${cachedir}/empty.json"
  rejects "not valid JSON" python3 tools/report.py "${sub}" \
    "${cachedir}/corrupt.json"
  rejects "malformed" python3 tools/report.py "${sub}" \
    "${cachedir}/shape-${sub}.json"
done
rejects "malformed" python3 tools/trace_validate.py \
  "${cachedir}/shape-trace.json"
printf '{"schema":"telemetry-v2","counters":{"a":1}}' \
  > "${cachedir}/telemetry-v2.json"
rejects "schema mismatch" python3 tools/report.py telemetry --diff \
  "${cachedir}/telemetry.json" "${cachedir}/telemetry-v2.json"
python3 - "${cachedir}" <<'EOF'
import json, os, subprocess, sys
d = sys.argv[1]
a = {"schema": "telemetry-v1", "counters": {"shared": 1, "only_a": 5}}
b = {"schema": "telemetry-v1", "counters": {"shared": 2, "only_b": 7}}
json.dump(a, open(os.path.join(d, "diff-a.json"), "w"))
json.dump(b, open(os.path.join(d, "diff-b.json"), "w"))
out = subprocess.run(
    [sys.executable, "tools/report.py", "telemetry", "--diff",
     os.path.join(d, "diff-a.json"), os.path.join(d, "diff-b.json")],
    capture_output=True, text=True, check=True).stdout
assert "added" in out and "removed" in out, out
EOF

# ---- timeline export + blame attribution -------------------------------------

# Trace export: a shielded figure and every mech-* oob spec must produce a
# structurally valid Chrome Trace Event document (monotone, non-overlapping
# per-track spans with an exact-nanosecond args mirror), and the oob runs
# must show their out-of-band stage on the timeline.
./build/tools/shieldctl trace fig6 --smoke \
  --out "${cachedir}/trace-fig6.json" 2> /dev/null
python3 tools/trace_validate.py "${cachedir}/trace-fig6.json"
for spec in mech-rtc-oob mech-rcim-oob mech-cyclic-oob mech-storm-oob \
    mech-smi-oob; do
  ./build/tools/shieldctl trace "${spec}" --smoke \
    --out "${cachedir}/trace-${spec}.json" 2> /dev/null
  python3 tools/trace_validate.py "${cachedir}/trace-${spec}.json" --expect-oob
done

# stat, trace and blame each take only their own options: one meant for
# another of them exits 2 with the usage instead of being ignored.
rejects_option() {  # rejects_option ARGS...: shieldctl ARGS exits 2
  local rc=0
  ./build/tools/shieldctl "$@" > /dev/null 2>&1 || rc=$?
  if [ "${rc}" -ne 2 ]; then
    echo "verify: shieldctl $* exited ${rc}, want 2"; exit 1
  fi
}
rejects_option blame fig2 --smoke --out "${cachedir}/x.json"
rejects_option trace fig2 --smoke --worst 1 --threshold 5 \
  --out "${cachedir}/t.json"
rejects_option stat fig2 --smoke --out "${cachedir}/y.json"
test ! -e "${cachedir}/x.json" && test ! -e "${cachedir}/t.json" &&
  test ! -e "${cachedir}/y.json"

# Blame: the storm scenario's attribution document must fully partition
# every worst sample (cause nanoseconds sum exactly to the sample total)
# and its bands must account for every attributed sample; the renderer must
# accept the document blame prints.
./build/tools/shieldctl blame faults-storm-unshielded --smoke \
  > "${cachedir}/blame.json"
python3 - "${cachedir}/blame.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "attribution-v1", doc.get("schema")
assert doc["samples_seen"] > 0 and doc["worst"], doc
for sample in doc["worst"]:
    accounted = sum(c["ns"] for c in sample["causes"].values())
    assert accounted == sample["total_ns"], (
        sample["origin"], accounted, sample["total_ns"])
assert sum(b["samples"] for b in doc["bands"]) == doc["samples_attributed"]
EOF
python3 tools/report.py blame "${cachedir}/blame.json" > /dev/null

# Blame explains the reported run: blame runs at the seed `run` gives the
# spec, so its attribution covers exactly the samples that `run` banks, and
# its worst sample is that run's worst wake latency (realfeel's secondary
# view: device raise to the reader's return).
./build/tools/shieldctl blame fig6 --smoke > "${cachedir}/blame-fig6.json"
./build/tools/shieldctl run fig6 --smoke --json > "${cachedir}/run-fig6.json"
python3 - "${cachedir}/blame-fig6.json" "${cachedir}/run-fig6.json" <<'EOF'
import json, sys
blame = json.load(open(sys.argv[1]))
probe = json.load(open(sys.argv[2]))[0]["result"]["probe"]
assert blame["samples_seen"] == probe["collected"], (
    blame["samples_seen"], probe["collected"])
worst = blame["worst"][0]["total_ns"]
assert worst == probe["secondary"]["summary"]["max"], (
    worst, probe["secondary"]["summary"]["max"])
EOF

# Flight dumps on success: --flight-dump attaches a flight-recorder-v1 ring
# to *successful* outcomes, in both full-ring and worst-sample-window
# trigger modes.
./build/tools/shieldctl run fig6 --smoke --flight-dump full \
  --report "${cachedir}/fdump-full.json" > /dev/null
./build/tools/shieldctl run fig6 --smoke --flight-dump worst \
  --report "${cachedir}/fdump-worst.json" > /dev/null
python3 - "${cachedir}" <<'EOF'
import json, os, sys
d = sys.argv[1]
for mode in ("full", "worst"):
    report = json.load(open(os.path.join(d, f"fdump-{mode}.json")))
    out = report["outcomes"][0]
    assert out["status"] == "ok", out["status"]
    dump = out["flight_recording"]
    assert dump["schema"] == "flight-recorder-v1", dump
    assert dump["events"], f"{mode}: no events in the success dump"
    assert (dump.get("trigger") == "worst-sample") == (mode == "worst"), mode
EOF

# Campaign blame rollup: a journalled campaign over blame-enabled specs
# must write merged.json with an attribution-rollup-v1 whose per-cause and
# per-band totals equal the sum of the per-scenario documents.
./build/tools/shieldctl describe faults-storm-unshielded \
  > "${cachedir}/storm-spec.txt"
python3 - "${cachedir}" <<'EOF'
import json, os, sys
d = sys.argv[1]
text = open(os.path.join(d, "storm-spec.txt")).read()
spec, _ = json.JSONDecoder().raw_decode(text)
spec["name"] = "verify-blame-a"
spec.setdefault("telemetry", {})["blame"] = True
json.dump(spec, open(os.path.join(d, "blame-spec-a.json"), "w"))
spec["name"] = "verify-blame-b"
spec["telemetry"]["blame_worst"] = 4
json.dump(spec, open(os.path.join(d, "blame-spec-b.json"), "w"))
EOF
rm -rf "${cachedir}/camp-blame"
./build/tools/shieldctl run --spec-json "${cachedir}/blame-spec-a.json" \
  --spec-json "${cachedir}/blame-spec-b.json" --smoke \
  --journal "${cachedir}/camp-blame" > /dev/null
python3 - "${cachedir}/camp-blame/merged.json" <<'EOF'
import json, sys
merged = json.load(open(sys.argv[1]))
roll = merged["attribution"]
assert roll["schema"] == "attribution-rollup-v1", roll.get("schema")
assert roll["scenarios"] == 2, roll
per = [o["result"]["telemetry"]["attribution"] for o in merged["outcomes"]]
for key, total in roll["causes"].items():
    ns = sum(p["causes"].get(key, {}).get("ns", 0) for p in per)
    count = sum(p["causes"].get(key, {}).get("count", 0) for p in per)
    assert total["ns"] == ns and total["count"] == count, key
assert roll["samples_seen"] == sum(p["samples_seen"] for p in per), roll
EOF
python3 tools/report.py blame "${cachedir}/camp-blame/merged.json" > /dev/null

# ...and the rollup is derived purely from outcomes, so a SIGKILLed and
# resumed blame campaign merges byte-identically to the uninterrupted one.
rm -rf "${cachedir}/camp-blame-kill"
./build/tools/shieldctl run --spec-json "${cachedir}/blame-spec-a.json" \
  --spec-json "${cachedir}/blame-spec-b.json" --smoke \
  --journal "${cachedir}/camp-blame-kill" > /dev/null 2>&1 &
blame_campaign_pid=$!
sleep 0.1
kill -9 "${blame_campaign_pid}" 2>/dev/null || true
wait "${blame_campaign_pid}" 2>/dev/null || true
./build/tools/shieldctl run --spec-json "${cachedir}/blame-spec-a.json" \
  --spec-json "${cachedir}/blame-spec-b.json" --smoke \
  --journal "${cachedir}/camp-blame-kill" > /dev/null
cmp "${cachedir}/camp-blame-kill/merged.json" \
  "${cachedir}/camp-blame/merged.json"

cmake --preset asan
cmake --build --preset asan -j "${jobs}"
ctest --preset asan

# The oob faults family again under ASan+UBSan: the stage's context
# interpreter, captured-timer rearming and stall charging all run off the
# kernel's usual paths, so they get their own sanitizer pass.
oob_faults ./build-asan/tools/shieldctl "${cachedir}/oob-asan-report.json"

# Snapshot bit-identity, explicitly, in the hardened build: every builtin
# spec must survive a mid-run capture/restore byte-identically (probe output,
# telemetry registry and timeline, chain-tracer counts), and runs with the
# ignored prefix_reuse option on must stay deterministic and seed-dependent.
# ctest above already covers these; the standalone invocations make the gate
# visible and keep it failing loudly if the suites are ever renamed or
# filtered out of the ctest registration.
./build-asan/tests/shieldsim_tests \
  --gtest_filter='SnapshotBitIdentity.*:PrefixReuse.*' --gtest_brief=1

# ---- crash-isolated campaign execution ---------------------------------------

# Exit-code consistency: `shieldctl run` exits 0 iff the final report has
# zero non-ok outcomes. An under-collecting spec (fixed horizon far below
# the probe's sample budget) must be classified incomplete and fail the
# run, with the count in the report.
python3 - > "${cachedir}/incomplete-spec.json" <<'EOF'
import json
spec = {
    "name": "verify-incomplete",
    "title": "deliberately under-collecting probe",
    "description": "verify: horizon too short for the sample budget",
    "group": "chaos",
    "machine": "dual-p3-933",
    "kernel": "redhawk-1.4",
    "workloads": [{"name": "stress-kernel", "params": {}}],
    "probe": "realfeel",
    "probe_params": {"samples": 20000, "affinity_cpu": 1},
    "shield": {"mode": "dedicate", "cpu": 1},
    "duration": {"factor": 1.5, "margin_ns": 0, "fixed_ns": 50000000},
}
print(json.dumps(spec))
EOF
if ./build/tools/shieldctl run --spec-json "${cachedir}/incomplete-spec.json" \
    --report "${cachedir}/incomplete-report.json" > /dev/null 2>&1; then
  echo "verify: incomplete run unexpectedly exited 0"; exit 1
fi
python3 - "${cachedir}/incomplete-report.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["incomplete"] == 1, report
assert report["outcomes"][0]["status"] == "incomplete", report
EOF

# Resumes across options. --no-prefix changes no run, so resuming a default
# campaign with it adopts the journal and merges to the uninterrupted bytes.
# A --flight-dump campaign's done records carry rings, so a resume in
# another mode must refuse (exit 2) and leave the journal exactly as it was.
mixed_resume() {  # mixed_resume DIR ARGS...: resume DIR with ARGS added
  local dir="$1" rc=0; shift
  rm -rf "${cachedir}/mixed-before"
  cp -r "${dir}" "${cachedir}/mixed-before"
  ./build/tools/shieldctl run fig2 fig3 --smoke --journal "${dir}" "$@" \
    > /dev/null 2>&1 || rc=$?
  if [ "${rc}" -ne 2 ]; then
    echo "verify: mixed resume of ${dir} with '$*' exited ${rc}, want 2"
    exit 1
  fi
  diff -r "${dir}" "${cachedir}/mixed-before"
}
rm -rf "${cachedir}/camp-plain" "${cachedir}/camp-resumed" \
  "${cachedir}/camp-dump"
./build/tools/shieldctl run fig2 fig3 --smoke \
  --journal "${cachedir}/camp-plain" > /dev/null
cp -r "${cachedir}/camp-plain" "${cachedir}/camp-resumed"
last_done="$(grep -n '"event":"done"' "${cachedir}/camp-resumed/journal.jsonl" |
  tail -1 | cut -d: -f1)"
sed -i "${last_done}d" "${cachedir}/camp-resumed/journal.jsonl"
./build/tools/shieldctl run fig2 fig3 --smoke --no-prefix \
  --journal "${cachedir}/camp-resumed" > /dev/null
cmp "${cachedir}/camp-resumed/merged.json" "${cachedir}/camp-plain/merged.json"
./build/tools/shieldctl run fig2 fig3 --smoke --flight-dump full \
  --journal "${cachedir}/camp-dump" > /dev/null
mixed_resume "${cachedir}/camp-dump"

# ...and a journal whose campaign record is gone cannot say which kind of
# campaign its done records came from, so a resume must refuse it too.
rm -rf "${cachedir}/camp-headless"
./build/tools/shieldctl run fig2 fig3 --smoke --no-prefix \
  --journal "${cachedir}/camp-headless" > /dev/null
sed -i 1d "${cachedir}/camp-headless/journal.jsonl"
mixed_resume "${cachedir}/camp-headless"

# Write-ahead journal, resumability and the chaos gate. Baseline: one
# uninterrupted supervised campaign over the whole registry.
rm -rf "${cachedir}/camp-base" "${cachedir}/camp-kill" "${cachedir}/camp-wkill"
./build/tools/shieldctl run --all --smoke --workers 2 \
  --journal "${cachedir}/camp-base" > /dev/null
test -s "${cachedir}/camp-base/merged.json"

# Chaos 1: SIGKILL the supervisor itself mid-campaign, then resume. The
# journal must survive the ungraceful death (torn tail line at worst) and
# the resumed campaign's merged output must be byte-identical to the
# uninterrupted baseline's.
./build/tools/shieldctl run --all --smoke --workers 2 \
  --journal "${cachedir}/camp-kill" > /dev/null 2>&1 &
campaign_pid=$!
sleep 0.3
kill -9 "${campaign_pid}" 2>/dev/null || true
wait "${campaign_pid}" 2>/dev/null || true
./build/tools/shieldctl run --all --smoke --workers 2 \
  --journal "${cachedir}/camp-kill" > /dev/null
cmp "${cachedir}/camp-kill/merged.json" "${cachedir}/camp-base/merged.json"

# Chaos 2: SIGKILL a *worker* mid-campaign while the supervisor lives. The
# supervisor must detect the death, respawn, re-queue the in-flight spec
# and finish with exit 0 — and the merged output is again byte-identical.
./build/tools/shieldctl run --all --smoke --workers 2 \
  --journal "${cachedir}/camp-wkill" > /dev/null 2>&1 &
campaign_pid=$!
for _ in 1 2 3 4 5; do
  worker_pid="$(ps -o pid= --ppid "${campaign_pid}" 2>/dev/null | head -1 | tr -d ' ')"
  [ -n "${worker_pid}" ] && break
  sleep 0.1
done
[ -n "${worker_pid:-}" ] && kill -9 "${worker_pid}" 2>/dev/null || true
wait "${campaign_pid}"
cmp "${cachedir}/camp-wkill/merged.json" "${cachedir}/camp-base/merged.json"

# Chaos 3: a spec whose worker deliberately crashes (tests/data fixture).
# With respawns allowed the campaign completes ok and the report attributes
# the crash; with respawns forbidden the spec is quarantined as crashed,
# with signal-level taxonomy, and the run exits nonzero.
./build/tools/shieldctl run --spec-json tests/data/chaos_host_crash.json \
  --workers 2 --report "${cachedir}/chaos-ok-report.json" > /dev/null 2>&1
python3 - "${cachedir}/chaos-ok-report.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["ok"] == report["total"] == 1, report
sup = report["supervisor"]
assert sup["worker_crashes"] >= 1 and sup["respawns"] >= 1, sup
assert any(i.get("type") == "host-fault" for i in sup["incidents"]), sup
EOF
if ./build/tools/shieldctl run --spec-json tests/data/chaos_host_crash.json \
    --workers 1 --max-respawns 0 \
    --report "${cachedir}/chaos-quarantine-report.json" > /dev/null 2>&1; then
  echo "verify: quarantined campaign unexpectedly exited 0"; exit 1
fi
python3 - "${cachedir}/chaos-quarantine-report.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["crashed"] == 1, report
out = report["outcomes"][0]
assert out["status"] == "crashed", out
assert out["execution"]["cause"] == "signal", out
assert out["execution"]["signal"] == 11, out
assert out["execution"]["host_fault"] == "host-crash", out
EOF

# Hostile stores: both on-disk stores must survive records that pass their
# checksum yet are missing required fields. Finish a journaled campaign that
# also populates a disk cache, then drop fig7's done record (so the rerun
# re-runs fig7 through the cache), append a sealed journal record with no
# name/digest/seed/outcome, and re-seal fig7's cache entry around a
# histogram summary that claims one sample but carries none of its moments.
# The rerun must exit 0, report the corrupt journal line, quarantine and
# recompute the cache entry, and merge byte-identically.
rm -rf "${cachedir}/camp-hostile" "${cachedir}/cache-hostile"
./build/tools/shieldctl run --all --smoke --jobs "${jobs}" \
  --journal "${cachedir}/camp-hostile" --cache-dir "${cachedir}/cache-hostile" \
  > /dev/null
cp "${cachedir}/camp-hostile/merged.json" "${cachedir}/hostile-baseline.json"
python3 - "${cachedir}/camp-hostile" "${cachedir}/cache-hostile" <<'EOF'
import json, os, sys
journal_dir, cache_dir = sys.argv[1], sys.argv[2]

class Raw(str):
    """A number token kept verbatim, so re-sealing matches the C++ writer."""

def compact(v):
    if isinstance(v, Raw):
        return str(v)
    if v is True or v is False:
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, list):
        return "[" + ",".join(compact(x) for x in v) + "]"
    return "{" + ",".join(json.dumps(k) + ":" + compact(x)
                          for k, x in v.items()) + "}"

def seal(fmt, field, payload):
    h = 14695981039346656037  # json::content_digest: FNV-1a over compact form
    for b in compact(payload).encode():
        h = ((h ^ b) * 1099511628211) % (1 << 64)
    return {"format": fmt, "checksum": "%016x" % h, field: payload}

def load(text):
    return json.loads(text, parse_float=Raw, parse_int=Raw)

path = os.path.join(journal_dir, "journal.jsonl")
kept, victim = [], None
for line in open(path).read().splitlines():
    rec = load(line)["record"]
    if rec.get("event") == "done" and rec.get("name") == "fig7":
        victim = rec
        continue
    kept.append(line)
assert victim is not None, "fig7 never finished"
kept.append(compact(seal("campaign-journal-v2", "record", {"event": "start"})))
open(path, "w").write("\n".join(kept) + "\n")

entry = os.path.join(cache_dir, "%s-%s-0.01-es1.json"
                     % (victim["digest"], victim["seed"]))
result = load(open(entry).read())["result"]
result["probe"]["primary"]["summary"] = {"n": Raw("1")}
open(entry, "w").write(compact(seal("shieldsim-cache-v1", "result", result)))
EOF
./build/tools/shieldctl run --all --smoke --jobs "${jobs}" \
  --journal "${cachedir}/camp-hostile" --cache-dir "${cachedir}/cache-hostile" \
  --report "${cachedir}/hostile-report.json" \
  > /dev/null 2> "${cachedir}/hostile-err.txt"
grep -q "skipped 1 corrupt line" "${cachedir}/hostile-err.txt"
python3 - "${cachedir}/hostile-report.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["ok"] == report["total"] > 0, report
assert report["cache_entries_recomputed"] == 1, report
EOF
cmp "${cachedir}/camp-hostile/merged.json" "${cachedir}/hostile-baseline.json"

# ThreadSanitizer pass over the concurrency-bearing layers: the parallel
# runner/sweeper, the journal's locked writers and the supervisor (which
# forks; die_after_fork=0 lets TSan tolerate the multi-threaded parent).
cmake --preset tsan
cmake --build --preset tsan -j "${jobs}"
TSAN_OPTIONS="die_after_fork=0" ./build-tsan/tests/shieldsim_tests \
  --gtest_filter='Supervisor.*:CampaignJournal.*:ScenarioRunner.*:SweepRunner.*' \
  --gtest_brief=1
