#!/usr/bin/env bash
# Tier-1 verify flow, two builds: the plain build + tests + the
# benchmark's own unit tests + end-to-end CLI smokes (registry, telemetry,
# reporters, trace export, blame, campaigns and their resume, chaos and
# hostile-store gates), then the same tests under ASan+UBSan so the
# calendar's heap sifts and slot reuse, and the worker processes, stay
# sanitizer-clean.
# Nothing starts a thread (worker processes are the only parallelism), so
# there is no ThreadSanitizer build.
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

# Whole-registry smoke: every built-in scenario on worker lanes at 1%
# scale. Exits nonzero when any scenario misses its sample target, so
# registry rot (bad spec, broken preset token) fails verify even though no
# unit test names that scenario. One answer per
# (spec, seed): --no-prefix is accepted and ignored, so the registry prints
# the same bytes with and without it.
tmpdir="$(mktemp -d)"
trap 'rm -rf "${tmpdir}"' EXIT
./build/tools/shieldctl run --all --smoke --jobs "${jobs}" --json \
  > "${tmpdir}/all-default.out"
./build/tools/shieldctl run --all --smoke --jobs "${jobs}" --json --no-prefix \
  > "${tmpdir}/all-no-prefix.out"
cmp "${tmpdir}/all-default.out" "${tmpdir}/all-no-prefix.out"

# Telemetry smoke: a fault scenario with the sampler forced on must yield a
# Prometheus exposition that parses line-by-line and a timeline with points,
# and a forced watchdog timeout must leave a flight-recorder dump in the
# degraded-run report.
./build/tools/shieldctl stat faults-storm-shielded --smoke --prom \
  > "${tmpdir}/telemetry.prom"
./build/tools/shieldctl stat faults-storm-shielded --smoke \
  > "${tmpdir}/telemetry.json"
./build/tools/shieldctl run faults-storm-shielded --smoke --max-events 20000 \
  --report "${tmpdir}/timeout-report.json" > /dev/null 2>&1 && {
    echo "verify: watchdogged run unexpectedly exited 0"; exit 1; } || true
python3 - "${tmpdir}" <<'EOF'
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
assert report["schema"] == "degraded-run-report-v2", report
assert report["timed_out"] == 1, report
dump = report["outcomes"][0]["flight_recording"]
assert dump["schema"] == "flight-recorder-v1", dump
assert dump["events"], "flight dump has no events"
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
oob_faults ./build/tools/shieldctl "${tmpdir}/oob-report.json"

python3 tools/report.py telemetry "${tmpdir}/telemetry.json" > /dev/null

# Reporter failure-path goldens: every subcommand of tools/report.py must
# reject empty input, corrupt JSON and valid JSON of the wrong shape with a
# named diagnostic (exit 1, never a traceback), as must the trace
# validator, and the telemetry differ must refuse to compare across schema
# versions while labelling series present in only one report as
# added/removed.
: > "${tmpdir}/empty.json"
printf '{"truncated' > "${tmpdir}/corrupt.json"
printf '{"schema":"telemetry-v1","counters":{},"timeline":%s}' \
  '{"series":["a"],"points":[{"d":[[0]]}]}' > "${tmpdir}/shape-telemetry.json"
printf '{"schema":"attribution-v1","bands":[{"band":"x","causes":{"a":5}}]}' \
  > "${tmpdir}/shape-blame.json"
printf '{"traceEvents":[],"otherData":[1]}' > "${tmpdir}/shape-trace.json"
rejects() {  # rejects PATTERN COMMAND...: exit 1 with PATTERN, no traceback
  local pattern="$1" rc=0; shift
  "$@" > /dev/null 2> "${tmpdir}/reporter-err.txt" || rc=$?
  if [ "${rc}" -ne 1 ] || grep -q "Traceback" "${tmpdir}/reporter-err.txt" ||
      ! grep -q "${pattern}" "${tmpdir}/reporter-err.txt"; then
    echo "verify: exit ${rc}, want 1 with '${pattern}': $*"
    cat "${tmpdir}/reporter-err.txt"; exit 1
  fi
}
for sub in telemetry blame; do
  rejects "empty" python3 tools/report.py "${sub}" "${tmpdir}/empty.json"
  rejects "not valid JSON" python3 tools/report.py "${sub}" \
    "${tmpdir}/corrupt.json"
  rejects "malformed" python3 tools/report.py "${sub}" \
    "${tmpdir}/shape-${sub}.json"
done
rejects "malformed" python3 tools/trace_validate.py \
  "${tmpdir}/shape-trace.json"
printf '{"schema":"telemetry-v2","counters":{"a":1}}' \
  > "${tmpdir}/telemetry-v2.json"
rejects "schema mismatch" python3 tools/report.py telemetry --diff \
  "${tmpdir}/telemetry.json" "${tmpdir}/telemetry-v2.json"
python3 - "${tmpdir}" <<'EOF'
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
  --out "${tmpdir}/trace-fig6.json" 2> /dev/null
python3 tools/trace_validate.py "${tmpdir}/trace-fig6.json"
for spec in mech-rtc-oob mech-rcim-oob mech-cyclic-oob mech-storm-oob \
    mech-smi-oob; do
  ./build/tools/shieldctl trace "${spec}" --smoke \
    --out "${tmpdir}/trace-${spec}.json" 2> /dev/null
  python3 tools/trace_validate.py "${tmpdir}/trace-${spec}.json" --expect-oob
done

# stat, trace and blame each take only their own options: one meant for
# another of them exits 2 with the usage instead of being ignored. So does
# --workers, gone with the thread pool (--jobs N counts worker processes),
# and a numeric value that is not wholly a number of the option's kind;
# each exits at parse time and starts nothing, benches included.
rejects_option() {  # rejects_option ARGS...: shieldctl ARGS exits 2
  local rc=0
  ./build/tools/shieldctl "$@" > /dev/null 2>&1 || rc=$?
  if [ "${rc}" -ne 2 ]; then
    echo "verify: shieldctl $* exited ${rc}, want 2"; exit 1
  fi
}
rejects_option blame fig2 --smoke --out "${tmpdir}/x.json"
rejects_option trace fig2 --smoke --worst 1 --threshold 5 \
  --out "${tmpdir}/t.json"
rejects_option stat fig2 --smoke --out "${tmpdir}/y.json"
test ! -e "${tmpdir}/x.json" && test ! -e "${tmpdir}/t.json" &&
  test ! -e "${tmpdir}/y.json"
rejects_option run fig2 --smoke --workers 2
rejects_option run fig2 --smoke --seed abc
rejects_option run fig2 --scale 1x
rejects_option run fig2 --smoke --jobs -1
rejects_option blame fig2 --smoke --worst abc
rejects_option demo --seconds abc
bench_rc=0
./build/bench/fig7_rcim_response --seed abc > /dev/null 2>&1 || bench_rc=$?
test "${bench_rc}" -eq 2

# Blame: the storm scenario's attribution document must fully partition
# every worst sample (cause nanoseconds sum exactly to the sample total)
# and its bands must account for every attributed sample; the renderer must
# accept the document blame prints.
./build/tools/shieldctl blame faults-storm-unshielded --smoke \
  > "${tmpdir}/blame.json"
python3 - "${tmpdir}/blame.json" <<'EOF'
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
python3 tools/report.py blame "${tmpdir}/blame.json" > /dev/null

# Blame explains the reported run: blame runs at the seed `run` gives the
# spec, so its attribution covers exactly the samples that `run` banks, and
# its worst sample is that run's worst wake latency (realfeel's secondary
# view: device raise to the reader's return).
./build/tools/shieldctl blame fig6 --smoke > "${tmpdir}/blame-fig6.json"
./build/tools/shieldctl run fig6 --smoke --json > "${tmpdir}/run-fig6.json"
python3 - "${tmpdir}/blame-fig6.json" "${tmpdir}/run-fig6.json" <<'EOF'
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
  --report "${tmpdir}/fdump-full.json" > /dev/null
./build/tools/shieldctl run fig6 --smoke --flight-dump worst \
  --report "${tmpdir}/fdump-worst.json" > /dev/null
python3 - "${tmpdir}" <<'EOF'
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
  > "${tmpdir}/storm-spec.txt"
python3 - "${tmpdir}" <<'EOF'
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
rm -rf "${tmpdir}/camp-blame"
./build/tools/shieldctl run --spec-json "${tmpdir}/blame-spec-a.json" \
  --spec-json "${tmpdir}/blame-spec-b.json" --smoke \
  --journal "${tmpdir}/camp-blame" > /dev/null
python3 - "${tmpdir}/camp-blame/merged.json" <<'EOF'
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
python3 tools/report.py blame "${tmpdir}/camp-blame/merged.json" > /dev/null

# ...and the rollup is derived purely from outcomes, so a SIGKILLed and
# resumed blame campaign merges byte-identically to the uninterrupted one.
rm -rf "${tmpdir}/camp-blame-kill"
./build/tools/shieldctl run --spec-json "${tmpdir}/blame-spec-a.json" \
  --spec-json "${tmpdir}/blame-spec-b.json" --smoke \
  --journal "${tmpdir}/camp-blame-kill" > /dev/null 2>&1 &
blame_campaign_pid=$!
sleep 0.1
kill -9 "${blame_campaign_pid}" 2>/dev/null || true
wait "${blame_campaign_pid}" 2>/dev/null || true
./build/tools/shieldctl run --spec-json "${tmpdir}/blame-spec-a.json" \
  --spec-json "${tmpdir}/blame-spec-b.json" --smoke \
  --journal "${tmpdir}/camp-blame-kill" > /dev/null
cmp "${tmpdir}/camp-blame-kill/merged.json" \
  "${tmpdir}/camp-blame/merged.json"

cmake --preset asan
cmake --build --preset asan -j "${jobs}"
ctest --preset asan

# The oob faults family again under ASan+UBSan: the stage's context
# interpreter, captured-timer rearming and stall charging all run off the
# kernel's usual paths, so they get their own sanitizer pass.
oob_faults ./build-asan/tools/shieldctl "${tmpdir}/oob-asan-report.json"

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
python3 - > "${tmpdir}/incomplete-spec.json" <<'EOF'
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
if ./build/tools/shieldctl run --spec-json "${tmpdir}/incomplete-spec.json" \
    --report "${tmpdir}/incomplete-report.json" > /dev/null 2>&1; then
  echo "verify: incomplete run unexpectedly exited 0"; exit 1
fi
python3 - "${tmpdir}/incomplete-report.json" <<'EOF'
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
  rm -rf "${tmpdir}/mixed-before"
  cp -r "${dir}" "${tmpdir}/mixed-before"
  ./build/tools/shieldctl run fig2 fig3 --smoke --journal "${dir}" "$@" \
    > /dev/null 2> "${tmpdir}/mixed-err.txt" || rc=$?
  if [ "${rc}" -ne 2 ]; then
    echo "verify: mixed resume of ${dir} with '$*' exited ${rc}, want 2"
    exit 1
  fi
  diff -r "${dir}" "${tmpdir}/mixed-before"
}
rm -rf "${tmpdir}/camp-plain" "${tmpdir}/camp-resumed" \
  "${tmpdir}/camp-dump"
./build/tools/shieldctl run fig2 fig3 --smoke \
  --journal "${tmpdir}/camp-plain" > /dev/null
cp -r "${tmpdir}/camp-plain" "${tmpdir}/camp-resumed"
last_done="$(grep -n '"event":"done"' "${tmpdir}/camp-resumed/journal.jsonl" |
  tail -1 | cut -d: -f1)"
sed -i "${last_done}d" "${tmpdir}/camp-resumed/journal.jsonl"
./build/tools/shieldctl run fig2 fig3 --smoke --no-prefix \
  --journal "${tmpdir}/camp-resumed" > /dev/null
cmp "${tmpdir}/camp-resumed/merged.json" "${tmpdir}/camp-plain/merged.json"
./build/tools/shieldctl run fig2 fig3 --smoke --flight-dump full \
  --journal "${tmpdir}/camp-dump" > /dev/null
mixed_resume "${tmpdir}/camp-dump"

# ...and a journal whose campaign record is gone cannot say which kind of
# campaign its done records came from, so a resume must refuse it too.
rm -rf "${tmpdir}/camp-headless"
./build/tools/shieldctl run fig2 fig3 --smoke --no-prefix \
  --journal "${tmpdir}/camp-headless" > /dev/null
sed -i 1d "${tmpdir}/camp-headless/journal.jsonl"
mixed_resume "${tmpdir}/camp-headless"

# ...and so must a journal sealed under the older campaign-journal-v1
# format (the checksum covers the record, not the format tag), naming that
# format rather than blaming torn writes, so one file never mixes formats.
rm -rf "${tmpdir}/camp-v1"
cp -r "${tmpdir}/camp-plain" "${tmpdir}/camp-v1"
sed -i 's/"format":"campaign-journal-v2"/"format":"campaign-journal-v1"/' \
  "${tmpdir}/camp-v1/journal.jsonl"
mixed_resume "${tmpdir}/camp-v1"
grep -q "campaign-journal-v1" "${tmpdir}/mixed-err.txt"

# Write-ahead journal, resumability and the chaos gate. Baseline: one
# uninterrupted campaign over the whole registry on two worker lanes.
rm -rf "${tmpdir}/camp-base" "${tmpdir}/camp-kill" "${tmpdir}/camp-wkill"
./build/tools/shieldctl run --all --smoke --jobs 2 \
  --journal "${tmpdir}/camp-base" > /dev/null
test -s "${tmpdir}/camp-base/merged.json"

# Chaos 1: SIGKILL the supervisor itself mid-campaign, then resume. The
# journal must survive the ungraceful death (torn tail line at worst) and
# the resumed campaign's merged output must be byte-identical to the
# uninterrupted baseline's.
./build/tools/shieldctl run --all --smoke --jobs 2 \
  --journal "${tmpdir}/camp-kill" > /dev/null 2>&1 &
campaign_pid=$!
sleep 0.3
kill -9 "${campaign_pid}" 2>/dev/null || true
wait "${campaign_pid}" 2>/dev/null || true
./build/tools/shieldctl run --all --smoke --jobs 2 \
  --journal "${tmpdir}/camp-kill" > /dev/null
cmp "${tmpdir}/camp-kill/merged.json" "${tmpdir}/camp-base/merged.json"

# Chaos 2: SIGKILL a *worker* mid-campaign while the supervisor lives. The
# supervisor must detect the death, respawn, re-queue the in-flight spec
# and finish with exit 0 — and the merged output is again byte-identical.
./build/tools/shieldctl run --all --smoke --jobs 2 \
  --journal "${tmpdir}/camp-wkill" > /dev/null 2>&1 &
campaign_pid=$!
for _ in 1 2 3 4 5; do
  worker_pid="$(ps -o pid= --ppid "${campaign_pid}" 2>/dev/null | head -1 | tr -d ' ')"
  [ -n "${worker_pid}" ] && break
  sleep 0.1
done
[ -n "${worker_pid:-}" ] && kill -9 "${worker_pid}" 2>/dev/null || true
wait "${campaign_pid}"
cmp "${tmpdir}/camp-wkill/merged.json" "${tmpdir}/camp-base/merged.json"

# Chaos 3: a spec whose worker deliberately crashes (tests/data fixture).
# With respawns allowed the campaign completes ok and the report attributes
# the crash; with respawns forbidden the spec is quarantined as crashed,
# with signal-level taxonomy, and the run exits nonzero. Two lanes over the
# one spec still get one isolated worker.
./build/tools/shieldctl run --spec-json tests/data/chaos_host_crash.json \
  --jobs 2 --report "${tmpdir}/chaos-ok-report.json" > /dev/null 2>&1
python3 - "${tmpdir}/chaos-ok-report.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["ok"] == report["total"] == 1, report
sup = report["supervisor"]
assert sup["worker_crashes"] >= 1 and sup["respawns"] >= 1, sup
assert any(i.get("type") == "host-fault" for i in sup["incidents"]), sup
EOF
if ./build/tools/shieldctl run --spec-json tests/data/chaos_host_crash.json \
    --jobs 2 --max-respawns 0 \
    --report "${tmpdir}/chaos-quarantine-report.json" > /dev/null 2>&1; then
  echo "verify: quarantined campaign unexpectedly exited 0"; exit 1
fi
python3 - "${tmpdir}/chaos-quarantine-report.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["crashed"] == 1, report
out = report["outcomes"][0]
assert out["status"] == "crashed", out
assert out["execution"]["cause"] == "signal", out
assert out["execution"]["signal"] == 11, out
assert out["execution"]["host_fault"] == "host-crash", out
EOF

# Hostile store: the journal must survive records that pass their checksum
# yet cannot be applied. Finish a journaled campaign, then drop fig7's done
# record, append a sealed record with no name/digest/seed/outcome, and
# re-append fig7's done record sealed around a histogram summary that
# claims one sample but carries none of its moments. The rerun must exit 0,
# report both corrupt lines, recompute fig7 alone and merge byte-identically.
rm -rf "${tmpdir}/camp-hostile"
./build/tools/shieldctl run --all --smoke --jobs "${jobs}" \
  --journal "${tmpdir}/camp-hostile" > /dev/null
cp "${tmpdir}/camp-hostile/merged.json" "${tmpdir}/hostile-baseline.json"
python3 - "${tmpdir}/camp-hostile" <<'EOF'
import json, os, sys
journal_dir = sys.argv[1]

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
victim["outcome"]["result"]["probe"]["primary"]["summary"] = {"n": Raw("1")}
kept.append(compact(seal("campaign-journal-v2", "record", victim)))
open(path, "w").write("\n".join(kept) + "\n")
EOF
./build/tools/shieldctl run --all --smoke --jobs "${jobs}" \
  --journal "${tmpdir}/camp-hostile" \
  --report "${tmpdir}/hostile-report.json" \
  > "${tmpdir}/hostile-out.txt" 2> "${tmpdir}/hostile-err.txt"
grep -q "skipped 2 corrupt lines" "${tmpdir}/hostile-err.txt"
grep -q ", 1 to run" "${tmpdir}/hostile-out.txt"
python3 - "${tmpdir}/hostile-report.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["ok"] == report["total"] > 0, report
EOF
cmp "${tmpdir}/camp-hostile/merged.json" "${tmpdir}/hostile-baseline.json"
