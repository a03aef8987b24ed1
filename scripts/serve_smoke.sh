#!/usr/bin/env bash
# Smoke-test the cedarserved job service end to end, race-instrumented:
# submit → poll → result byte-identical to a local run → warm resubmit
# hits the cache → cancel a running job → SIGTERM drains, persists the
# pending queue, and a restarted daemon resumes it.
#
# Run from the repo root: scripts/serve_smoke.sh
set -euo pipefail

workdir=$(mktemp -d)
srv_pid=""
cleanup() {
  [ -n "$srv_pid" ] && kill "$srv_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

addr=127.0.0.1:18344
url=http://$addr

# wait_state <job-id> <state> polls the job until it reaches the state
# (failing fast if it lands on a different terminal state).
wait_state() {
  local id=$1 want=$2 st=""
  for _ in $(seq 300); do
    st=$(curl -fsS "$url/jobs/$id" | grep -m1 '"state":' | cut -d'"' -f4)
    if [ "$st" = "$want" ]; then return 0; fi
    case "$st" in done|failed|canceled)
      echo "job $id reached terminal state $st, want $want" >&2
      curl -fsS "$url/jobs/$id" >&2 || true
      return 1;;
    esac
    sleep 0.2
  done
  echo "job $id stuck in state $st, want $want" >&2
  return 1
}

# job_id extracts the id from a submit response.
job_id() { grep -m1 '"id":' | cut -d'"' -f4; }

echo "== build (race detector)"
go build -race -o "$workdir/cedarserved" ./cmd/cedarserved
go build -race -o "$workdir/cedarsim" ./cmd/cedarsim

echo "== start daemon (1 worker, short drain timeout)"
"$workdir/cedarserved" -addr "$addr" -workers 1 -drain-timeout 3s \
  -cache-dir "$workdir/cache" -state-dir "$workdir/state" \
  2>"$workdir/served.log" &
srv_pid=$!
for _ in $(seq 50); do
  curl -fsS "$url/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fsS "$url/healthz" >/dev/null

echo "== local reference run (cedarsim -statfx)"
"$workdir/cedarsim" -statfx 'app=FLO52 config=8proc steps=2 plan=' >"$workdir/local.txt"

echo "== cold submit through cedarsim -server; result must be byte-identical"
"$workdir/cedarsim" -server "$url" 'app=FLO52 config=8proc steps=2 plan=' >"$workdir/cold.txt" 2>/dev/null
cmp "$workdir/local.txt" "$workdir/cold.txt"

echo "== warm resubmit must complete at submit time from the cache"
warm=$(curl -fsS -d '{"type":"simulate","app":"FLO52","config":"8proc","steps":2}' "$url/jobs")
echo "$warm" | grep -q '"cache_hit": true' || {
  echo "warm resubmit missed the cache: $warm" >&2; exit 1; }
warm_id=$(echo "$warm" | job_id)
curl -fsS "$url/jobs/$warm_id/result" >"$workdir/warm.txt"
cmp "$workdir/local.txt" "$workdir/warm.txt"

echo "== cancel a running job"
long='{"type":"simulate","app":"ADM","config":"32proc","steps":2000,"no_cache":true}'
cancel_id=$(curl -fsS -d "$long" "$url/jobs" | job_id)
wait_state "$cancel_id" running
curl -fsS -X POST "$url/jobs/$cancel_id/cancel" >/dev/null
wait_state "$cancel_id" canceled

echo "== SIGTERM mid-job drains, persists the pending queue, exits 0"
running_id=$(curl -fsS -d "$long" "$url/jobs" | job_id)
wait_state "$running_id" running
pending_id=$(curl -fsS -d '{"type":"simulate","app":"FLO52","config":"8proc","steps":3}' "$url/jobs" | job_id)
kill -TERM "$srv_pid"
wait "$srv_pid"
srv_pid=""
grep -q "drained cleanly" "$workdir/served.log"
grep -q "\"$pending_id\"" "$workdir/state/queue.json" || {
  echo "pending job $pending_id not in persisted queue:" >&2
  cat "$workdir/state/queue.json" >&2; exit 1; }

echo "== restart resumes the persisted job to completion"
"$workdir/cedarserved" -addr "$addr" -workers 1 -drain-timeout 3s \
  -cache-dir "$workdir/cache" -state-dir "$workdir/state" \
  2>>"$workdir/served.log" &
srv_pid=$!
for _ in $(seq 50); do
  curl -fsS "$url/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
wait_state "$pending_id" done
"$workdir/cedarsim" -statfx 'app=FLO52 config=8proc steps=3 plan=' >"$workdir/local3.txt"
curl -fsS "$url/jobs/$pending_id/result" >"$workdir/resumed.txt"
cmp "$workdir/local3.txt" "$workdir/resumed.txt"

echo "== metrics endpoint reports service counters"
curl -fsS "$url/metrics" | grep -q 'cedar_serve_jobs_submitted_total'

kill -TERM "$srv_pid"
wait "$srv_pid"
srv_pid=""
echo "== serve smoke passed"
