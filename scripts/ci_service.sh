#!/usr/bin/env bash
# CI service lane (also runnable locally), in two phases:
#
#   1. Real-process CLI round trip: boot `serve`, submit the same
#      builtin campaign from two tenants over HTTP, then from a third
#      once both are done (fully cached, so `serve` answers it inside
#      the POST), byte-compare all three exports against a direct
#      sweep, prove the shared points executed once service-wide with
#      no 5xx, and require a clean SIGTERM drain (server exit code 0).
#   2. A chaos soak: `service-soak --chaos` boots its own deployment
#      with the aggressive seeded ChaosPolicy and admission control,
#      floods it from three tenants, and exits non-zero unless the
#      store shows zero lost, failed or duplicated jobs, the greedy
#      tenant was throttled while the steady one stayed fast, a probe
#      exported byte-identically to a direct run, service.http.5xx
#      stayed zero and serve drained cleanly.
#
# Crash-resume (kill -9 of workers and server mid-campaign, restart,
# byte-identical export) is tests/test_service_crash.py, in the tier-1
# suite.
#
# Local use: SERVICE_PORT=8281 REPRO="python -m repro.experiments.runner" \
#            bash scripts/ci_service.sh
set -euo pipefail

REPRO=${REPRO:-gs1280-repro}
PORT="${SERVICE_PORT:-8180}"
URL="http://127.0.0.1:${PORT}"
WORK="${SERVICE_WORKDIR:-.service-ci}"
rm -rf "$WORK"
mkdir -p "$WORK"

# --- phase 1: CLI round trip ------------------------------------------
$REPRO serve --db "$WORK/jobs.db" --cache-dir "$WORK/cache" \
  --results-dir "$WORK/results" --port "$PORT" --workers 2 \
  > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!
trap 'kill -9 "$SERVE_PID" 2>/dev/null || true' EXIT

for _ in $(seq 1 100); do
  if curl -fsS "$URL/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.2
done
curl -fsS "$URL/healthz"
echo

# Two tenants submit the same campaign concurrently.
$REPRO submit smoke --url "$URL" --tenant alice --wait \
  --out "$WORK/alice.json" &
ALICE=$!
$REPRO submit smoke --url "$URL" --tenant bob --wait \
  --out "$WORK/bob.json"
wait "$ALICE"

# A third tenant asks again once both are done: every point is cached,
# so the job is answered inside its POST.
$REPRO submit smoke --url "$URL" --tenant carol --wait \
  --out "$WORK/carol.json"

# All three exports must be byte-identical to a direct parallel sweep.
$REPRO sweep smoke --jobs 2 --cache-dir "$WORK/direct-cache" \
  --export "$WORK/direct.json"
cmp "$WORK/direct.json" "$WORK/alice.json"
cmp "$WORK/direct.json" "$WORK/bob.json"
cmp "$WORK/direct.json" "$WORK/carol.json"

# The 8 distinct smoke points executed once service-wide: every extra
# request from the second and third tenants coalesced onto an
# in-flight computation or hit the shared cache, and only the third
# tenant's job was answered at submit.  And nothing 500'd.
curl -fsS "$URL/stats" -o "$WORK/stats.json"
python - "$WORK/stats.json" <<'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
computed = counters.get("service.points.computed", 0)
extra = (counters.get("service.points.coalesced", 0)
         + counters.get("service.points.cache_hits", 0))
served = counters.get("service.jobs.served_at_submit", 0)
print(f"computed={computed} coalesced+cache_hits={extra} "
      f"served_at_submit={served}")
assert computed == 8, counters
assert computed + extra == 24, counters
assert served == 1, counters
assert counters.get("service.http.5xx", 0) == 0, counters
EOF

# SIGTERM must drain and exit 0.
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
trap - EXIT
echo "service: round trip OK"

# --- phase 2: chaos soak ----------------------------------------------
$REPRO service-soak --chaos --workdir "$WORK/soak" \
  --duration 12 --seed 1 | tee "$WORK/soak.log"

# The log must show chaos actually fired: a soak that injected nothing
# proves nothing.
grep -q "service.chaos.injected" "$WORK/soak.log"
echo "service: OK"
