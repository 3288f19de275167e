#!/usr/bin/env sh
# Repo health gate: domain lint, the runner test modules, a 2-worker
# smoke sweep and a 2-worker chaos smoke (exercise the process pool and
# the fault-injection layer end to end), the perfbench tests, then the
# full tier-1 test suite. Run from the repo root.
#
#   scripts/check.sh              lint + runner tests + smoke sweep +
#                                 perfbench tests + suite
#   scripts/check.sh --lint-only  just the full REP001-REP012 rule set
#                                 (fast, well under 10 s)
#   scripts/check.sh --ci         the same gate, non-interactive: junit
#                                 XML under test-reports/
#
# The GitHub workflow (.github/workflows/ci.yml) runs this script with
# --ci, so the hosted gate and the local gate are one recipe; a clean
# exit here means the tree is mergeable.
set -eu

cd "$(dirname "$0")/.."
PYTHONPATH="${PWD}/src${PYTHONPATH:+:}${PYTHONPATH:-}"
export PYTHONPATH

MODE="${1:-}"
PYTEST_ARGS="-x -q"
JUNIT_RUNNER=""
JUNIT_TIER1=""
if [ "$MODE" = "--ci" ]; then
    mkdir -p test-reports
    PYTEST_ARGS="-x -q -p no:cacheprovider"
    JUNIT_RUNNER="--junitxml=test-reports/runner.xml"
    JUNIT_TIER1="--junitxml=test-reports/tier1.xml"
fi

echo "== repro lint src/repro (REP001-REP012) =="
python -m repro lint src/repro --baseline lint-baseline.json

if [ "$MODE" = "--lint-only" ]; then
    exit 0
fi

echo "== runner test modules =="
# shellcheck disable=SC2086
python -m pytest $PYTEST_ARGS $JUNIT_RUNNER \
    tests/test_runner_executor.py \
    tests/test_runner_cache.py \
    tests/test_model_properties.py

echo "== 2-worker smoke sweep =="
python -m repro sweep --types colla-filt --rates 60 --window 10 --workers 2

echo "== 2-worker chaos smoke =="
python -m repro chaos --smoke --workers 2 --out CHAOS_smoke.json
rm -f CHAOS_smoke.json

echo "== perfbench tests =="
# The tracer patches simulator methods by name; these tests catch a
# rename that would otherwise break the benchmark silently.
# shellcheck disable=SC2086
python -m pytest $PYTEST_ARGS perfbench/tests

echo "== tier-1 pytest =="
# shellcheck disable=SC2086
python -m pytest $PYTEST_ARGS $JUNIT_TIER1
