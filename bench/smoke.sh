#!/usr/bin/env bash
# Tiny shapes of all six workloads, every kind of run, all output
# checks: seconds. Exits non-zero when any check fails.
set -euo pipefail
exec bash "$(dirname "${BASH_SOURCE[0]}")/run.sh" -smoke "$@"
