#!/usr/bin/env bash
# Builds the host-clock benchmark and duet-node from source into
# .bench_build, then runs one benchmark run. Run it from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload wd-infer --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and trace files stay under .bench_build.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/duet-node ]; then
	echo "perfbench/run.sh: run from the repository root; it builds duet-node from source" >&2
	exit 1
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# The revision the numbers belong to: the git commit, or a digest of the
# sources in a checkout that is not a git repository.
if [ -d .git ]; then
	commit=$(git rev-parse HEAD)
else
	commit="tree-$(find go.mod cmd internal perfbench -name '*.go' -o -name go.mod | LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)"
fi

(cd perfbench && go build -o "$out/perfbench" . && go build -o "$out/duet-node" duet/cmd/duet-node)
PERFBENCH_COMMIT="$commit" exec "$out/perfbench" "$@"
