#!/bin/sh
# CPU and allocation profiles of one benchmark run: REV's, or the working
# tree's with its uncommitted edits.
#
#   sh scripts/prof.sh [-w WORKLOAD] [-S SEED] [-s SECONDS] -o DIR [REV]
#
# It copies the tree to a temporary directory (`git archive` of REV; without
# REV, the working tree's tracked and untracked files, .gitignore applied),
# drops a hook file into that copy's benchmark/ (an init that starts a CPU
# profile and, SECONDS later, stops it and writes the allocation profile),
# builds `go build ./benchmark` there and runs `-workload WORKLOAD -seed SEED
# -seconds SECONDS -trace 0` (defaults bfs-parse, 1, 8). DIR then holds
# cpu.pprof and allocs.pprof: read them with `go tool pprof -top DIR/cpu.pprof`
# or `go tool pprof -sample_index=alloc_space -top DIR/allocs.pprof`. The
# profile starts before the workload's set-up and covers SECONDS of it plus
# the timed passes that follow, so set-up shows in it.
#
# Nothing under the repository's benchmark/ changes: the hook lives only in
# the copy. It needs sh, git, tar and the Go toolchain, and runs from
# anywhere inside the repository.
set -eu

workload=bfs-parse
seed=1
secs=8
out=
while getopts w:S:s:o: opt; do
	case $opt in
	w) workload=$OPTARG ;;
	S) seed=$OPTARG ;;
	s) secs=$OPTARG ;;
	o) out=$OPTARG ;;
	*) exit 2 ;;
	esac
done
shift $((OPTIND - 1))
if [ -z "$out" ] || [ $# -gt 1 ]; then
	echo "usage: sh scripts/prof.sh [-w WORKLOAD] [-S SEED] [-s SECONDS] -o DIR [REV]" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
mkdir -p "$out"
out=$(cd "$out" && pwd)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
if [ $# -eq 1 ]; then
	git -C "$root" archive "$(git -C "$root" rev-parse "$1^{commit}")" | tar -x -C "$tmp"
else
	(cd "$root" && git ls-files -z --cached --others --exclude-standard |
		xargs -0 tar -c --ignore-failed-read 2>/dev/null) | tar -x -C "$tmp"
fi

cat >"$tmp/benchmark/zz_prof_hook.go" <<EOF
package main

import (
	"os"
	"runtime/pprof"
	"time"
)

func init() {
	cpu, err := os.Create("$out/cpu.pprof")
	if err != nil {
		panic(err)
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		panic(err)
	}
	go func() {
		time.Sleep(time.Duration($secs * float64(time.Second)))
		pprof.StopCPUProfile()
		cpu.Close()
		allocs, err := os.Create("$out/allocs.pprof")
		if err != nil {
			panic(err)
		}
		pprof.Lookup("allocs").WriteTo(allocs, 0)
		allocs.Close()
	}()
}
EOF

(cd "$tmp" && go build -o "$tmp/bench" ./benchmark)
(cd "$tmp" && "$tmp/bench" -workload "$workload" -seed "$seed" -seconds "$secs" -trace 0)
for f in cpu.pprof allocs.pprof; do
	if [ ! -s "$out/$f" ]; then
		echo "prof.sh: $out/$f was not written: the run ended before $secs s" >&2
		exit 1
	fi
done
echo "prof.sh: wrote $out/cpu.pprof and $out/allocs.pprof" >&2
