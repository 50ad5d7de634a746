#!/bin/sh
# CPU and allocation profiles of one benchmark run, or with -m its memory over
# time: REV's, or the working tree's with its uncommitted edits.
#
#   sh scripts/prof.sh [-m] [-w WORKLOAD] [-S SEED] [-s SECONDS] -o DIR [REV]
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
# With -m the hook samples memory instead, for the whole run: every 10 ms the
# live heap (/gc/heap/live:bytes), the goroutine stacks
# (/memory/classes/heap/stacks:bytes) and the memory the runtime keeps mapped
# (/memory/classes/total:bytes minus /memory/classes/heap/released:bytes, the
# runtime's share of the RSS), one line each in DIR/mem.tsv. Whenever the
# mapped memory passes the last peak written by 64 KB, it writes the three
# values to DIR/peak.txt and an inuse_space heap profile to DIR/heap.pprof, so
# at the end both hold the run's sampled peak: read the profile with
# `go tool pprof -sample_index=inuse_space -top DIR/heap.pprof`.
#
# Nothing under the repository's benchmark/ changes: the hook lives only in
# the copy. It needs sh, git, tar and the Go toolchain, and runs from
# anywhere inside the repository.
set -eu

workload=bfs-parse
seed=1
secs=8
out=
mem=
while getopts mw:S:s:o: opt; do
	case $opt in
	m) mem=1 ;;
	w) workload=$OPTARG ;;
	S) seed=$OPTARG ;;
	s) secs=$OPTARG ;;
	o) out=$OPTARG ;;
	*) exit 2 ;;
	esac
done
shift $((OPTIND - 1))
if [ -z "$out" ] || [ $# -gt 1 ]; then
	echo "usage: sh scripts/prof.sh [-m] [-w WORKLOAD] [-S SEED] [-s SECONDS] -o DIR [REV]" >&2
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

if [ -n "$mem" ]; then
	files="mem.tsv peak.txt heap.pprof"
	cat >"$tmp/benchmark/zz_prof_hook.go" <<EOF
package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

func init() {
	s := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/memory/classes/heap/stacks:bytes"},
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	series, err := os.Create("$out/mem.tsv")
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(series, "ms\tlive\tstacks\tmapped")
	start := time.Now()
	go func() {
		var written uint64
		for range time.Tick(10 * time.Millisecond) {
			metrics.Read(s)
			ms := time.Since(start).Milliseconds()
			live, stacks := s[0].Value.Uint64(), s[1].Value.Uint64()
			mapped := s[2].Value.Uint64() - s[3].Value.Uint64()
			fmt.Fprintf(series, "%d\t%d\t%d\t%d\n", ms, live, stacks, mapped)
			if mapped < written+64<<10 {
				continue
			}
			written = mapped
			peak := fmt.Sprintf("ms %d\nlive %d\nstacks %d\nmapped %d\n", ms, live, stacks, mapped)
			os.WriteFile("$out/peak.txt", []byte(peak), 0o644)
			if heap, err := os.Create("$out/heap.pprof"); err == nil {
				pprof.Lookup("heap").WriteTo(heap, 0)
				heap.Close()
			}
		}
	}()
}
EOF
else
	files="cpu.pprof allocs.pprof"
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
fi

(cd "$tmp" && go build -o "$tmp/bench" ./benchmark)
(cd "$tmp" && "$tmp/bench" -workload "$workload" -seed "$seed" -seconds "$secs" -trace 0)
for f in $files; do
	if [ ! -s "$out/$f" ]; then
		echo "prof.sh: $out/$f was not written: the run ended before $secs s" >&2
		exit 1
	fi
done
echo "prof.sh: wrote $files in $out" >&2
