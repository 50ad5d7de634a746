#!/bin/sh
# A/B measurement of the benchmark, or of one package's tests: REV against
# the working tree.
#
#   sh scripts/ab.sh [-A] [-w WORKLOAD] [-n ROUNDS] [-s SECONDS] [-S SEED] REV
#
# It `git archive`s REV into a temporary directory, builds `go build
# ./benchmark` there and in the working tree (uncommitted edits included),
# and runs ROUNDS alternated rounds (default 10) of one workload (default
# fed-fabric, run alone through `-workload`): round i runs both binaries on
# seed SEED+i (default SEED 100) for SECONDS (default 10, the benchmark's
# run length), REV first in odd rounds and the working tree first in even
# ones, so both sides see the same load. It then prints, for every
# end-to-end metric BENCHMARK.json declares, each side's median and
# quartiles, the change of the median, REV's interquartile range as a share
# of its median, and wins/N: the rounds the working tree read better than
# REV on the same seed (ties count for neither side), and each side's
# median count of timed passes a run (a faster side runs more passes, and
# a metric that grows with them, such as peak RSS, is read beside it).
# `sh scripts/ab.sh HEAD` on a clean tree is the A/A run: its spread and
# wins are the noise floor to read any other result against.
#
# With -A the A/A floor comes from the same run: every round also runs
# REV's binary a second time (A') on the round's seed, the three runs in an
# order that rotates from round to round (A B A', B A' A, A' A B), and each
# metric's line gains A' against A: the change of the median of A' and
# its wins over A, read exactly as B's — what the B columns read when
# nothing changed. -t ignores -A.
#
#   sh scripts/ab.sh -t PKG [-n ROUNDS] REV
#
# With -t it times a package's tests instead: `go test -c` builds PKG's
# test binary in both trees, and ROUNDS alternated rounds run each once
# (`-test.count=1`, under a 20-minute timeout) in its own tree's package
# directory, where its testdata is. It prints each side's median and
# quartiles of wall and user seconds (the user time of the binary and what
# it starts, from the shell's `times`) and the ratio of the medians, B over
# A: a ratio taken on one box is what carries to another.
#
# A measurement, not a gate: it checks that every run is `correct` (with -t,
# that every test binary passes) and counts failed operations, but exits 0
# whatever the numbers say. It needs sh, awk, git, GNU date and the Go
# toolchain, and runs from anywhere inside the repository.
set -eu

workload=fed-fabric
pkg=
rounds=10
secs=10
seed=100
aa=0
while getopts Aw:t:n:s:S: opt; do
	case $opt in
	A) aa=1 ;;
	w) workload=$OPTARG ;;
	t) pkg=${OPTARG#./} ;;
	n) rounds=$OPTARG ;;
	s) secs=$OPTARG ;;
	S) seed=$OPTARG ;;
	*) exit 2 ;;
	esac
done
shift $((OPTIND - 1))
if [ $# -ne 1 ]; then
	echo "usage: sh scripts/ab.sh [-A] [-w WORKLOAD | -t PKG] [-n ROUNDS] [-s SECONDS] [-S SEED] REV" >&2
	exit 2
fi
rev=$1
root=$(git rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --short "$rev^{commit}")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
mkdir "$tmp/base"
git -C "$root" archive "$sha" | tar -x -C "$tmp/base"

if [ -n "$pkg" ]; then
	(cd "$tmp/base" && go test -c -o "$tmp/a" "./$pkg")
	(cd "$root" && go test -c -o "$tmp/b" "./$pkg")
	# trun SIDE ROUND: one run of SIDE's test binary, appended to
	# $tmp/runs as "round side wall user ok"; the subshell's `times`
	# counts the binary alone among its children.
	trun() {
		dir=$tmp/base
		[ "$1" = b ] && dir=$root
		(
			cd "$dir/$pkg"
			t0=$(date +%s.%N)
			ok=1
			"$tmp/$1" -test.count=1 -test.timeout 20m >"$tmp/out" 2>&1 || ok=0
			t1=$(date +%s.%N)
			times >"$tmp/times"
			awk -v r="$2" -v side="$1" -v t0="$t0" -v t1="$t1" -v ok="$ok" '
			# times: the children line is the second, "XmY.Zs XmY.Zs".
			function sec(f, m) { m = f; sub(/m.*/, "", m); sub(/^[0-9]+m/, "", f); sub(/s$/, "", f); return 60 * m + f }
			NR == 2 { print r, side, t1 - t0, sec($1), ok }' "$tmp/times"
		) >>"$tmp/runs"
	}
	: >"$tmp/runs"
	i=1
	while [ "$i" -le "$rounds" ]; do
		if [ $((i % 2)) -eq 1 ]; then
			trun a "$i"
			trun b "$i"
		else
			trun b "$i"
			trun a "$i"
		fi
		echo "round $i/$rounds done" >&2
		i=$((i + 1))
	done
	echo "ab: go test ./$pkg, $rounds alternated rounds"
	echo "    A = $rev ($sha), B = working tree of $(git -C "$root" rev-parse --short HEAD)"
	awk '
	{ n[$2]++; wall[$2, n[$2]] = $3; user[$2, n[$2]] = $4; bad[$2] += 1 - $5 }
	function sortv(side, arr, k, i, j, t) {
		for (i = 1; i <= n[side]; i++) v[i] = (arr == "wall" ? wall[side, i] : user[side, i]) + 0
		for (i = 2; i <= n[side]; i++)
			for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
		return n[side]
	}
	function q(k, p, h, lo) {
		h = 1 + (k - 1) * p
		lo = int(h)
		return lo >= k ? v[k] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
	}
	END {
		printf "%-8s %-26s %-26s %6s\n", "seconds", "A median [q1, q3]", "B median [q1, q3]", "B / A"
		for (m = 1; m <= 2; m++) {
			arr = m == 1 ? "wall" : "user"
			k = sortv("a", arr); am = q(k, .5); aq = sprintf("%.2f [%.2f, %.2f]", am, q(k, .25), q(k, .75))
			k = sortv("b", arr); bm = q(k, .5); bq = sprintf("%.2f [%.2f, %.2f]", bm, q(k, .25), q(k, .75))
			printf "%-8s %-26s %-26s %6s\n", arr, aq, bq, (am > 0 ? sprintf("%.3f", bm / am) : "n/a")
		}
		printf "A: %d failed runs, B: %d failed runs\n", bad["a"], bad["b"]
	}' "$tmp/runs"
	exit 0
fi

(cd "$tmp/base" && go build -o "$tmp/a" ./benchmark)
(cd "$root" && go build -o "$tmp/b" ./benchmark)

# run SIDE ROUND SEED: one `-workload` run, its metrics appended to
# $tmp/runs as "round side metric value" lines. Side c is A' (-A): REV's
# binary again, in a directory of its own.
run() {
	bin=$1
	[ "$1" = c ] && bin=a
	"$tmp/$bin" -workload "$workload" -seed "$3" -seconds "$secs" -trace 0 \
		-dir "$tmp/dir-$1" 2>/dev/null | tail -n 2 >"$tmp/out"
	awk -v side="$1" -v round="$2" '
	# The detail line before the result line gives the timed passes.
	/^#detail / {
		if (match($0, /"passes":[0-9]+/)) passes = substr($0, RSTART + 9, RLENGTH - 9)
		next
	}
	{
		if ($0 !~ /"correct":true/) bad = 1
		if (match($0, /"failed":[0-9]+/)) failed = substr($0, RSTART + 9, RLENGTH - 9)
		s = $0
		while (match(s, /"[a-z0-9_]+":\{"value":[-+.0-9eE]+/)) {
			m = substr(s, RSTART + 1, RLENGTH - 1)
			s = substr(s, RSTART + RLENGTH)
			name = m; sub(/".*/, "", name)
			val = m; sub(/.*"value":/, "", val)
			print round, side, name, val
		}
		print round, side, "failed", failed + 0
		print round, side, "incorrect", bad + 0
		print round, side, "passes", passes + 0
	}
	END {
		if (NR == 0) print round, side, "incorrect", 1 # no result line
	}' "$tmp/out" >>"$tmp/runs"
}

: >"$tmp/runs"
i=1
while [ "$i" -le "$rounds" ]; do
	s=$((seed + i))
	if [ "$aa" = 1 ]; then
		case $((i % 3)) in
		1) order="a b c" ;;
		2) order="b c a" ;;
		0) order="c a b" ;;
		esac
	elif [ $((i % 2)) -eq 1 ]; then
		order="a b"
	else
		order="b a"
	fi
	for side in $order; do
		run "$side" "$i" "$s"
	done
	echo "round $i/$rounds (seed $s) done" >&2
	i=$((i + 1))
done

echo "ab: $workload, $rounds alternated rounds of ${secs} s, seeds $((seed + 1))-$((seed + rounds))"
echo "    A = $rev ($sha), B = working tree of $(git -C "$root" rev-parse --short HEAD)"
[ "$aa" = 1 ] && echo "    A' = $rev again: A' vs A is the A/A floor"
awk -v aa="$aa" '
# BENCHMARK.json: the end-to-end metrics, in order, with their direction.
FNR == NR {
	if ($0 ~ /"end_to_end"/) e2e = 1
	else if (e2e && $0 ~ /^  \]/) e2e = 0
	if (e2e && $0 ~ /"name"/) { n = $0; gsub(/.*"name": *"|".*/, "", n); names[++nm] = n }
	if (e2e && $0 ~ /"better"/) { b = $0; gsub(/.*"better": *"|".*/, "", b); better[names[nm]] = b }
	next
}
{
	key = $2 SUBSEP $3
	vals[key, ++cnt[key]] = $4
	by[$1, $2, $3] = $4
	if ($1 > rounds) rounds = $1
}
function sortv(key, k, i, j, t) {
	for (i = 1; i <= cnt[key]; i++) v[i] = vals[key, i] + 0
	for (i = 2; i <= cnt[key]; i++)
		for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
	return cnt[key]
}
# q: the p-quantile of v[1..k], linear between order statistics.
function q(k, p, h, lo) {
	h = 1 + (k - 1) * p
	lo = int(h)
	return lo >= k ? v[k] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
# wins: the rounds side y read better than side x on metric name; pairs
# gets the rounds both sides read it.
function wins(x, y, name, r, n, vx, vy) {
	n = 0; pairs = 0
	for (r = 1; r <= rounds; r++) {
		if (!((r, x, name) in by) || !((r, y, name) in by)) continue
		pairs++
		vx = by[r, x, name]; vy = by[r, y, name]
		if ((better[name] == "lower" && vy < vx) || (better[name] == "higher" && vy > vx)) n++
	}
	return n
}
function change(m, am) { return am != 0 ? sprintf("%+.1f%%", 100 * (m - am) / am) : "n/a" }
END {
	printf "%-18s %-6s  %-30s %-30s %7s %6s %6s", "metric", "better", "A median [q1, q3]", "B median [q1, q3]", "B vs A", "A IQR", "B wins"
	if (aa) printf " %7s %7s", "A\047 vs A", "A\047 wins"
	printf "\n"
	for (m = 1; m <= nm; m++) {
		name = names[m]
		if (!cnt["a", name]) continue
		k = sortv("a" SUBSEP name); am = q(k, .5); aiqr = q(k, .75) - q(k, .25)
		aq = sprintf("%.5g [%.5g, %.5g]", am, q(k, .25), q(k, .75))
		k = sortv("b" SUBSEP name); bm = q(k, .5); bq = sprintf("%.5g [%.5g, %.5g]", bm, q(k, .25), q(k, .75))
		w = am != 0 ? sprintf("%.1f%%", 100 * aiqr / am) : "n/a"
		bw = wins("a", "b", name)
		printf "%-18s %-6s  %-30s %-30s %7s %6s %3d/%d", name, better[name], aq, bq, change(bm, am), w, bw, pairs
		if (aa) {
			k = sortv("c" SUBSEP name); cm = q(k, .5)
			cw = wins("a", "c", name)
			printf " %7s %3d/%d", change(cm, am), cw, pairs
		}
		printf "\n"
	}
	for (s = 1; s <= 2 + aa; s++) {
		side = substr("abc", s, 1)
		f = 0; bad = 0
		for (r = 1; r <= rounds; r++) { f += by[r, side, "failed"]; bad += by[r, side, "incorrect"] }
		k = sortv(side SUBSEP "passes")
		printf "%s: %d failed operations, %d incorrect runs, %g timed passes a run (median)\n", side == "c" ? "A\047" : toupper(side), f, bad, q(k, .5)
	}
}' "$root/BENCHMARK.json" "$tmp/runs"
