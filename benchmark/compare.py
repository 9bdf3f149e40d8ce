#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit with runs of a change.

    python3 benchmark/compare.py PARENT_DIR... -- CHANGE_DIR...

Each DIR is the output of one `bash benchmark/run.sh DIR` and holds one
<workload>.json per workload. PARENT_DIR[i] and CHANGE_DIR[i] form pair i;
make at least ten pairs and alternate which side runs first.

For every workload and end-to-end metric of BENCHMARK.json it prints each
side's median and quartiles, the change's share of pairs won (ties count for
neither side) and one verdict:

  improved      the change won at least 9 of 10 pairs and the medians differ
                by more than the parent's own spread (quartile distance);
  regressed     the change's median is worse than the parent's by more than
                the metric's bound;
  unresolved    the parent's spread is wider than the bound, so the runs
                cannot tell (unless every change run beats every parent run);
  within bound  none of the above.

It also compares failed/attempted per workload. Exit status: 1 if anything
regressed or the change fails more often, 2 on bad input, 0 otherwise.
"""
import json
import pathlib
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(dirs, workloads):
    runs = []
    for d in dirs:
        run = {}
        for w in workloads:
            path = pathlib.Path(d) / f"{w}.json"
            try:
                run[w] = json.loads(path.read_text())
            except (OSError, ValueError) as e:
                sys.exit(f"compare.py: cannot read {path}: {e}")
        runs.append(run)
    return runs


def verdict(metric, parent, change):
    lower = metric["better"] == "lower"

    def better(a, b):
        return a < b if lower else a > b

    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    p_q = statistics.quantiles(parent, n=4)
    p_iqr = p_q[2] - p_q[0]
    wins = sum(1 for p, c in zip(parent, change) if better(c, p))
    win_share = wins / len(parent)
    worse_by = (c_med - p_med) / p_med if lower else (p_med - c_med) / p_med
    spread = p_iqr / p_med
    all_better = all(better(c, p) for c in change for p in parent)
    if win_share >= WIN_SHARE and better(c_med, p_med) and abs(c_med - p_med) > p_iqr:
        v = "improved"
    elif spread > metric["bound"] and not all_better:
        v = "unresolved"
    elif worse_by > metric["bound"]:
        v = "regressed"
    else:
        v = "within bound"
    return win_share, v


def fmt(values):
    q = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv):
    if "--" not in argv:
        sys.exit(__doc__)
    cut = argv.index("--")
    parent_dirs, change_dirs = argv[:cut], argv[cut + 1:]
    if len(parent_dirs) != len(change_dirs) or len(parent_dirs) < MIN_PAIRS:
        print(f"compare.py: need at least {MIN_PAIRS} parent and as many change "
              f"directories (got {len(parent_dirs)} and {len(change_dirs)})",
              file=sys.stderr)
        return 2

    spec_path = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parent = load_runs(parent_dirs, workloads)
    change = load_runs(change_dirs, workloads)

    status = 0
    print(f"{'workload':16} {'metric':18} {'parent median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'won':>5}  verdict")
    for w in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            try:
                p = [r[w]["metrics"][name]["value"] for r in parent]
                c = [r[w]["metrics"][name]["value"] for r in change]
            except KeyError:
                print(f"compare.py: {w} has no metric {name}", file=sys.stderr)
                return 2
            win_share, v = verdict(metric, p, c)
            status = 1 if v == "regressed" else status
            print(f"{w:16} {name:18} {fmt(p):34} {fmt(c):34} "
                  f"{win_share:5.0%}  {v} (bound {metric['bound']:.0%})")
        p_fail = sum(r[w]["failed"] for r in parent) / sum(r[w]["attempted"] for r in parent)
        c_fail = sum(r[w]["failed"] for r in change) / sum(r[w]["attempted"] for r in change)
        if c_fail > p_fail:
            status = 1
        print(f"{w:16} {'fail_ratio':18} {p_fail:<34.6g} {c_fail:<34.6g} "
              f"{'':>5}  {'regressed' if c_fail > p_fail else 'not higher'}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
