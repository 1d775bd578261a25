#!/usr/bin/env python3
"""Compares two sets of bench_e2e records, or reports the spread of one set.

    python3 bench/e2e/compare.py BASE_DIR             # spread of one set
    python3 bench/e2e/compare.py BASE_DIR CAND_DIR    # verdict per metric

A directory holds the records `run.py --out FILE` appends (one JSON object per
line; any *.json or *.jsonl file). Runs of a workload pair up in seed order.

Each (workload, metric) pair that bounds.json bounds gets a verdict, after the
choosing-metrics guide, section 8:

  improved    at least 10 pairs ran, the candidate wins at least 9 in 10
              of them (ties count for neither) and the medians differ by
              more than the base set's interquartile range;
  unresolved  the base set's interquartile range, as a share of its median,
              is wider than the bound, so "no worse than the bound" cannot
              be shown (unless every candidate run beats every base run);
  regressed   the candidate's median is worse than the base median by more
              than the bound;
  unchanged   otherwise.

`failed_ratio`, failed over attempted operations pooled over a set's runs,
has a bound of +0: any increase is a regression. Other metrics are listed
without a verdict.

The bounds come from bounds.json, one per metric, on every workload that
reports it. Each must be at least twice the interquartile range (as a share
of the median) the baseline showed for that metric on any workload; the
spread report flags one that is not.

The output-quality metrics bounds.json lists as `per_seed` are exact
functions of a run's inputs, and differ far more between seeds than the
bound. They are judged on same-seed pairs: regressed when the median
relative change over the common seeds is worse than the bound.

The exit code is 1 when a metric regressed, a run failed its output checks
(`"correct": false`) or runs of one seed printed different output digests,
within a set or between the two. Stdlib only.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
BOUNDS = os.path.join(HERE, "bounds.json")
# Fewer pairs than this cannot show a gain: 5 of 5 wins happen by chance
# once in 32 metrics.
MIN_PAIRS = 10


def load(directory):
    """Returns {workload: [record, ...]} with records sorted by seed."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json*"))):
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line:
                    record = json.loads(line)
                    if "host" in record and "metrics" in record:
                        runs.setdefault(record["host"]["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["host"]["seed"])
    return runs


def values(records, metric):
    return [r["metrics"][metric]["value"] for r in records
            if r["metrics"].get(metric, {}).get("value") is not None]


def quartiles(vals, method="inclusive"):
    # Inclusive: of 5 runs, the 2nd and 4th. The exclusive method averages
    # the slowest run into q3, so one slow run of 5 reads as spread.
    if len(vals) < 2:
        return vals[0], vals[0]
    q = statistics.quantiles(vals, n=4, method=method)
    return q[0], q[2]


def rel_iqr(vals, method="inclusive"):
    q1, q3 = quartiles(vals, method)
    med = statistics.median(vals)
    return (q3 - q1) / abs(med) if med else 0.0


def failed_ratio(records):
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 0.0


def check_runs(name, runs):
    """Prints runs that failed their checks or disagree on outputs."""
    problems = 0
    for workload, records in sorted(runs.items()):
        for r in records:
            if not r["correct"]:
                problems += 1
                print("%s: %s seed %s failed its checks: %s" % (
                    name, workload, r["host"]["seed"], "; ".join(r["violations"])))
        by_seed = digests(records)
        for seed, d in sorted(by_seed.items()):
            if len(d) > 1:
                problems += 1
                print("%s: %s seed %s printed %d different digests" % (
                    name, workload, seed, len(d)))
    return problems


def digests(records):
    by_seed = {}
    for r in records:
        by_seed.setdefault(r["host"]["seed"], set()).add(r["digest"])
    return by_seed


def load_bounds():
    """Returns {metric: bound} and the set of per-seed metrics."""
    with open(BOUNDS) as f:
        table = json.load(f)
    return table["bounds"], set(table["per_seed"])


def spread(base, spec):
    bounds, per_seed = load_bounds()
    driver = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("%-9s %-28s %4s %14s %9s %9s %7s  %s" % (
        "workload", "metric", "n", "median", "iqr/med", "range/med", "bound", "note"))
    for workload, records in sorted(base.items()):
        for metric in sorted(records[0]["metrics"]):
            vals = values(records, metric)
            if not vals:
                continue
            med = statistics.median(vals)
            iqr = rel_iqr(vals)
            rng = (max(vals) - min(vals)) / abs(med) if med else 0.0
            bound = bounds.get(metric)
            notes = []
            if metric in per_seed:
                notes.append("per seed: spread is between inputs")
            elif bound is not None and 2 * iqr > bound:
                notes.append("bound below twice the spread")
            # BENCHMARK.json's spreads are taken with the exclusive method.
            if metric in driver and rel_iqr(vals, "exclusive") > driver[metric] / 3:
                notes.append("spread above a third of BENCHMARK.json's bound")
            print("%-9s %-28s %4d %14.6g %9.4f %9.4f %7s  %s" % (
                workload, metric, len(vals), med, iqr, rng,
                "-" if bound is None else "%.3f" % bound, "; ".join(notes)))
        print("%-9s %-28s %4d %14.6g" % (workload, "failed_ratio", len(records),
                                         failed_ratio(records)))
    return 1 if check_runs("base", base) else 0


def verdict(base_vals, cand_vals, better, bound):
    med_b = statistics.median(base_vals)
    med_c = statistics.median(cand_vals)
    q1, q3 = quartiles(base_vals)
    sign = 1.0 if better == "lower" else -1.0

    def beats(c, b):
        return sign * (b - c) > 0

    pairs = list(zip(base_vals, cand_vals))
    wins = sum(1 for b, c in pairs if beats(c, b))
    if bound is None:
        return wins, len(pairs), "-"
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and
            abs(med_c - med_b) > q3 - q1 and beats(med_c, med_b)):
        return wins, len(pairs), "improved"
    every_run_better = all(beats(c, b) for c in cand_vals for b in base_vals)
    if med_b and (q3 - q1) / abs(med_b) > bound and not every_run_better:
        return wins, len(pairs), "unresolved"
    worse_by = sign * (med_c - med_b) / abs(med_b) if med_b else 0.0
    return wins, len(pairs), "regressed" if worse_by > bound else "unchanged"


def paired_verdict(b_runs, c_runs, metric, better, bound):
    """Verdict on a metric its seed determines exactly: the median, over
    seeds, of the candidate's relative change against the base run."""
    sign = 1.0 if better == "lower" else -1.0
    base_by_seed = {r["host"]["seed"]: values([r], metric) for r in b_runs}
    gains = []  # Positive: the candidate is better.
    for r in c_runs:
        b, c = base_by_seed.get(r["host"]["seed"], []), values([r], metric)
        if b and c and b[0]:
            gains.append(sign * (b[0] - c[0]) / abs(b[0]))
    if not gains:
        return 0, 0, "unresolved"
    wins = sum(1 for g in gains if g > 0)
    med = statistics.median(gains)
    if -med > bound:
        return wins, len(gains), "regressed"
    if wins >= 0.9 * len(gains) and med > 0:
        return wins, len(gains), "improved"
    return wins, len(gains), "unchanged"


def compare(base, cand, spec):
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds, per_seed = load_bounds()
    row = "%-9s %-28s %28s %28s %7s %7s  %s"
    print(row % ("workload", "metric", "base median [q1, q3]", "cand median [q1, q3]",
                 "wins", "bound", "verdict"))
    counts = {}
    problems = check_runs("base", base) + check_runs("cand", cand)
    for workload in sorted(set(base) | set(cand)):
        if workload not in base or workload not in cand:
            print("%-9s only in one set" % workload)
            problems += 1
            continue
        b_runs, c_runs = base[workload], cand[workload]
        for metric in sorted(b_runs[0]["metrics"]):
            bv, cv = values(b_runs, metric), values(c_runs, metric)
            if not bv or not cv:
                continue
            bound = bounds.get(metric)
            if metric in per_seed:
                wins, n, v = paired_verdict(b_runs, c_runs, metric, better[metric], bound)
            else:
                wins, n, v = verdict(bv, cv, better.get(metric, "lower"), bound)
            counts[v] = counts.get(v, 0) + 1
            bq, cq = quartiles(bv), quartiles(cv)
            print(row % (
                workload, metric,
                "%.5g [%.5g, %.5g]" % (statistics.median(bv), bq[0], bq[1]),
                "%.5g [%.5g, %.5g]" % (statistics.median(cv), cq[0], cq[1]),
                "%d/%d" % (wins, n), "-" if bound is None else "%.3f" % bound, v))
        fb, fc = failed_ratio(b_runs), failed_ratio(c_runs)
        v = "regressed" if fc > fb else "improved" if fc < fb else "unchanged"
        counts[v] = counts.get(v, 0) + 1
        print(row % (workload, "failed_ratio", "%.5g" % fb, "%.5g" % fc, "", "+0", v))
        b_digests, c_digests = digests(b_runs), digests(c_runs)
        differ = sorted(s for s in set(b_digests) & set(c_digests)
                        if b_digests[s] != c_digests[s])
        if differ:
            print("%-9s outputs differ between the sets on seeds %s" % (workload, differ))
            problems += 1
    print("verdicts: " + ", ".join("%s %d" % kv for kv in sorted(counts.items())))
    return 1 if counts.get("regressed") or problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("cand", nargs="?")
    args = parser.parse_args()
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base = load(args.base)
    if not base:
        sys.exit("compare.py: no records in " + args.base)
    if args.cand is None:
        sys.exit(spread(base, spec))
    cand = load(args.cand)
    if not cand:
        sys.exit("compare.py: no records in " + args.cand)
    sys.exit(compare(base, cand, spec))


if __name__ == "__main__":
    main()
