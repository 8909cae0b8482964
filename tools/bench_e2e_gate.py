#!/usr/bin/env python3
"""Exact gate on bench/e2e's deterministic metrics.

    python3 tools/bench_e2e_gate.py RUN.json            # print expected form
    python3 tools/bench_e2e_gate.py RUN.json EXPECTED   # compare, exit 1 on drift

RUN.json is the rsmr-bench/2 document that
`bash bench/e2e/run.sh --workload all --reps 2 --trace 0 --out RUN.json`
writes.  Every production metric of kind "virtual" (end-to-end and
per-layer alike) is exact for a seed, so it must match EXPECTED exactly at
the printed precision.  alloc_words_per_cmd counts OCaml heap words, which
may shift slightly with the build, so it may move by 1%.  Host-time metrics
and the other heap metrics are not gated.  Lines starting with '#' are a
header and are not compared.
"""

import json
import sys

COMMAND = "bash bench/e2e/run.sh --workload all --reps 2 --trace 0"
ALLOC = "alloc_words_per_cmd"
ALLOC_TOLERANCE = 0.01


def render(doc):
    lines = ["# ocaml %s; %s" % (doc["ocaml_version"], COMMAND)]
    for workload, result in doc["workloads"].items():
        for metric, m in result["production"].items():
            if m["kind"] == "virtual" or metric == ALLOC:
                lines.append("%s %s %.12g" % (workload, metric, m["value"]))
    return lines


def parse(lines):
    values = {}
    for line in lines:
        if line.strip() and not line.startswith("#"):
            workload, metric, value = line.split()
            values[(workload, metric)] = value
    return values


def agree(metric, want, got):
    if want == got:
        return True
    if metric != ALLOC or None in (want, got):
        return False
    return abs(float(got) - float(want)) <= ALLOC_TOLERANCE * float(want)


def main(argv):
    if len(argv) not in (2, 3):
        sys.stderr.write(__doc__)
        return 2
    with open(argv[1]) as f:
        lines = render(json.load(f))
    if len(argv) == 2:
        print("\n".join(lines))
        return 0
    got = parse(lines)
    with open(argv[2]) as f:
        want = parse(f.read().splitlines())
    keys = sorted(set(want) | set(got))
    failures = 0
    for workload, metric in keys:
        w, g = want.get((workload, metric)), got.get((workload, metric))
        if not agree(metric, w, g):
            failures += 1
            print(
                "%s %s: expected %s, got %s"
                % (workload, metric, w or "missing", g or "missing")
            )
    print("bench/e2e gate: %d metric(s) checked, %d differ" % (len(keys), failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
