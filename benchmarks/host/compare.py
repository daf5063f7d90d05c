#!/usr/bin/env python3
"""Compare two records, or two sets of records, of the host benchmark.

    python3 benchmarks/host/compare.py A.json B.json
    python3 benchmarks/host/compare.py before/ after/

Each side is a ``fem2-hostbench/1`` file (one record or a list, as
``run.py --out`` writes them) or a directory of such files.  A is the
baseline.  One row per (workload, metric):

* end-to-end metrics get each side's median and quartiles and a verdict
  from the bound in ``BENCHMARK.json`` — ``worse`` / ``same`` /
  ``better``, or ``unresolved`` when either side's own spread is wider
  than the bound and the sides overlap;
* exact numbers (traced runs of the same seed) must be equal, else
  ``differs``;
* per-layer timings have no bound and are shown for information.

Exit status is 1 if any row is ``worse`` or ``differs``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import SCHEMA, load_manifest


def load(path: Path) -> list:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for file in files:
        data = json.loads(file.read_text())
        records.extend(data if isinstance(data, list) else [data])
    for record in records:
        if record.get("schema") != SCHEMA:
            sys.exit(f"compare: {path}: not a {SCHEMA} record")
        if not record["comparable"]:
            sys.exit(f"compare: {path}: a {record['workload']} record was "
                     f"made with --seconds {record['host']['seconds']}, not "
                     "the benchmark's own run length; it compares with "
                     "nothing")
    return records


def quartiles(values):
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, better, bound):
    """How side *b* stands against baseline *a* on one bounded metric."""
    sign = 1.0 if better == "lower" else -1.0
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    worse_by = sign * (bm - am) / abs(am)
    spread = max((a3 - a1) / abs(am), (b3 - b1) / abs(bm))
    if spread > bound:
        # too noisy for the medians to decide: only a clean separation
        # of every run counts
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        if all(sign * (y - x) > 0 for x in a for y in b) \
                and worse_by > bound:
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "same"


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:>12.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def compare(side_a: list, side_b: list, manifest: dict) -> int:
    bounded = {m["name"]: m for m in manifest["end_to_end"]}
    groups = defaultdict(lambda: ([], []))
    for side, records in enumerate((side_a, side_b)):
        for record in records:
            groups[record["workload"], record["trace"]][side].append(record)
    bad = 0
    for (workload, traced), (recs_a, recs_b) in sorted(groups.items()):
        if not recs_a or not recs_b:
            continue
        print(f"\n## {workload} ({'traced' if traced else 'end to end'})")
        for name in recs_a[0]["metrics"]:
            a = [r["metrics"][name]["value"] for r in recs_a]
            b = [r["metrics"][name]["value"] for r in recs_b
                 if name in r["metrics"]]
            if not b or name in recs_a[0].get("exact", {}):
                continue
            if name in bounded:
                m = bounded[name]
                word = verdict(a, b, m["better"], m["bound"])
                bad += word == "worse"
                word += f" (bound {m['bound']:.0%})"
            else:
                word = "info"
            print(f"{name:38s} {fmt(a)}  |  {fmt(b)}  {word}")
        # exact numbers: every record of one seed must agree.  Only a
        # traced run has a fixed length; of a timed run's exact numbers
        # only failed_frac does not depend on how many batches it made
        by_seed = defaultdict(list)
        for record in recs_a + recs_b:
            exact = record["exact"] if traced else \
                {"failed_frac": record["exact"]["failed_frac"]}
            by_seed[record["host"]["seed"]].append(exact)
        differing = 0
        for seed, exacts in sorted(by_seed.items()):
            for name in sorted(set().union(*exacts)):
                seen = {json.dumps(e.get(name)) for e in exacts}
                if len(seen) > 1:
                    differing += 1
                    print(f"{name:38s} seed {seed}: differs: "
                          f"{' vs '.join(sorted(seen))}")
        bad += differing
        print(f"exact numbers: {len(recs_a) + len(recs_b)} records over "
              f"{len(by_seed)} seed(s), {differing} differ")
    return bad


def main(argv) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    bad = compare(load(Path(argv[0])), load(Path(argv[1])), load_manifest())
    print(f"\n{bad} row(s) worse or differing")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
