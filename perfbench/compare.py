#!/usr/bin/env python3
"""Compare benchmark result files of two commits.

    python3 perfbench/compare.py --base old/*.json --new new/*.json

Result files are the records ``run.py`` writes to ``.perfbench/results/``.
Files are grouped by workload, input size and trace setting; each metric's
median over the group's files is printed for both sides with the ratio
new/base. Files measured on different ``pgain.BACKEND`` values are refused:
a numpy-kernel run and a compiled-kernel run are not the same program.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def load(paths: list[str]) -> dict:
    groups: dict = {}
    for path in paths:
        with open(path) as handle:
            record = json.load(handle)
        key = (record["workload"], record["size"], record["trace"])
        groups.setdefault(key, []).append(record)
    return groups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    backends = {r["environment"]["backend"]
                for side in (base, new) for group in side.values() for r in group}
    if len(backends) != 1:
        print(f"compare: refusing to compare backends {sorted(backends)}",
              file=sys.stderr)
        return 2
    for key in sorted(set(base) & set(new)):
        workload, size, trace = key
        print(f"{workload} size={size} trace={trace}"
              f" base n={len(base[key])} new n={len(new[key])}")
        for name, info in base[key][0]["metrics"].items():
            old = statistics.median(r["metrics"][name]["value"] for r in base[key])
            values = [r["metrics"][name]["value"]
                      for r in new[key] if name in r["metrics"]]
            if not values:
                print(f"  {name:32s} missing in new results")
                continue
            cur = statistics.median(values)
            ratio = f"{cur / old:.4f}" if old else "n/a"
            print(f"  {name:32s} {old:12.6g} {cur:12.6g} {info['unit']:6s} x{ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
