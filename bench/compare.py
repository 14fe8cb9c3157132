#!/usr/bin/env python3
"""Compare two results written by ``bench/run.py --out``.

    python3 bench/compare.py BASE.json NEW.json

Refuses (exit 2) when the stamps differ in anything but the program
version: another Python, CPU count, platform, benchmark code, workload
set, seed, run length or trace mode makes the numbers incomparable.
Prints one row per workload and metric: base, new, and the change as a
share of base.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from measure import stamp_mismatches


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in args)
    mismatches = stamp_mismatches(base["stamp"], new["stamp"])
    if mismatches:
        print("refusing to compare, stamps differ:", file=sys.stderr)
        for line in mismatches:
            print(f"  {line}", file=sys.stderr)
        return 2
    print(f"base commit {base['stamp']['commit']} src {base['stamp']['src_sha256']}")
    print(f"new  commit {new['stamp']['commit']} src {new['stamp']['src_sha256']}")
    for name, result in base["results"].items():
        other = new["results"][name]
        for section in ("metrics", "layers"):
            for metric, a in result[section].items():
                b = other[section].get(metric)
                if b is None:
                    print(f"{name:6} {metric:36} {a:>14.6g} {'-':>14} {'n/a':>8}")
                    continue
                change = f"{(b - a) / a:+.1%}" if a else "n/a"
                print(f"{name:6} {metric:36} {a:>14.6g} {b:>14.6g} {change:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
