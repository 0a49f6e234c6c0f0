"""Compare two vortexlink JSON reports field by field.

    python3 tests/report_diff.py PARENT.json CHANGE.json [--rel 1e-10] [--show 10]

Ints, bools, strings and nulls must be equal, and the two reports must have
the same keys and list lengths.  A float may move by at most
rel * max(1, |parent|).  The script prints how many floats were bit-equal,
the worst float deviations and every violation, and exits 1 when there is
a violation (0 otherwise).  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

REL = 1e-10


def _walk(path, a, b, floats, violations):
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in a or key not in b:
                side = "parent" if key not in a else "change"
                violations.append((sub, f"missing in {side}"))
            else:
                _walk(sub, a[key], b[key], floats, violations)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            violations.append((path, f"length {len(a)} != {len(b)}"))
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(f"{path}[{i}]", x, y, floats, violations)
    elif type(a) is float and type(b) is float:
        floats.append((path, a, b))
    elif type(a) is not type(b) or a != b:
        violations.append((path, f"{a!r} != {b!r}"))


def compare(parent, change, rel=REL):
    """(floats, violations): every float pair as (path, parent, change, |delta|,
    bound), worst first, and every violation as (path, message)."""
    pairs, violations = [], []
    _walk("", parent, change, pairs, violations)
    floats = []
    for path, a, b in pairs:
        # NaN against NaN is equal; NaN against a number gives a NaN delta
        delta = 0.0 if a == b or (math.isnan(a) and math.isnan(b)) else abs(b - a)
        bound = rel * max(1.0, abs(a))
        if not delta <= bound:
            violations.append((path, f"{a!r} -> {b!r}, |delta| {delta:.3e} > {bound:.3e}"))
        floats.append((path, a, b, delta, bound))
    floats.sort(key=lambda row: math.inf if math.isnan(row[3]) else row[3] / row[4],
                reverse=True)
    return floats, violations


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--rel", type=float, default=REL)
    ap.add_argument("--show", type=int, default=10)
    args = ap.parse_args(argv)
    with open(args.parent) as fh:
        parent = json.load(fh)
    with open(args.change) as fh:
        change = json.load(fh)
    floats, violations = compare(parent, change, args.rel)
    equal = sum(1 for row in floats if row[3] == 0.0)
    print(f"{len(floats)} floats, {equal} equal; worst deviations:")
    for path, a, b, delta, bound in floats[: args.show]:
        if delta != 0.0:
            print(f"  {path}: {a!r} -> {b!r}  |delta| {delta:.3e} ({delta / bound:.2g} of bound)")
    for path, message in violations:
        print(f"VIOLATION {path}: {message}")
    print("ok" if not violations else f"{len(violations)} violations")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
