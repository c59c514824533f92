#!/usr/bin/env python3
"""Check a regenerated fixture manifest against the committed one.

Every number must agree within 1e-9 (absolute); every other value (strings,
booleans, null, keys, list lengths) must be equal.  Prints each difference by
its path and exits 1 if there is any.  The FCIDUMP files are not compared:
degenerate orbitals (NaH's) may come out rotated among themselves, which
changes integrals but no value the manifest records.

Usage: python3 scripts/compare_manifests.py NEW.json COMMITTED.json
"""

import json
import sys
from pathlib import Path

TOLERANCE = 1e-9


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def differences(new, old, path="manifest"):
    """The paths at which ``new`` differs from ``old``, with both values."""
    if _is_number(new) and _is_number(old):
        return [] if abs(new - old) <= TOLERANCE else [f"{path}: {new!r} != {old!r}"]
    if isinstance(new, dict) and isinstance(old, dict):
        if new.keys() != old.keys():
            return [f"{path}: keys {sorted(new)} != {sorted(old)}"]
        return [d for key in old for d in differences(new[key], old[key], f"{path}.{key}")]
    if isinstance(new, list) and isinstance(old, list):
        if len(new) != len(old):
            return [f"{path}: {len(new)} items != {len(old)}"]
        return [d for i, (a, b) in enumerate(zip(new, old))
                for d in differences(a, b, f"{path}[{i}]")]
    if type(new) is type(old) and new == old:
        return []
    return [f"{path}: {new!r} != {old!r}"]


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    new, old = (json.loads(Path(name).read_text()) for name in argv)
    found = differences(new, old)
    for line in found:
        print(line)
    print(f"{len(found)} difference(s)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
