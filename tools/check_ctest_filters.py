#!/usr/bin/env python3
"""Fail when a test name in a workflow's ctest -R list matches no test.

Usage:
    check_ctest_filters.py WORKFLOW.yml BUILD_DIR

ctest treats a -R filter that selects nothing as success ("No tests were
found!!!", exit 0), so a renamed or deleted suite silently drops out of
every CI step that names it. This script finds each anchored alternation
'^(a|b|c)$' in WORKFLOW.yml and asks `ctest -N -R '^name$'` in BUILD_DIR
for every name; any name that selects zero tests is reported.

Exit codes: 0 every name is registered, 1 at least one is not, 2 usage
error (unreadable workflow, no lists found, ctest failure).
"""

import re
import subprocess
import sys

FILTER = re.compile(r"'\^\(([^)]*)\)\$'")
TOTAL = re.compile(r"Total Tests:\s*(\d+)")


def registered(build_dir, name):
    out = subprocess.run(
        ["ctest", "--test-dir", build_dir, "-N", "-R", f"^{name}$"],
        check=True, capture_output=True, text=True).stdout
    match = TOTAL.search(out)
    if match is None:
        raise RuntimeError(f"no test count in ctest output for {name!r}")
    return int(match.group(1)) > 0


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    workflow, build_dir = argv[1], argv[2]
    try:
        with open(workflow, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        print(f"cannot read {workflow}: {e}", file=sys.stderr)
        return 2
    names = sorted({n for group in FILTER.findall(text)
                    for n in group.split("|")})
    if not names:
        print(f"no '^(...)$' test lists found in {workflow}", file=sys.stderr)
        return 2
    try:
        missing = [n for n in names if not registered(build_dir, n)]
    except (OSError, subprocess.CalledProcessError, RuntimeError) as e:
        print(f"ctest failed: {e}", file=sys.stderr)
        return 2
    for name in missing:
        print(f"{workflow}: test list names '{name}', which matches no "
              f"registered test in {build_dir}")
    print(f"checked {len(names)} test names, {len(missing)} unregistered")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
