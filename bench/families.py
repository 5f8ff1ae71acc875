"""The input families stored for the verify and cells workloads.

    python3 bench/families.py    rebuild every file, then check it

Run from the repository root. Rebuilding runs `linecells generate` in a
fresh interpreter per family (F(6,5,4) takes about 20 s); checking uses the
benchmark's own oracles, never linecells. Storing the files means a change
to a generator moves only the generate workload. Exits 1 when a check fails.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
FAMILIES = BENCH / "families"

# name: (generate arguments, expected answers)
STORED = {
    "F334": (("recursive_pq", 3, 3, 4), {"lines": 8}),
    "F434": (("recursive_pq", 4, 3, 4), {"lines": 14, "largest": 7}),
    "F444": (("recursive_pq", 4, 4, 4), {"lines": 28}),
    "F544": (("recursive_pq", 5, 4, 4), {"lines": 49}),
    "F554": (("recursive_pq", 5, 5, 4), {"lines": 98}),
    "F654": (("recursive_pq", 6, 5, 4), {"lines": 177}),
    "fig5": (("figure10", 5), {"lines": 10, "largest": 4}),
    "fig6": (("figure10", 6), {"lines": 12, "no_convex": 5}),
    "fig8": (("figure10", 8), {"lines": 16, "no_convex": 5}),
}


def generate_argv(recipe):
    if recipe[0] == "recursive_pq":
        _, p, q, l = recipe
        return ["--kind", "recursive_pq", "--p", str(p), "--q", str(q), "--l", str(l)]
    return ["--kind", "figure10", "--l", str(recipe[1])]


def check(name):
    """Problems with the stored file, from the oracles alone."""
    recipe, expect = STORED[name]
    lines, _ = oracle.parse_family_text((FAMILIES / f"{name}.txt").read_text())
    arr = oracle.Arrangement(lines)
    problems = []
    if len(lines) != expect["lines"]:
        problems.append(f"{len(lines)} lines, want {expect['lines']}")
    if recipe[0] == "recursive_pq":
        _, p, q, l = recipe
        if len(lines) != oracle.recursive_size(p, q, l):
            problems.append("line count breaks the recurrence")
        if arr.max_concurrency() >= l:
            problems.append(f"{arr.max_concurrency()} concurrent lines")
        if oracle.longest_chain(lines, -1) > p or oracle.longest_chain(lines, +1) > q:
            problems.append("a cup or cap is too long")
        if max(arr.right_cell_sizes()) >= 4:
            problems.append("a 4-cell unbounded to the right")
    else:
        if arr.max_concurrency() != recipe[1] - 1:
            problems.append(f"{arr.max_concurrency()} concurrent lines")
        if arr.has_convex(5):
            problems.append("5 lines in convex position")
    if "largest" in expect and arr.largest_convex() != expect["largest"]:
        problems.append(f"largest convex subset is not {expect['largest']}")
    return problems


def rebuild(name):
    recipe, _ = STORED[name]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = FAMILIES / f"{name}.txt"
    subprocess.run(
        [sys.executable, "-m", "linecells", "generate", *generate_argv(recipe), "-o", str(out)],
        cwd=ROOT, env=env, check=True,
    )


def main():
    failed = False
    for name in STORED:
        rebuild(name)
        problems = check(name)
        failed = failed or bool(problems)
        print(f"{name}: {'; '.join(problems) if problems else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
