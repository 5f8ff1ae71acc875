"""Cold-process benchmark of the linecells CLI and kernels.

    python3 bench/run.py --workload generate|verify|cells --seed N --seconds S --trace 0|1

Run from the repository root. Every operation runs in a fresh interpreter
(bench/op.py) and is timed there, around the call into linecells: the
library keeps process-wide caches keyed by family, so a repeated call in
one process would measure a cache hit, not the work a CLI user waits for.
One operation runs at a time. A run repeats whole rounds of its workload's
operations until --seconds have passed, checks every output against the
independent oracles in bench/oracle.py, and prints one JSON object as the
last line of standard output. --trace 1 runs each operation of a round
twice, untraced and traced, then the kernel-scaling probe, and reports the
per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import log
from pathlib import Path

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
FAMILIES = BENCH / "families"
OUT = BENCH / "out"
WORKLOADS = ("generate", "verify", "cells")
SETUP_SAMPLES = 9
OP_TIMEOUT_S = 120
RANDOM_FAMILIES = 3
RANDOM_LINES = 10
# The host's CPU speed drifts by a third over minutes, as other tenants
# load it. Each interpreter times a fixed slice of work around and during
# its operation (op.Speed), and every reported time is scaled by
# REFERENCE_S / (that slice's median time), REFERENCE_S being its time on the
# machine the README's figures come from. Raw times stay in bench/out.
REFERENCE_S = 0.0010


@dataclass(frozen=True)
class Op:
    """One operation of a round: a child spec, a check of its report that
    returns a list of problems, its expected exit codes, and whether it is
    the workload's small or large operation."""

    label: str
    spec: dict
    check: object
    expect_rc: tuple = (0,)
    role: str = None


def family_path(name):
    return FAMILIES / f"{name}.txt"


def load(path):
    lines, _ = oracle.parse_family_text(Path(path).read_text())
    return lines


class Repeats:
    """Outputs of one operation must be byte-identical across its repeats;
    the full oracle check runs on the first and is reused for the rest."""

    def __init__(self):
        self.seen = {}

    def check(self, label, output, full_check):
        if label in self.seen:
            return [] if self.seen[label] == output else [f"{label}: output differs between repeats"]
        self.seen[label] = output
        return full_check(output)


# ---------------------------------------------------------------- generate


def check_recursive(text, p, q, l):
    lines, _ = oracle.parse_family_text(text)
    arr = oracle.Arrangement(lines)
    problems = []
    if len(lines) != oracle.recursive_size(p, q, l):
        problems.append(f"{len(lines)} lines, recurrence gives {oracle.recursive_size(p, q, l)}")
    if arr.max_concurrency() >= l:
        problems.append(f"{arr.max_concurrency()} concurrent lines, want < {l}")
    if oracle.longest_chain(lines, -1) > p:
        problems.append(f"cup longer than {p}")
    if oracle.longest_chain(lines, +1) > q:
        problems.append(f"cap longer than {q}")
    if max(arr.right_cell_sizes()) >= 4:
        problems.append("a 4-cell unbounded to the right")
    return problems


def check_thm12(text, l, n):
    lines, _ = oracle.parse_family_text(text)
    arr = oracle.Arrangement(lines)
    problems = []
    if len(lines) != oracle.thm12_size(l, n) or len(lines) < oracle.lower_bound(l, n):
        problems.append(f"{len(lines)} lines, want {oracle.thm12_size(l, n)}")
    if arr.max_concurrency() >= l:
        problems.append(f"{arr.max_concurrency()} concurrent lines, want < {l}")
    if arr.has_convex(n):
        problems.append(f"{n} lines in convex position")
    return problems


def check_figure10(text, l):
    lines, _ = oracle.parse_family_text(text)
    arr = oracle.Arrangement(lines)
    problems = []
    if len(lines) != 2 * l:
        problems.append(f"{len(lines)} lines, want {2 * l}")
    if arr.max_concurrency() != l - 1:
        problems.append(f"{arr.max_concurrency()} concurrent lines, want {l - 1}")
    if arr.has_convex(5):
        problems.append("5 lines in convex position")
    return problems


def generate_ops(work, repeats):
    def op(label, argv, full_check, role=None):
        path = work / f"{label}.txt"

        def check(report):
            return repeats.check(label, path.read_text(), full_check)

        spec = {"argv": ["generate", *argv, "-o", str(path)]}
        return Op(label, spec, check, role=role)

    def recursive(p, q, role=None):
        argv = ["--kind", "recursive_pq", "--p", str(p), "--q", str(q), "--l", "4"]
        return op(f"F{p}{q}4", argv, lambda text: check_recursive(text, p, q, 4), role)

    small = recursive(4, 4, "small")
    large = recursive(5, 5, "large")
    return [
        *[small] * 4,
        recursive(5, 4),
        large,
        large,
        op("thm12-3-6", ["--kind", "thm12_even", "--l", "3", "--n", "6"],
           lambda text: check_thm12(text, 3, 6)),
        op("figure10-6", ["--kind", "figure10", "--l", "6"],
           lambda text: check_figure10(text, 6)),
    ]


# ------------------------------------------------------------------ verify

VERIFY_INPUTS = {"F444": (4, 4), "F544": (5, 4), "F554": (5, 5), "F654": (6, 5)}
_CONCURRENCY = re.compile(r"max concurrency: (\d+) at \((\S+), (\S+)\)$")
_CHAIN = re.compile(r"longest (cup|cap): (\d+) lines \[([\d, ]*)\]$")


class VerifyFacts:
    """Oracle answers for a stored verify input."""

    def __init__(self, name):
        self.lines = load(family_path(name))
        self.concurrency = oracle.Arrangement(self.lines).max_concurrency()
        self.chains = {
            "cup": oracle.longest_chain(self.lines, -1),
            "cap": oracle.longest_chain(self.lines, +1),
        }


def check_verify_output(text, facts):
    lines = facts.lines
    rows = text.splitlines()
    problems = []
    if not rows or rows[-1] != "result: PASS":
        problems.append("verify did not PASS")
    if f"family size: {len(lines)}" not in rows:
        problems.append("wrong family size")
    found = [m for m in map(_CONCURRENCY.match, rows) if m]
    if len(found) != 1:
        return problems + ["no concurrency line"]
    count = int(found[0].group(1))
    x, y = Fraction(found[0].group(2)), Fraction(found[0].group(3))
    if count != facts.concurrency or sum(1 for m, c in lines if m * x + c == y) != count:
        problems.append(f"concurrency {count} at ({x}, {y}) is wrong")
    chains = {m.group(1): m for m in map(_CHAIN.match, rows) if m}
    for kind, turn in (("cup", -1), ("cap", +1)):
        if kind not in chains:
            problems.append(f"no {kind} line")
            continue
        size = int(chains[kind].group(2))
        witness = [int(v) for v in chains[kind].group(3).split(",")]
        if size != facts.chains[kind] or len(witness) != size:
            problems.append(f"{kind} of {size} lines, oracle says {facts.chains[kind]}")
        elif not oracle.is_strict_chain(lines, witness, turn):
            problems.append(f"{kind} witness {witness} is not a strict {kind}")
    return problems


@functools.cache
def verify_facts(name):
    """The oracle answers for a stored verify input, computed once per run."""
    return VerifyFacts(name)


def verify_op(name, repeats, role=None):
    """`verify` on a stored input, its output checked against the oracles."""
    p, q = VERIFY_INPUTS[name]
    argv = ["verify", str(family_path(name)), "--l", "4", "--p", str(p), "--q", str(q)]
    facts = verify_facts(name)

    def check(report):
        return repeats.check(
            f"verify-{name}", report["stdout"], lambda text: check_verify_output(text, facts)
        )

    return Op(f"verify-{name}", {"argv": argv}, check, role=role)


def check_svg(text, size):
    root = ET.fromstring(text)
    drawn = sum(1 for el in root.iter() if el.tag.endswith("}line") or el.tag == "line")
    if not root.tag.endswith("svg") or drawn != size:
        return [f"svg draws {drawn} lines, family has {size}"]
    return []


def verify_ops(work, repeats):
    def render(name):
        path = work / f"{name}.svg"
        size = len(verify_facts(name).lines)

        def check(report):
            return repeats.check(f"render-{name}", path.read_text(), lambda text: check_svg(text, size))

        return Op(f"render-{name}", {"argv": ["render", str(family_path(name)), "-o", str(path)]}, check)

    small = verify_op("F444", repeats, "small")
    large = verify_op("F654", repeats, "large")
    return [
        *[small] * 5,
        verify_op("F554", repeats),
        *[large] * 3,
        render("F444"),
        render("F554"),
        render("F654"),
    ]


# ------------------------------------------------------------------- cells

_FOUND = re.compile(r"found (\d+) lines in convex position: \[([\d, ]*)\]$")
_NONE = re.compile(r"no (\d+) lines in convex position$")
_LARGEST = re.compile(r"largest convex position subset: (\d+) lines \[([\d, ]*)\]$")


def random_family(seed, index):
    """A generic family (no two parallel, no three concurrent) of small
    rationals, drawn from the run's seed."""
    rng = random.Random(f"linecells-bench-{seed}-{index}")
    while True:
        slopes = set()
        while len(slopes) < RANDOM_LINES:
            slopes.add(Fraction(rng.randint(-60, 60), rng.randint(1, 7)))
        lines = sorted((m, Fraction(rng.randint(-60, 60), rng.randint(1, 7))) for m in slopes)
        if oracle.Arrangement(lines).max_concurrency() == 2:
            return lines


def check_search(report, arr, n, exists):
    """`search --n`: a witness must be convex by the oracle's own test, and
    a 'none' answer must match the brute-force answer."""
    text = report["stdout"].strip()
    found, none = _FOUND.match(text), _NONE.match(text)
    if found and report["rc"] == 1:
        witness = tuple(int(v) for v in found.group(2).split(","))
        if len(witness) != n or not arr.in_convex_position(witness):
            return [f"witness {witness} is not {n} lines in convex position"]
        return []
    if none and report["rc"] == 0 and int(none.group(1)) == n:
        return [f"no {n}-convex answer, but the oracle finds one"] if exists else []
    return [f"unexpected search output {text!r}"]


def check_largest(report, arr, largest):
    match = _LARGEST.match(report["stdout"].strip())
    if not match:
        return [f"unexpected output {report['stdout']!r}"]
    size = int(match.group(1))
    witness = tuple(int(v) for v in match.group(2).split(","))
    if size != largest or len(witness) != size or not arr.in_convex_position(witness):
        return [f"largest {size} {witness}, oracle says {largest}"]
    return []


def check_cells(report, arr):
    lines = arr.lines
    n = len(lines)
    cells = report["cells"]
    problems = []
    if len(cells) != arr.cell_count():
        problems.append(f"{len(cells)} cells, 1 + n + sum(deg - 1) gives {arr.cell_count()}")
    classes = [cell["class"] for cell in cells]
    for name, want in (("unbounded_left", n - 1), ("unbounded_right", n - 1), ("unbounded_other", 2)):
        if classes.count(name) != want:
            problems.append(f"{classes.count(name)} {name} cells, want {want}")
    if len({cell["signs"] for cell in cells}) != len(cells):
        problems.append("repeated sign vectors")
    for cell in cells:
        x, y = (Fraction(v) for v in cell["witness"])
        signs = "".join("+" if oracle.side(line, x, y) > 0 else "-" for line in lines)
        mask = sum(1 << j for j, s in enumerate(cell["signs"]) if s == "+")
        if signs != cell["signs"] or set(cell["bounding"]) != arr.bounding(mask):
            problems.append(f"cell {cell['signs']} has a wrong witness or bounding set")
            break
    return problems


def cells_ops(work, seed):
    ops = []

    def search(label, path, argv, check, role=None):
        return Op(label, {"argv": ["search", str(path), *argv]}, check, expect_rc=(0, 1), role=role)

    f434 = oracle.Arrangement(load(family_path("F434")))
    exists7 = f434.has_convex(7)
    small = search("search-F434-n7", family_path("F434"), ["--n", "7"],
                   lambda r: check_search(r, f434, 7, exists7), "small")
    ops += [small] * 4
    exists8 = f434.has_convex(8)
    large = search("search-F434-n8", family_path("F434"), ["--n", "8"],
                   lambda r: check_search(r, f434, 8, exists8), "large")
    ops += [large] * 3
    for name in ("fig6", "fig8"):
        arr = oracle.Arrangement(load(family_path(name)))
        exists = arr.has_convex(5)
        ops.append(search(f"search-{name}-n5", family_path(name), ["--n", "5"],
                          lambda r, arr=arr, exists=exists: check_search(r, arr, 5, exists)))
    fig5 = oracle.Arrangement(load(family_path("fig5")))
    # ES_L(5, 4) = 6 <= 10 lines forces a 4-set; the family's stated property forbids 5
    ops.append(search("largest-fig5", family_path("fig5"), ["--largest"],
                      lambda r: check_largest(r, fig5, 4)))
    for index in range(RANDOM_FAMILIES):
        lines = random_family(seed, index)
        path = work / f"random-{index}.txt"
        path.write_text(oracle.format_family_text(lines))
        arr = oracle.Arrangement(lines)
        largest = arr.largest_convex()
        ops.append(search(f"largest-random-{index}", path, ["--largest"],
                          lambda r, arr=arr, largest=largest: check_largest(r, arr, largest)))
    for name in ("F334", "F434", "F444"):
        arr = oracle.Arrangement(load(family_path(name)))
        ops.append(Op(f"cells-{name}", {"cells": str(family_path(name))},
                      lambda r, arr=arr: check_cells(r, arr)))
    return ops


def input_files(ops):
    """Every family file the workload reads, in first-use order."""
    files = []
    for op in ops:
        spec = op.spec
        path = spec.get("cells") or (spec["argv"][1] if spec["argv"][0] != "generate" else None)
        if path is not None and path not in files:
            files.append(path)
    return files


# ------------------------------------------------------------------ running


def run_child(spec):
    """Run bench/op.py with the spec; the report, or None and why it failed."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "op.py"), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {OP_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return json.loads(proc.stdout.splitlines()[-1]), None


class Run:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def execute(self, op, trace=False):
        """Run one operation and check it; its report, or None if it failed."""
        self.attempted += 1
        report, error = run_child({**op.spec, "trace": trace})
        if report is None or report["rc"] not in op.expect_rc:
            self.failed += 1
            why = error or f"exit code {report['rc']}: {report['stderr'].strip()}"
            print(f"{op.label}: failed, {why}", file=sys.stderr)
            return None
        try:
            problems = op.check(report)
        except Exception as exc:  # a malformed output is a wrong answer, not a crash
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        for problem in problems:
            self.problems.append(f"{op.label}: {problem}")
            print(f"{op.label}: WRONG, {problem}", file=sys.stderr)
        return report


def build_ops(workload, work, seed):
    if workload == "generate":
        return generate_ops(work, Repeats())
    if workload == "verify":
        return verify_ops(work, Repeats())
    return cells_ops(work, seed)


def probe_ops():
    """Kernel-scaling probe: the verify kernels at 28/49/98/177 lines and
    cell enumeration at 8/14/28 lines, each family in its own interpreter
    so the process-wide caches start cold."""
    repeats = Repeats()
    ops = [verify_op(name, repeats) for name in VERIFY_INPUTS]
    for name in ("F334", "F434", "F444"):
        arr = oracle.Arrangement(load(family_path(name)))
        ops.append(Op(f"probe-cells-{name}", {"cells": str(family_path(name))},
                      lambda r, arr=arr: check_cells(r, arr)))
    return ops


def metric(value, unit):
    return {"value": value, "unit": unit}


def scaled(report):
    """The report's operation time at the reference machine speed."""
    return report["seconds"] * REFERENCE_S / report["reference_s"]


def end_to_end(reports, setups):
    times = [scaled(r) for _, r in reports]
    small = [scaled(r) for op, r in reports if op.role == "small"]
    large = [scaled(r) for op, r in reports if op.role == "large"]
    return {
        "setup_s": metric(statistics.median(scaled(r) for r in setups), "s"),
        "ops_per_s": metric(len(times) / sum(times), "1/s"),
        "small_op_ms": metric(statistics.median(small) * 1000, "ms"),
        "large_op_ms": metric(statistics.median(large) * 1000, "ms"),
        "peak_rss_mb": metric(max(r["rss_mb"] for _, r in reports), "MB"),
    }


def _span_tree(spans):
    """Per span: inclusive duration, duration of its direct children, and
    the names of its ancestors."""
    durations = [end - start for _, start, end, _, _ in spans]
    children = [0.0] * len(spans)
    ancestors = []
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent] += durations[i]
            ancestors.append(ancestors[parent] | {spans[parent][0]})
        else:
            ancestors.append(frozenset())
    return durations, children, ancestors


def fit_exponent(spans_by_op, name):
    """Least-squares slope of log(time) on log(lines) for one kernel, with
    the time at each size summed over that size's calls."""
    by_size = {}
    for spans in spans_by_op:
        for span_name, start, end, _, attrs in spans:
            if span_name == name:
                by_size[attrs["n"]] = by_size.get(attrs["n"], 0.0) + end - start
    if len(by_size) < 2:
        return 0.0
    xs = [log(n) for n in by_size]
    ys = [log(t) for t in by_size.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def per_layer(traced, rounds, probe, untraced_s, traced_s):
    totals, counts = Counter(), Counter()
    imports = []
    bits = 0
    for _, report in traced:
        spans = report["spans"]
        durations, children, ancestors = _span_tree(spans)
        for i, (name, _, _, _, attrs) in enumerate(spans):
            counts[name] += 1
            if name not in ancestors[i]:
                totals[name] += durations[i]
            if name == "cli.import":
                imports.append(durations[i])
            if name == "constructions.contract":
                totals["constructions.contract_self"] += durations[i] - children[i]
            if name == "arrangement.enumerate_cells":
                counts["cells"] += attrs["cells"]
            if name == "arrangement.convex_test" and "verify.search" in ancestors[i]:
                counts["examined"] += 1
                counts["hits"] += attrs["convex"]
            bits = max(bits, attrs.get("bits", 0))

    def seconds(name):
        return metric(totals[name] / rounds, "s")

    def per_round(name):
        return metric(counts[name] / rounds, "count")

    probe_spans = [report["spans"] for _, report in probe]
    examined = counts["examined"]
    return {
        "cli.import_s": metric(statistics.median(imports), "s"),
        "familyfile.parse_s": seconds("familyfile.parse"),
        "familyfile.serialize_s": seconds("familyfile.serialize"),
        "geometry.max_coord_bits": metric(bits, "bits"),
        "constructions.contract_calls": per_round("constructions.contract"),
        "constructions.contract_self_s": seconds("constructions.contract_self"),
        "constructions.recheck_calls": per_round("constructions.recheck"),
        "constructions.recheck_s": seconds("constructions.recheck"),
        "chains.chain_dp_s": seconds("chains.chain_dp"),
        "chains.chain_dp_calls": per_round("chains.chain_dp"),
        "chains.staircase_s": seconds("chains.staircase"),
        "chains.staircase_calls": per_round("chains.staircase"),
        "arrangement.vertex_table_s": seconds("arrangement.vertex_table"),
        "arrangement.enumerate_cells_s": seconds("arrangement.enumerate_cells"),
        "arrangement.cells": per_round("cells"),
        "arrangement.convex_test_s": seconds("arrangement.convex_test"),
        "arrangement.convex_test_calls": per_round("arrangement.convex_test"),
        "verify.search_s": seconds("verify.search"),
        "verify.subsets_examined": per_round("examined"),
        "verify.convex_hit_ratio": metric(counts["hits"] / examined if examined else 0.0, "ratio"),
        "svg.render_s": seconds("svg.render"),
        "chains.chain_dp_exp": metric(fit_exponent(probe_spans, "chains.chain_dp"), "1"),
        "chains.staircase_exp": metric(fit_exponent(probe_spans, "chains.staircase"), "1"),
        "arrangement.vertex_table_exp": metric(fit_exponent(probe_spans, "arrangement.vertex_table"), "1"),
        "arrangement.enumerate_cells_exp": metric(
            fit_exponent(probe_spans, "arrangement.enumerate_cells"), "1"
        ),
        "trace.overhead_pct": metric((traced_s / untraced_s - 1) * 100, "%"),
    }


def measure(args, work):
    run = Run()
    ops = build_ops(args.workload, work, args.seed)
    setups = []
    if not args.trace:
        files = input_files(ops)
        for _ in range(SETUP_SAMPLES):
            report, error = run_child({"setup": files})
            if report is None:
                raise SystemExit(f"set-up failed: {error}")
            setups.append(report)
    reports, traced = [], []
    untraced_s = traced_s = 0.0
    rounds = 0
    start = time.monotonic()
    while rounds == 0 or time.monotonic() - start < args.seconds:
        for op in ops:
            report = run.execute(op)
            if report is not None:
                reports.append((op, report))
            if args.trace:
                again = run.execute(op, trace=True)
                if report is not None and again is not None:
                    traced.append((op, again))
                    untraced_s += scaled(report)
                    traced_s += scaled(again)
        rounds += 1
    if not reports:
        raise SystemExit("every operation failed")
    if args.trace:
        probe = [(op, r) for op in probe_ops() if (r := run.execute(op, trace=True)) is not None]
        metrics = per_layer(traced, rounds, probe, untraced_s, traced_s)
        spans = [{"op": op.label, "spans": r["spans"]} for op, r in traced + probe]
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
    else:
        metrics = end_to_end(reports, setups)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    samples = [[op.label, r["seconds"], r["reference_s"], r["rss_mb"]] for op, r in reports]
    setup = [[r["seconds"], r["reference_s"]] for r in setups]
    return result, {"setup": setup, "operations": samples}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "linecells" / "__init__.py").is_file():
        print(f"error: no linecells sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        result, samples = measure(args, work)
    finally:
        shutil.rmtree(work)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**result, "samples": samples}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
