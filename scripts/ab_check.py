#!/usr/bin/env python3
"""Paired parent/change benchmark gate.

    scripts/ab_check.py [BASE]

Measures the working tree (the change) against BASE (the parent;
default `git merge-base HEAD main`) on one host in one session, and
gates on medians of paired ratios, never on absolute figures:

  micro       Each bench_micro row (compile, net, net-degrade,
              net-ckpt) runs MICRO_PAIRS pairs of `bench_micro ROW`,
              the side that runs first alternating from pair to
              pair. A row FAILs when the median change/parent ratio
              exceeds 1 + MICRO_BOUND.
  end to end  Each workload in BENCHMARK.json runs E2E_PAIRS
              alternating pairs of its command (`python3
              perfbench/run.py --workload W --seed 1 --seconds 24
              --trace 0`), each side from its own tree. A workload
              FAILs on any `correct: false`, or when the change's
              failed/attempted share exceeds the parent's. A metric
              FAILs when its median paired ratio, oriented so that
              > 1 means worse, exceeds 1 + its BENCHMARK.json bound.
  layers      One alternating `--trace 1` pair per workload prints
              every per-layer metric's change/parent ratio, largest
              deviation first. It is not gated: on unchanged code
              one traced pair moves single layers by up to 35%, so
              it can point at the layer behind a large end-to-end
              failure but cannot place a 15% one.

BASE is checked out with `git worktree add` under .ab_check/ and
removed on exit. Both sides build bench_micro in Release under
.ab_check/; perfbench builds itself in each tree. A run took 17-24
minutes on a 4-vCPU host, about 6 of them on the micro rows.
Exit status 1 on any FAIL, 2 when the run cannot be made.
"""

import json
import math
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".ab_check")
ROWS = ("compile", "net", "net-degrade", "net-ckpt")

# Pairs per bench_micro row. Identical binaries (A/A), 40 pairs per
# row on a 4-vCPU host: median ratios 0.99-1.04, quartiles as wide
# as 0.89-1.37. Resampled at 60 pairs, unchanged code exceeds the
# bound in at most 2.1% of resamples per row, and a 15% slowdown
# exceeds it in 76-100%. Each sample is one 0.5 s timing window
# (bench_micro's windowSeconds); taking the best window per process
# instead spread A/A ratios over 0.52-1.90, because the host flips
# between fast and slow modes.
MICRO_PAIRS = 60
# Largest median change/parent ratio a bench_micro row may show.
# Under the A/A figures above, 10% tells a 15% slowdown from noise.
MICRO_BOUND = 0.10
# Pairs per perfbench workload. Six back-to-back runs per workload on
# unchanged code were all `correct: true`, consecutive-run ratios
# oriented to "worse" were <= 1.30, and 3-pair medians <= 1.15: five
# pairs keep unchanged code inside the 0.25 timing bounds.
E2E_PAIRS = 5
PERFBENCH_SEED = 1


class Abort(Exception):
    """The run cannot be made (a build or a benchmark failed)."""


def load_benchmark(path=os.path.join(ROOT, "BENCHMARK.json")):
    with open(path) as f:
        return json.load(f)


def worse_ratio(parent, change, better="lower"):
    """change / parent, inverted when higher is better: > 1 is worse."""
    num, den = (change, parent) if better == "lower" else (parent, change)
    if num == den:
        return 1.0
    return num / den if den else math.inf


def gate(name, pairs, better, bound):
    """One table row from (parent, change) pairs."""
    ratios = [worse_ratio(p, c, better) for p, c in pairs]
    ratio = statistics.median(ratios)
    return {"name": name,
            "parent": statistics.median(p for p, _ in pairs),
            "change": statistics.median(c for _, c in pairs),
            "ratio": ratio,
            "won": f"{sum(r < 1 for r in ratios)}/{len(ratios)}",
            "verdict": "FAIL" if ratio > 1 + bound else "PASS"}


def gate_micro(row, pairs):
    """A bench_micro row from (parent, change) ns-per-unit pairs."""
    return gate(row, pairs, "lower", MICRO_BOUND)


def gate_workload(workload, parent_runs, change_runs, end_to_end):
    """Rows for one perfbench workload from its paired --trace 0 runs.

    `end_to_end` is BENCHMARK.json's metric list: names, bounds and
    directions all come from there.
    """
    def failed(runs):
        return (sum(r["failed"] for r in runs),
                sum(r["attempted"] for r in runs))

    def share(runs):
        bad, attempted = failed(runs)
        return bad / attempted if attempted else 0.0

    def correct(runs):
        return f"{sum(r['correct'] for r in runs)}/{len(runs)}"

    all_correct = all(r["correct"] for r in parent_runs + change_runs)
    rows = [
        {"name": f"{workload}/correct", "parent": correct(parent_runs),
         "change": correct(change_runs), "ratio": None, "won": "",
         "verdict": "PASS" if all_correct else "FAIL"},
        {"name": f"{workload}/failed",
         "parent": "%d/%d" % failed(parent_runs),
         "change": "%d/%d" % failed(change_runs), "ratio": None,
         "won": "",
         "verdict": ("FAIL" if share(change_runs) > share(parent_runs)
                     else "PASS")},
    ]
    for metric in end_to_end:
        name = metric["name"]
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(parent_runs, change_runs)]
        rows.append(gate(f"{workload}/{name}", pairs, metric["better"],
                         metric["bound"]))
    return rows


def layer_report(parent, change, per_layer):
    """(name, parent, change, ratio) for each per-layer metric of one
    traced pair that either side reports as non-zero, largest
    deviation (|log ratio|) first. A ratio of a negative figure means
    nothing (obs.trace_overhead_frac turns negative when the traced
    campaign beats the untraced one): it reads None and sorts last."""
    report = []
    for metric in per_layer:
        name = metric["name"]
        p = parent["metrics"].get(name, {}).get("value", 0.0)
        c = change["metrics"].get(name, {}).get("value", 0.0)
        if p or c:
            ratio = None if p < 0 or c < 0 else worse_ratio(p, c)
            report.append((name, p, c, ratio))

    def deviation(entry):
        ratio = entry[3]
        if ratio is None:
            return -1.0
        return abs(math.log(ratio)) if 0 < ratio < math.inf else math.inf

    return sorted(report, key=deviation, reverse=True)


def last_json(stdout):
    """The last line of `stdout` that parses as JSON."""
    for line in reversed(stdout.splitlines()):
        try:
            return json.loads(line)
        except ValueError:
            continue
    raise ValueError("no JSON line in the output")


def fmt(value):
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    return f"{value:.4g}"


def print_table(rows):
    print(f"{'row or workload/metric':<34} {'parent':>12} {'change':>12} "
          f"{'ratio':>7} {'won':>6}  verdict")
    for r in rows:
        print(f"{r['name']:<34} {fmt(r['parent']):>12} "
              f"{fmt(r['change']):>12} {fmt(r['ratio']):>7} "
              f"{r['won']:>6}  {r['verdict']}")
    print("ratio: median per-pair change/parent, inverted where higher "
          "is better, so > 1 is worse; won: pairs the change won")


def run(command, cwd):
    """Run a benchmark command; its stdout, or Abort with its stderr."""
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True)
    if done.returncode != 0:
        tail = "\n".join(done.stderr.splitlines()[-20:])
        raise Abort(f"{' '.join(command)} (in {cwd}) exited "
                    f"{done.returncode}:\n{tail}")
    return done.stdout


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def remove_worktree(path):
    subprocess.run(["git", "worktree", "remove", "--force", path], cwd=ROOT,
                   capture_output=True)
    shutil.rmtree(path, ignore_errors=True)
    git("worktree", "prune")


def build_micro(tree, side):
    build_dir = os.path.join(WORK, f"build-{side}")
    for command in (["cmake", "-S", tree, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release",
                     "-DOVLSIM_BUILD_TESTS=OFF",
                     "-DOVLSIM_BUILD_EXAMPLES=OFF"],
                    ["cmake", "--build", build_dir, "--target",
                     "bench_micro", "-j", str(os.cpu_count() or 1)]):
        run(command, ROOT)
    return os.path.join(build_dir, "bench_micro")


def paired(index, measure):
    """One pair; the side that runs first alternates with `index`."""
    sides = ("parent", "change") if index % 2 == 0 else ("change", "parent")
    result = {side: measure(side) for side in sides}
    return result["parent"], result["change"]


def measure_micro(binaries):
    pairs = {row: [] for row in ROWS}
    for i in range(MICRO_PAIRS):
        for row in ROWS:
            def one(side):
                try:
                    return last_json(run([binaries[side], row], ROOT))
                except Abort as err:
                    if side == "parent":
                        raise Abort(f"the BASE bench_micro failed on row "
                                    f"'{row}'; one that predates the "
                                    f"four-row runner does not accept row "
                                    f"names\n{err}") from err
                    raise
            parent, change = paired(i, one)
            pairs[row].append((parent["ns_per_unit"], change["ns_per_unit"]))
        print(f"ab_check: micro pair {i + 1}/{MICRO_PAIRS}", file=sys.stderr)
    return [gate_micro(row, pairs[row]) for row in ROWS]


def perfbench(benchmark, trees, workload, trace, index):
    command = benchmark["command"] + [
        "--workload", workload, "--seed", str(PERFBENCH_SEED),
        "--seconds", str(benchmark["run_seconds"]), "--trace", str(trace)]
    return paired(index, lambda side: last_json(run(command, trees[side])))


def check(base):
    benchmark = load_benchmark()
    sha = git("rev-parse", "--verify", f"{base}^{{commit}}")
    parent_tree = os.path.join(WORK, "parent")
    remove_worktree(parent_tree)  # left over from an interrupted run
    git("worktree", "add", "--detach", parent_tree, sha)
    try:
        trees = {"parent": parent_tree, "change": ROOT}
        print(f"ab_check: parent {base} ({sha[:12]}) vs the working tree",
              file=sys.stderr)
        binaries = {side: build_micro(tree, side)
                    for side, tree in trees.items()}
        rows = measure_micro(binaries)
        for w in benchmark["workloads"]:
            runs = [perfbench(benchmark, trees, w["name"], 0, i)
                    for i in range(E2E_PAIRS)]
            print(f"ab_check: {w['name']} end to end done", file=sys.stderr)
            rows += gate_workload(w["name"], [p for p, _ in runs],
                                  [c for _, c in runs],
                                  benchmark["end_to_end"])
        layers = {w["name"]: perfbench(benchmark, trees, w["name"], 1, j)
                  for j, w in enumerate(benchmark["workloads"])}
    finally:
        remove_worktree(parent_tree)

    print(f"ab_check: parent {base} ({sha[:12]}), change = working tree")
    print_table(rows)
    for workload, (parent, change) in layers.items():
        print(f"\nlayer report, {workload} (one traced pair, not gated):")
        for name, p, c, ratio in layer_report(parent, change,
                                              benchmark["per_layer"]):
            print(f"  {name:<30} {p:>12.4g} {c:>12.4g} {fmt(ratio):>8}")
    failed = [r["name"] for r in rows if r["verdict"] == "FAIL"]
    print(f"\nab_check: {'FAIL: ' + ', '.join(failed) if failed else 'PASS'}")
    return 1 if failed else 0


def main(argv):
    if len(argv) > 2 or (len(argv) == 2 and argv[1].startswith("-")):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    try:
        base = argv[1] if len(argv) == 2 else git("merge-base", "HEAD",
                                                  "main")
        return check(base)
    except (Abort, subprocess.CalledProcessError, ValueError) as err:
        detail = getattr(err, "stderr", None) or ""
        print(f"ab_check: {err}\n{detail}".rstrip(), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
