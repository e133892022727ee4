"""Paired benchmark runs of two checkouts, parent and change.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds A-B [--seconds S]

For each seed from A to B, runs `python3 perfbench/run.py --workload W
--seed N --seconds S --trace 0` once in each checkout, one after the other;
the side that runs first switches with each seed.  Each run reads its own
checkout's src/ and perfbench/.  The two checkouts' absolute paths must be
of equal length: plan_large's peak_rss_mb moves with the length of the
checkout path, so runs from paths of different lengths do not compare.

Prints each pair as it finishes, then for each end-to-end metric each
side's median [Q1, Q3], the number of pairs in which the change read
better, the change of the median and a verdict, and whether sim_total_ms
was bit-identical in every pair.  Which way is better, and each metric's
bound, come from the change checkout's BENCHMARK.json.  The verdicts, first
match wins:

    gain        better in at least 9 of 10 pairs, and the medians differ,
                the right way, by more than the parent's Q3 - Q1
    worse       the change's median is worse than the parent's by more than
                the bound, a fraction of the parent's median
    unresolved  the parent's Q3 - Q1 exceeds the bound times its median,
                unless every change run beats every parent run
    no change   anything else

Uses the standard library only.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text: str) -> range:
    """The seeds A to B, both included, of "A-B" (or the one seed of "A")."""
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range: {text}")
    return seeds


def check_checkouts(parent: Path, change: Path) -> None:
    """Refuse checkouts without the benchmark, or whose absolute paths
    differ in length."""
    for checkout in (parent, change):
        if not (checkout / "perfbench" / "run.py").is_file():
            raise SystemExit(f"error: {checkout} has no perfbench/run.py")
    if len(str(parent)) != len(str(change)):
        raise SystemExit(f"error: checkout paths differ in length ({len(str(parent))} and "
                         f"{len(str(change))} characters): {parent}, {change}")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> str:
    """The result line (the last line of output) of one benchmark run."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {checkout} seed {seed} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    return done.stdout.strip().splitlines()[-1]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """The median, Q1 and Q3 of values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def judge(parent: list[float], change: list[float], better: str, bound: float
          ) -> tuple[int, str]:
    """The number of pairs in which the change read better, and the verdict
    on one end-to-end metric (see the module docstring); better is "lower"
    or "higher"."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (p - c) > 0: c is better
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    (pm, p1, p3), (cm, _, _) = _quartiles(parent), _quartiles(change)
    if 10 * wins >= 9 * len(parent) and sign * (pm - cm) > p3 - p1:
        return wins, "gain"
    if sign * (cm - pm) > bound * abs(pm):
        return wins, "worse"
    if p3 - p1 > bound * abs(pm) and not all(sign * (p - c) > 0
                                             for p in parent for c in change):
        return wins, "unresolved"
    return wins, "no change"


def summary(pairs: list[tuple[str, str]], end_to_end: list[dict]) -> str:
    """The report on (parent result line, change result line) pairs, each a
    perfbench/run.py --trace 0 result line of one workload; end_to_end is
    BENCHMARK.json's list of end-to-end metrics, with their better and
    bound."""
    rules = {metric["name"]: (metric["better"], metric["bound"]) for metric in end_to_end}
    results = [(json.loads(parent), json.loads(change)) for parent, change in pairs]
    names = list(results[0][0]["metrics"])
    lines = [f"{len(results)} pairs",
             f"{'metric':<14} {'parent median [Q1, Q3]':>34} {'change median [Q1, Q3]':>34}"
             f" {'better':>7} {'median':>8}  verdict"]
    for name in names:
        parent = [p["metrics"][name]["value"] for p, _ in results]
        change = [c["metrics"][name]["value"] for _, c in results]
        wins, verdict = judge(parent, change, *rules[name])
        (pm, p1, p3), (cm, c1, c3) = _quartiles(parent), _quartiles(change)
        shift = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
        lines.append(f"{name:<14} {f'{pm:.6g} [{p1:.6g}, {p3:.6g}]':>34}"
                     f" {f'{cm:.6g} [{c1:.6g}, {c3:.6g}]':>34} {f'{wins}/{len(results)}':>7}"
                     f" {shift:>8}  {verdict}")
    for side, index in (("parent", 0), ("change", 1)):
        failed = sum(pair[index]["failed"] for pair in results)
        attempted = sum(pair[index]["attempted"] for pair in results)
        incorrect = sum(not pair[index]["correct"] for pair in results)
        lines.append(f"{side}: {failed}/{attempted} operations failed, "
                     f"{incorrect} of {len(results)} runs not correct")
    # repr prints each float exactly and tells -0.0 from 0.0
    identical = all(repr(p["metrics"]["sim_total_ms"]["value"])
                    == repr(c["metrics"]["sim_total_ms"]["value"]) for p, c in results)
    lines.append(f"sim_total_ms bit-identical in every pair: {'yes' if identical else 'no'}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B, both included")
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    check_checkouts(parent, change)
    end_to_end = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

    pairs = []
    for k, seed in enumerate(args.seeds):
        parent_first = k % 2 == 0
        first, second = (parent, change) if parent_first else (change, parent)
        first_line = run_once(first, args.workload, seed, args.seconds)
        second_line = run_once(second, args.workload, seed, args.seconds)
        pair = (first_line, second_line) if parent_first else (second_line, first_line)
        pairs.append(pair)
        values = [{name: metric["value"] for name, metric in json.loads(line)["metrics"].items()}
                  for line in pair]
        print(f"seed {seed} ({'parent' if parent_first else 'change'} first): "
              + ", ".join(f"{name} {values[0][name]:.6g} -> {values[1][name]:.6g}"
                          for name in values[0]), flush=True)
    print(summary(pairs, end_to_end))
    return 0


if __name__ == "__main__":
    sys.exit(main())
