"""Compare benchmark summaries of a parent commit and a change.

Summaries are the files ``run.py --out FILE`` writes.  Either hand them in::

    python3 benchmarks/e2e/compare.py --parent p1.json p2.json ... --change c1.json c2.json ...

or let this script make them, alternating which side runs first (at least
ten pairs are needed before a gain may be claimed)::

    python3 benchmarks/e2e/compare.py --pairs 10 --parent-src ../parent/src --change-src src

Both sides are always measured by *this* checkout's harness, pointed at
each source tree with ``run.py --src``: a change may not edit the
benchmark it is judged by.

One row per workload × end-to-end metric: both medians with quartiles,
the ratio change ÷ parent, the bound from ``BENCHMARK.json`` and a verdict:

* ``unresolved`` — the parent's own inter-quartile spread exceeds the
  bound, so neither "same" nor "worse" can be told;
* ``worse``      — the change's median is worse than the parent's by more
  than the bound;
* ``better``     — the change wins at least nine tenths of ≥ 10 pairs and
  the medians differ by more than the parent's inter-quartile distance;
* ``same``       — anything else.

Exits non-zero on any ``worse``, and when the change fails more
statements or output checks than the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
MIN_PAIRS_FOR_GAIN = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    sign = 1.0 if better == "lower" else -1.0
    if (p3 - p1) / pm > bound:
        return "unresolved"
    if sign * (cm - pm) / pm > bound:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    losses = sum(sign * (c - p) > 0 for p, c in pairs)
    if (
        len(pairs) >= MIN_PAIRS_FOR_GAIN
        and wins >= 0.9 * (wins + losses)
        and sign * (pm - cm) > (p3 - p1)
    ):
        return "better"
    return "same"


def failures(summaries: list[dict], workload: str) -> float:
    """Median error rate, counting a failed output check as a failure."""
    rates = []
    for summary in summaries:
        entry = summary["workloads"][workload]
        wrong = not (entry.get("correct_trace0", True) and entry.get("correct_trace1", True))
        rates.append(max(entry.get("per_layer", {}).get("error_rate", 0.0), float(wrong)))
    return statistics.median(rates)


def compare(parents: list[dict], changes: list[dict]) -> int:
    status = 0
    header = f"{'workload':16s} {'metric':15s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} {'change/parent':>13s} {'bound':>6s}  verdict"
    print(header)
    for workload in parents[0]["workloads"]:
        if workload not in changes[0]["workloads"]:
            continue
        for spec in SPEC["end_to_end"]:
            name = spec["name"]
            parent = [s["workloads"][workload]["end_to_end"][name] for s in parents]
            change = [s["workloads"][workload]["end_to_end"][name] for s in changes]
            outcome = verdict(parent, change, spec["better"], spec["bound"])
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            print(
                f"{workload:16s} {name:15s} "
                f"{pm:12.5g} [{p1:9.5g}, {p3:9.5g}] {cm:12.5g} [{c1:9.5g}, {c3:9.5g}] "
                f"{cm / pm:12.3f}x {spec['bound']:6.2f}  {outcome}"
            )
            status |= outcome == "worse"
        before, after = failures(parents, workload), failures(changes, workload)
        if after > before:
            print(f"{workload:16s} error_rate rose from {before:.4g} to {after:.4g}: worse")
            status = 1
    return status


def measure(src: str, out: Path, args) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--src", src, "--seed", str(args.seed), "--out", str(out)]
    for workload in args.workload or ():
        command += ["--workload", workload]
    subprocess.run(command, stdout=subprocess.DEVNULL, check=False)
    return json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", default=[], help="summary files of the parent commit")
    parser.add_argument("--change", nargs="+", default=[], help="summary files of the change")
    parser.add_argument("--pairs", type=int, help="make the summaries: run parent and change this many times each")
    parser.add_argument("--parent-src", help="the parent commit's src directory (with --pairs)")
    parser.add_argument("--change-src", default=str(HERE.parents[1] / "src"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    if args.pairs:
        if not args.parent_src:
            parser.error("--pairs needs --parent-src")
        parents, changes = [], []
        (HERE / "out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / "out") as scratch:
            for pair in range(args.pairs):
                sides = [("parent", args.parent_src, parents), ("change", args.change_src, changes)]
                for side, src, into in sides if pair % 2 == 0 else reversed(sides):
                    into.append(measure(src, Path(scratch) / f"{side}-{pair}.json", args))
    else:
        if not args.parent or not args.change:
            parser.error("give --parent and --change files, or --pairs")
        parents = [json.loads(Path(path).read_text()) for path in args.parent]
        changes = [json.loads(Path(path).read_text()) for path in args.change]
    return compare(parents, changes)


if __name__ == "__main__":
    sys.exit(main())
