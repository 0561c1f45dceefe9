#!/usr/bin/env python3
"""Paired in-process timing of two lorentzpol source trees on the benchmark's own operations.

    python3 scripts/paired_timing.py PARENT_SRC CHANGE_SRC --workload lib_recover|lib_simulate
                                     [--blocks N] [--seed S]

PARENT_SRC and CHANGE_SRC are `src` directories (or checkouts holding one),
loaded into one process as `lp_parent` and `lp_change` by parity.py's `load`.
Each tree gets a `Bench` of benchmark/run.py, which is imported without
writing byte code and is not changed.  Every block is one `truth.draw_block`
of the workload's deck (100 sets); both trees run the whole block through
`Bench.recover_chain` (lib_recover) or `Bench.forward_chain` (lib_simulate),
one after the other, the parent first on even blocks and the change first on
odd ones.  Both trees see the same sets in the same order, so host load that
lasts longer than a block falls on both halves of a pair.

Prints the median over blocks of the time ratio parent / change (above 1:
the change is faster) with its quartiles, the share of blocks the change won,
each tree's median time per set and the number of answers that differ between
the trees.  Every answer goes through truth.py's oracle; exits 1 if one fails.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter_ns

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def chain(bench, workload: str):
    """The workload's chain on one case, as (exit code, answer)."""
    if workload == "lib_recover":
        return lambda case: bench.recover_chain(case.text)
    return lambda case: (0, bench.forward_chain(case))


def timed(run, cases) -> tuple[int, list]:
    """Nanoseconds for run() over the cases, and their answers."""
    t0 = perf_counter_ns()
    answers = [run(case) for case in cases]
    return perf_counter_ns() - t0, answers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--workload", choices=("lib_recover", "lib_simulate"), required=True)
    parser.add_argument("--blocks", type=int, default=300, help="100-set blocks per tree (default 300)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.blocks < 1:
        parser.error("--blocks must be at least 1")

    sys.dont_write_bytecode = True  # nothing is written under benchmark/
    sys.path[:0] = [str(ROOT / "scripts"), str(ROOT / "benchmark")]
    load = importlib.import_module("parity").load
    run = importlib.import_module("run")
    truth = importlib.import_module("truth")

    recover = args.workload == "lib_recover"
    deck = truth.RECOVER_DECK if recover else truth.FORWARD_DECK
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        benches = [run.Bench(load(src, name, Path(tmp)), args.seed, None)
                   for src, name in ((args.parent_src, "lp_parent"), (args.change_src, "lp_change"))]
        runs = [chain(bench, args.workload) for bench in benches]
        rng = np.random.default_rng(args.seed)
        warm_up = truth.draw_block(rng, deck, with_text=recover)
        for go in runs:
            timed(go, warm_up)
        ratios, per_set, differing = [], ([], []), 0
        for block in range(args.blocks):
            cases = truth.draw_block(rng, deck, with_text=recover)
            order = (0, 1) if block % 2 == 0 else (1, 0)
            ns, answers = [0, 0], [None, None]
            for i in order:
                ns[i], answers[i] = timed(runs[i], cases)
            ratios.append(ns[0] / ns[1])
            for i in (0, 1):
                per_set[i].append(ns[i] / len(cases) / 1e3)
                for case, (code, text) in zip(cases, answers[i]):
                    benches[i].check(case, code, text, recover)
            differing += sum([a != b for a, b in zip(*answers)])

    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    wins = sum([r > 1.0 for r in ratios])
    print(f"workload {args.workload}, {args.blocks} blocks of {truth.BLOCK} sets per tree, seed {args.seed}")
    print(f"time ratio parent/change: median {median:.3f} (quartiles {q1:.3f}-{q3:.3f}); "
          f"change faster in {wins} of {len(ratios)} blocks")
    print(f"median us per set: parent {statistics.median(per_set[0]):.1f}, "
          f"change {statistics.median(per_set[1]):.1f}")
    print(f"answers differing between the trees: {differing}")
    failed = 0
    for name, bench in zip(("parent", "change"), benches):
        if bench.tally.failed:
            print(f"{name}: {bench.tally.failed} of {bench.tally.attempted} answers failed the oracle: "
                  + "; ".join(bench.tally.reasons), file=sys.stderr)
        failed += bench.tally.failed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
