"""One workload in its own process: set-up, timed rounds, checks.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  Prints
"ready <seconds>" once set-up is done, with the CPU seconds this process
and its children have used since it started, then, unless --setup-only,
one JSON line with the run's figures.  Every time is scaled by a
reference task (reference.py), set-up by the cold-start one.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import sys
from time import perf_counter, process_time

import reference
from spans import NullTracer, Tracer

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "BENCHMARK.json")


def layer_metrics(rounds, import_times) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json: the figure of each round
    (seconds busy, or a count), median over the rounds of the run.
    cli.import_s is the median cold import; a layer not reached reads 0."""
    with open(BENCHMARK) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    out = {}
    for name in names:
        if name == "cli.import_s":
            out[name] = statistics.median(import_times)
        elif name == "multicone.accept_ratio":
            out[name] = statistics.median(
                r["multicone.accepted"] / r["multicone.member_calls"]
                if r.get("multicone.member_calls") else 0.0 for r in rounds)
        else:
            out[name] = statistics.median(r.get(name, 0.0) for r in rounds)
    return out


def timed_rounds(wl, tr, seconds: float, seed: int, traced: bool):
    """Whole rounds over every operation, in a seeded order (the session's
    own order for cli-session), until the run length has passed and the
    workload's minimum of rounds has run.  Each operation runs between two
    reference tasks and its time is scaled by their mean.  Garbage is
    collected after each operation, untimed, so that no operation pays for
    the garbage of the one before it.  Returns each operation's scaled
    times, its first-round output, and failure counts."""
    rng = random.Random(seed)
    order = list(range(len(wl.ops)))
    times: dict[str, list[float]] = {op_id: [] for op_id, _ in wl.ops}
    first: dict[str, object] = {}
    prints: dict[str, object] = {}
    failed = mismatched = rounds = 0
    failed_ids: set[str] = set()
    start = perf_counter()
    gc.collect()
    ref_before = wl.ref_task()
    while perf_counter() - start < seconds or rounds < wl.min_rounds:
        if wl.shuffle:
            rng.shuffle(order)
        tr.begin_round()
        for i in order:
            op_id, fn = wl.ops[i]
            t0 = wl.clock()
            out = fn()
            busy = wl.clock() - t0
            gc.collect()
            ref_after = wl.ref_task()
            scale = 2 * wl.nominal_s / (ref_before + ref_after)
            ref_before = ref_after
            times[op_id].append(busy * scale)
            tr.end_op(scale)
            if wl.failed(op_id, out):
                failed += 1
                failed_ids.add(op_id)
            if traced:
                wl.account(op_id, out)
            fp = wl.fingerprint(op_id, out)
            if op_id not in first:
                first[op_id], prints[op_id] = out, fp
            elif prints[op_id] != fp:
                mismatched += 1
                print(f"{op_id}: output differs between rounds",
                      file=sys.stderr)
        rounds += 1
    return times, rounds, first, failed, mismatched, failed_ids


def tail_pct(n_ops: int) -> int:
    """The highest whole percentile with at least ten operations beyond it
    (nearest rank)."""
    return max(p for p in range(1, 100)
               if n_ops - math.ceil(p / 100 * n_ops) >= 10)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # Set-up is a cold start: it is scaled by the cold-start reference run
    # before and after it, whose own CPU time is left out.
    ref_start = reference.cold_start()
    t0 = process_time()
    import multispec.cli  # noqa: F401  (the package's full import, cold)
    import_s = process_time() - t0
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    tr = Tracer(cls.clock) if args.trace else NullTracer()
    wl = cls(tr)
    wl.warm_up()
    used = [resource.getrusage(who) for who in (resource.RUSAGE_SELF,
                                                resource.RUSAGE_CHILDREN)]
    setup_s = sum(r.ru_utime + r.ru_stime for r in used) - ref_start
    scale = 2 * reference.COLD_START_S / (ref_start + reference.cold_start())
    import_s *= scale
    print("ready", setup_s * scale, flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        import multispec.semigroup
        from multispec.multicone import MulticoneSystem
        tr.wrap(multispec.semigroup, "cone_feasible", "linear.lp_s",
                "linear.lp_solves")
        tr.wrap(MulticoneSystem, "member", "multicone.member_s",
                "multicone.member_calls", "multicone.accepted")
    try:
        times, rounds, first, failed, mismatched, failed_ids = timed_rounds(
            wl, tr, args.seconds, args.seed, bool(args.trace))
    finally:
        tr.restore()
    peak_rss_mb = wl.peak_rss_mb()

    problems = 0
    for op_id, out in first.items():
        if op_id in failed_ids:
            continue
        for msg in wl.check(op_id, out, random.Random(f"{args.seed}:{op_id}")):
            problems += 1
            print(f"{op_id}: {msg}", file=sys.stderr)

    # Each operation's time is its median over the rounds; the end-to-end
    # figures are taken over those, one per operation of the corpus.
    per_op = sorted(statistics.median(t) for t in times.values())
    pct = tail_pct(len(per_op))
    result = {
        "correct": problems == 0 and mismatched == 0,
        "attempted": rounds * len(per_op), "failed": failed,
        "ops": len(per_op), "rounds": rounds,
        "op_median_s": statistics.median(per_op),
        "op_tail_s": per_op[math.ceil(pct / 100 * len(per_op)) - 1],
        "tail_pct": pct,
        "ops_per_s": len(per_op) / sum(per_op),
        "round_s": sum(sum(t) for t in times.values()) / rounds,
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        imports = getattr(wl, "import_times", None) or [import_s]
        result["layers"] = layer_metrics(tr.rounds, imports)
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        tr.write(os.path.join(workloads.OUT_DIR, f"trace-{args.workload}-"
                              f"seed{args.seed}.json"),
                 {"workload": args.workload, "seed": args.seed, **result})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
