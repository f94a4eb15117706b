"""Run one benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ./src.  The
workload runs in a child process (worker.py), so peak memory does not carry
over between workloads.  With --trace 0 the line holds the end-to-end
metrics, with --trace 1 the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli-session", "decide", "eliminate", "sample")
# Set-up is timed in this many extra processes besides the measured one.
SETUP_PROBES = 4


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer"."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def start_worker(args, env, setup_only: bool):
    """Start a worker; return it and the CPU seconds its set-up took."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    word, _, setup_s = proc.stdout.readline().partition(" ")
    if word != "ready":
        proc.kill()
        proc.wait()
        raise SystemExit(f"error: the {args.workload} worker failed in set-up")
    return proc, float(setup_s)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "multispec", "__init__.py")):
        print("error: no src/multispec here; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # multispec does no BLAS work; numpy's idle BLAS threads would otherwise
    # add about 0.1 CPU-s to every cold start without adding wall time.
    env["OPENBLAS_NUM_THREADS"] = "1"

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, setup_s = start_worker(args, env, setup_only=True)
            proc.stdout.read()
            if proc.wait() != 0:
                print("error: a set-up probe failed", file=sys.stderr)
                return 1
            setups.append(setup_s)
    proc, setup_s = start_worker(args, env, setup_only=False)
    setups.append(setup_s)
    lines = proc.stdout.read().splitlines()
    if proc.wait() != 0 or not lines:
        print(f"error: the {args.workload} worker failed", file=sys.stderr)
        return 1
    run = json.loads(lines[-1])

    if args.trace:
        figures, kind = run["layers"], "per_layer"
    else:
        figures, kind = dict(run, setup_s=statistics.median(setups)), \
            "end_to_end"
    metrics = {name: {"value": figures[name], "unit": unit}
               for name, unit in units(kind).items()}
    print(f"{args.workload}: {run['ops']} operations x {run['rounds']} "
          f"rounds, tail = p{run['tail_pct']}, "
          f"{run['round_s']:.3f} s of operation time per round",
          file=sys.stderr)
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
