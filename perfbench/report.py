"""Run the benchmark over several seeds and summarize every metric.

Run from the repository root:

    python3 perfbench/report.py --seeds 1-10
    python3 perfbench/report.py --seeds 1-10 --trace-seeds 1 --json perfbench/baseline.json

Each (workload, seed) is one `run.py` process: untraced for `--seeds`,
traced for `--trace-seeds`.  For every workload and
metric the table shows the median, the quartiles (Python's
`statistics.quantiles(values, n=4)`), the spread (q3 - q1) / median and
the run count, plus the failed-ops ratio over all runs.  End-to-end
spreads above a third of the metric's bound in BENCHMARK.json are marked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    """'1-3,7' -> [1, 2, 3, 7]; '' -> []."""
    seeds = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "unit": results[0]["metrics"][name]["unit"], "runs": len(values)}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_list, default=[1])
    parser.add_argument("--trace-seeds", type=seed_list, default=[])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--json", default=None, help="write the summary here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        entry = {}
        for trace, seeds in ((0, args.seeds), (1, args.trace_seeds)):
            if not seeds:
                continue
            runs = [run_once(workload, s, args.seconds, trace) for s in seeds]
            results = [r for _, r in runs]
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            key = "per_layer" if trace else "end_to_end"
            entry[key] = summarize(results)
            entry[f"{key}_ops"] = {"attempted": attempted, "failed": failed,
                                   "failed_ops_ratio": failed / attempted}
            entry["env"] = runs[0][0]["env"]
            print(f"\n{workload} ({key}, seeds {seeds[0]}..{seeds[-1]}, "
                  f"failed_ops_ratio {failed / attempted:.3g} of {attempted} ops)")
            for name, m in entry[key].items():
                flag = ""
                if name in bounds and name != "setup_s" and m["spread"] > bounds[name] / 3:
                    flag = "  <-- spread above bound/3"
                print(f"  {name:34s} {m['median']:12.6g} {m['unit']:9s} "
                      f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {m['spread']:.3f} "
                      f"n={m['runs']}{flag}", flush=True)
        summary["workloads"][workload] = entry
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
