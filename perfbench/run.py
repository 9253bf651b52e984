"""Benchmark entry point: run one workload for a time budget and report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  A run repeats whole rounds, each in a fresh
interpreter (``child.py``), until ``--seconds`` have passed, then starts
SETUP_SAMPLES more interpreters that only set up.  Every round's outputs are
checked (``checks.py``).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: wall_s (median over rounds of the commands' time after
  set-up), setup_s (median over all set-ups) and peak_rss_mb (largest peak
  resident memory of a round);
* ``--trace 1``: rounds alternate untraced and traced; the per-layer metrics
  are medians over traced rounds, and trace.overhead_s is the traced minus
  the untraced median wall time.  The spans of the last traced round are
  written to ``perfbench/out/spans-<workload>-seed<seed>.json``.

Exit code 0 with a result, 2 for bad arguments or a missing program, 1 when a
round's interpreter itself failed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


class RoundFailed(Exception):
    """A round's interpreter exited abnormally or wrote no result."""


def run_child(workload: str, seed: int, out: Path, trace: bool = False,
              setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise RoundFailed(f"round timed out after {exc.timeout} s") from None
    if proc.returncode != 0:
        raise RoundFailed(f"round exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    try:
        with open(out / "round.json", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise RoundFailed(f"round wrote no result: {exc}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="linecox benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "linecox" / "__init__.py").is_file():
        print(f"error: no linecox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        ref = checks.load_reference(HERE / "reference.json")
    except (OSError, ValueError) as exc:
        print(f"error: cannot read the reference file: {exc}", file=sys.stderr)
        return 2

    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_file = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
    shutil.rmtree(out, ignore_errors=True)
    rounds: list[tuple[bool, dict]] = []
    ops: list[checks.Op] = []
    started = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            round_dir = out / f"round{len(rounds)}"
            res = run_child(args.workload, args.seed, round_dir, trace=traced)
            ops += checks.check_round(args.workload, args.seed, round_dir,
                                      res["exit_codes"], ref)
            if traced:
                shutil.copy(round_dir / "spans.json", spans_file)
            shutil.rmtree(round_dir)
            rounds.append((traced, res))
            print(f"round {len(rounds)}{' traced' if traced else ''}: "
                  f"wall {res['wall_s']:.3f} s, setup {res['setup_s']:.3f} s, "
                  f"rss {res['peak_rss_mb']:.1f} MB", file=sys.stderr)
            done = time.perf_counter() - started >= args.seconds
            if done and (not args.trace or len(rounds) >= 2):
                break
        setups = [res["setup_s"] for _, res in rounds]
        for k in range(SETUP_SAMPLES):
            setups.append(run_child(args.workload, args.seed, out / f"setup{k}",
                                    setup_only=True)["setup_s"])
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)

    failed = [op for op in ops if not op.ok]
    for op in failed:
        print(f"FAILED {op.name}: {op.detail}", file=sys.stderr)
    correct = all(op.name in checks.KNOWN_FAULTS for op in failed)

    plain = [res for traced, res in rounds if not traced]
    if args.trace:
        traced_rounds = [res for t, res in rounds if t]
        layers = {name: statistics.median(r["layers"][name] for r in traced_rounds)
                  for name in tracing.LAYER_METRICS if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced_rounds)
                                      - statistics.median(r["wall_s"] for r in plain))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tracing.LAYER_METRICS.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in plain), "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
