"""One benchmark round in a fresh interpreter.

Set-up is timed first: importing linecox (with its CLI module) and building
the alpha = 3 exponent table by constructing ``analytic.LaplaceEvaluator``.
Then each command of the workload runs once through ``linecox.cli.main``.
The round writes ``round.json`` (and, when traced, ``spans.json``) into its
output directory.  A fresh interpreter per round means that no cache filled
by one round serves the next, as for a user who runs the CLI.

    python3 perfbench/child.py --workload NAME --seed N --out DIR [--trace] [--setup-only]
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import time
import traceback


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    started = time.perf_counter()
    import linecox
    import linecox.cli
    from linecox import analytic
    imported = time.perf_counter()
    analytic.LaplaceEvaluator(linecox.NetworkParams(lambda_l=3.0, mu=3.0, nu=0.1,
                                                    speed=30.0 / 3600.0, alpha=3.0))
    ready = time.perf_counter()
    result: dict = {"setup_s": ready - started, "table_build_s": ready - imported}

    if not args.setup_only:
        import tracing
        import workloads

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        cmds = workloads.commands(args.workload, args.seed)
        exit_codes = []
        log = io.StringIO()
        begin = time.perf_counter()
        for cmd in cmds:
            argv = list(cmd.argv) + ["--threads", "1", "--out", os.path.join(args.out, cmd.key)]
            with contextlib.redirect_stdout(log):
                try:
                    exit_codes.append(linecox.cli.main(argv))
                except Exception:  # recorded as a failed operation, the round goes on
                    traceback.print_exc(file=log)
                    exit_codes.append(None)
        result["wall_s"] = time.perf_counter() - begin
        result["exit_codes"] = dict(zip((c.key for c in cmds), exit_codes))
        result["log"] = log.getvalue()
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer, result["table_build_s"])
            tracing.dump(tracer, os.path.join(args.out, "spans.json"))

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "round.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
