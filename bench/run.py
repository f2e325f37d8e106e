"""Closed-loop benchmark of the uta toolkit.

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the toolkit is imported from ``./src``
and nowhere else, so a directory without the sources fails at once.
``--workload all`` runs the three workloads one after another.  The
last line of standard output is one JSON object: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  The lines before it give every metric with its unit, the
failure ratio, each failed job, the output digest and run metadata.  A
traced run also writes its spans to ``.bench_out/``.
"""

import argparse
import signal
import subprocess
import sys

import harness

WORKLOADS = ("enum-verify", "construct", "cli")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="'all' runs every workload in turn, each in its own process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM unwind normally, so child processes are killed and waited
    # for and the run's temporary files are removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        for name in WORKLOADS:
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)],
                           check=True)
        return 0
    harness.report(harness.run_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
