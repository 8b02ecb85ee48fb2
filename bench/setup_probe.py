"""Time one set-up of a workload in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR COMMAND=CONFIG [COMMAND=CONFIG ...]

Measures importing diracsplit (and with it numpy), parsing every config
file and building every problem the CLI command would propagate, then
prints the elapsed seconds.  Nothing is imported before the clock starts,
so the figure is what a user pays before the first step.
"""

import time

_start = time.perf_counter()

import sys  # noqa: E402


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    from diracsplit.config import parse_config

    for arg in sys.argv[2:]:
        command, _, path = arg.partition("=")
        with open(path, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        if command == "superres":
            for eps in cfg.sweep_epsilons:
                cfg.problem(epsilon=float(eps))
        else:
            cfg.problem()
    print(repr(time.perf_counter() - _start))


main()
