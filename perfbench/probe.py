"""Set-up probe: one fresh interpreter doing one workload's set-up.

Usage: ``python perfbench/probe.py WORKLOAD SEED START`` where START is
the parent's ``time.monotonic()`` just before it spawned this process.
Prints the seconds from START until the workload is ready to run its
first operation: interpreter start, imports, registry and inputs.
"""

from __future__ import annotations

import sys
import time

import bootstrap  # noqa: F401  (pins BLAS threads before numpy loads)


def main(argv: list[str]) -> int:
    name, seed, start = argv[0], int(argv[1]), float(argv[2])
    bootstrap.add_program_to_path()
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.setup()
    workload.prepare(workload.op(0))
    elapsed = time.monotonic() - start
    workload.teardown()
    print(f"{elapsed!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
