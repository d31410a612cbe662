"""One cold set-up, timed inside a fresh interpreter.

    python3 perfbench/cold_setup.py <workload> <seed> <inputs-dir>

Imports ``noise_lattice`` (and with it numpy) from the checkout's ``src/``
and writes the workload's first pass of inputs, then prints the seconds
that took.  ``run.py`` starts this several times and reports the median
as ``setup_s``, so nothing a set-up imports is already loaded when it is
timed.
"""

import time

T0 = time.perf_counter()

import importlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv) -> int:
    workload, seed, out_dir = argv[0], int(argv[1]), Path(argv[2])
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("noise_lattice.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "noise_lattice").resolve():
        print(f"noise_lattice was imported from {cli.__file__}", file=sys.stderr)
        return 2
    if workload != "check-all":
        sys.path.insert(0, str(HERE))
        import workloads

        workloads.write_pass(workload, seed, 0, out_dir)
    print(repr(time.perf_counter() - T0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
