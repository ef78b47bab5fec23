"""Set-up probe: one fresh interpreter imports usptest and writes a workload's
input files, then prints ``ready <import seconds>``.

    python3 bench/probe.py WORKLOAD SEED INPUT_DIR

``run.py`` times several of these, from process start to the ready line,
for the ``setup_s`` metric.
"""

import sys
import time
from pathlib import Path


def main() -> int:
    start = time.perf_counter()
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import usptest
    import usptest.cli  # noqa: F401  (the CLI is what the timed calls run)

    import_s = time.perf_counter() - start
    if not Path(usptest.__file__).resolve().is_relative_to(src):
        print(f"usptest was imported from {usptest.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads

    name, seed, input_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.write_inputs(workloads.build(name, seed, input_dir), input_dir)
    print(f"ready {import_s!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
