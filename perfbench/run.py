"""Run one workload of the equitopo benchmark and print its metrics.

    python3 perfbench/run.py --workload static-build --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: the program is imported from
`src/` next to this directory, never from an installed copy.  The last line
of standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; `--trace 0` reports the end-to-end metrics and
`--trace 1` the per-layer metrics of BENCHMARK.json.  Outputs, results and
spans are written under `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"


def prepare(root: Path = ROOT) -> None:
    """Pin BLAS to one thread and make `root/src` the only source of `equitopo`.

    Must run before numpy is imported.  Raises SystemExit when the checkout
    holds no program source.
    """
    src = root / "src"
    if not (src / "equitopo" / "cli.py").is_file():
        raise SystemExit(f"error: no program source at {src}/equitopo; "
                         "run from the root of an equitopo checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    import equitopo
    if Path(equitopo.__file__).resolve().parent != (src / "equitopo").resolve():
        raise SystemExit(f"error: equitopo was imported from {equitopo.__file__}, not {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare()
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    return harness.main(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                        ROOT / ".perfbench")


if __name__ == "__main__":
    raise SystemExit(main())
