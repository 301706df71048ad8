"""elfopt benchmark: one workload per invocation, closed loop, one process.

    python3 bench/run.py --workload quadratic-elf --seed 0 --seconds 40 --trace 0

Run from anywhere inside a checkout; elfopt is imported from the checkout's
``src``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced; with ``--trace 1`` they
are the per-layer ones, from separate traced passes. See bench/README.md.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("quadratic-elf", "mlp-wide-elf", "logistic-hard-cli")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--budget", type=int, default=None,
                        help="override the loads per run (smoke test)")
    parser.add_argument("--panel", type=int, default=None,
                        help="override the number of seeds per run (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for name in ("budget", "panel"):
        if getattr(args, name) is not None and getattr(args, name) < 1:
            parser.error(f"--{name} must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # Pin BLAS/OpenMP pools to one thread before numpy is imported: the load
    # comes from this one process, and unpinned pools made wide-MLP timings
    # erratic on a 2-core machine.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "elfopt" / "__init__.py").is_file():
        print(f"elfopt sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import elfopt
    if not Path(elfopt.__file__).resolve().is_relative_to(src):
        print(f"imported elfopt from {elfopt.__file__}, expected {src}", file=sys.stderr)
        return 2
    import measure

    print(json.dumps(measure.run_benchmark(args, ROOT)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
