"""Fingerprint elfopt's decisions: one SHA-256 per panel of seeded runs.

    python tools/fingerprint.py                        # this checkout's elfopt
    python tools/fingerprint.py --src ../parent/src    # another checkout's
    python tools/fingerprint.py --seeds 1000 1000 --loads 200

A panel is ``elfopt.run`` with the default ``ElfConfig`` on one problem for
each seed in a range, at a fixed number of loads. A panel's hash covers, run
by run, the final theta's bytes, the repr of every training-log row, and each
line search's minimum, chosen degree, validity and fit coefficients. A change
meant to keep every bit prints the same lines as its parent.

A run's last bits depend on the BLAS thread count (README, Determinism), so
the BLAS and OpenMP pools are pinned to one thread before numpy is imported.
"""

import argparse
import hashlib
import os
import sys
from pathlib import Path

# name -> (problem class, its keyword arguments, first seed, last seed, loads)
PANELS = {
    "quadratic-elf": ("NoisyQuadraticEnsemble", {}, 1000, 1047, 6000),
    "logistic-hard": ("LogisticBlobs", {"separation": 1.0, "cluster_std": 1.0}, 1000, 1015, 6000),
    "mlp": ("MlpBlobs", {}, 1000, 1002, 3000),
    "mlp-wide": ("MlpBlobs", {"n_train": 20000, "n_val": 5000, "hidden1": 256, "hidden2": 256},
                 1000, 1002, 3000),
}


def fingerprint(elfopt, problem_class, kwargs, seeds, loads) -> str:
    digest = hashlib.sha256()
    for seed in seeds:
        streams = elfopt.rng_streams(seed)
        problem = getattr(elfopt, problem_class)(**kwargs, rng=streams.data)
        state, log = elfopt.run(problem, elfopt.ElfConfig(), loads, streams)
        digest.update(state.theta.tobytes())
        for row in log.rows:
            digest.update(repr(row).encode())
        for search in log.line_searches:
            fit = search.fit
            digest.update(repr((search.minimum_position, fit.chosen_degree, search.valid)).encode())
            digest.update(fit.polynomial.coefficients.tobytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"),
                        help="run seeds FIRST..LAST in every panel")
    parser.add_argument("--loads", type=int, help="loads per run in every panel")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the directory elfopt is imported from (default: this checkout's)")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import elfopt
    if not Path(elfopt.__file__).resolve().is_relative_to(src):
        parser.error(f"imported elfopt from {elfopt.__file__}, expected {src}")
    for name, (problem_class, kwargs, first, last, loads) in PANELS.items():
        first, last = args.seeds or (first, last)
        loads = args.loads or loads
        digest = fingerprint(elfopt, problem_class, kwargs, range(first, last + 1), loads)
        print(f"{name} seeds {first}-{last} loads {loads} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
