"""tools/fingerprint.py, the bit-identity check, hashes what it says it does."""

import hashlib
import subprocess
import sys
from pathlib import Path

from elfopt import ElfConfig, NoisyQuadraticEnsemble, rng_streams, run

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


def test_fingerprint_prints_one_hash_per_panel_over_each_runs_decisions():
    out = subprocess.run([sys.executable, str(TOOL), "--seeds", "1000", "1000", "--loads", "200"],
                         capture_output=True, text=True, check=True).stdout
    lines = [line.split() for line in out.splitlines()]
    assert [line[0] for line in lines] == ["quadratic-elf", "logistic-hard", "mlp", "mlp-wide"]
    assert all(line[1:5] == ["seeds", "1000-1000", "loads", "200"] for line in lines)
    # The quadratic panel's hash, restated: the final theta's bytes, every
    # row's repr, then each search's outcome and fit coefficients.
    streams = rng_streams(1000)
    state, log = run(NoisyQuadraticEnsemble(rng=streams.data), ElfConfig(), 200, streams)
    digest = hashlib.sha256(state.theta.tobytes())
    for row in log.rows:
        digest.update(repr(row).encode())
    for search in log.line_searches:
        digest.update(repr((search.minimum_position, search.fit.chosen_degree,
                            search.valid)).encode())
        digest.update(search.fit.polynomial.coefficients.tobytes())
    assert lines[0][5] == digest.hexdigest()
