#!/usr/bin/env python3
"""One adaptive line search on a noisy batch-loss oracle.

The round oracle measures a whole round of step sizes at once, one fresh
batch per step size. The search runs five rounds of 100 samples, re-choosing
the sampling interval after each round so the point cloud around the located
minimum stays wider than high, and its final fitted minimum is compared
against the brute-force minimizer of the exact average curve over all
batches.
"""

import numpy as np

from elfopt.linesearch import LineSearchConfig, elf_line_search
from elfopt.problems import BatchStream, NoisyQuadraticEnsemble
from elfopt.seeding import rng_streams, substream

streams = rng_streams(0)
problem = NoisyQuadraticEnsemble(n_batches=100, dim=20, rng=streams.data)
theta0 = problem.initial_theta(streams.theta_init)
gradient = problem.batch_gradient(theta0, problem.train_batches[0])
direction = -gradient / np.linalg.norm(gradient)

stream = BatchStream(problem.train_batches, substream(0, "demo_batches"))


def oracle(s):
    return problem.batch_losses_along(theta0, direction, s, stream.next_batches(s.size))


result = elf_line_search(oracle, LineSearchConfig(), streams.line_search,
                         cv_rng=streams.cv)

print(f"batches consumed: {result.batches_consumed}")
print(f"chosen fit degree: {result.fit.chosen_degree}")
for r in range(int(result.rounds.max()) + 1):
    in_round = result.samples.positions[result.rounds == r]
    print(f"  round {r}: {in_round.size:3d} samples on [0, {in_round.max():.3f}]")
print(f"fitted minimum: s = {result.minimum_position:.4f}, "
      f"expected improvement = {result.expected_improvement:.4f}")

# brute force over the exact average curve
grid = np.arange(0.0, 8.0, 1e-4)
profile = np.zeros_like(grid)
for b in problem.train_batches:
    base = problem.batch_loss(theta0, b)
    slope = float(problem.batch_gradient(theta0, b) @ direction)
    curvature = float(direction @ problem.matrices[b] @ direction)
    profile += base + slope * grid + 0.5 * curvature * grid**2
profile /= len(problem.train_batches)
s_star = grid[np.argmin(profile)]
print(f"brute-force minimizer: s = {s_star:.4f} "
      f"({abs(result.minimum_position - s_star) / s_star:.2%} away)")
