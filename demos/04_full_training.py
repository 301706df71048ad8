#!/usr/bin/env python3
"""Training run comparison: measured step sizes vs fixed learning rates.

Trains the synthetic logistic problem with the line-search optimizer at its
defaults (no tuning) and with SGD/Adam baselines across a small learning-rate
grid, all at the same batch budget. Step accounting includes every batch a
line search or the startup grid search consumes.
"""

import numpy as np

from elfopt.baselines import AdamConfig, SgdConfig, StepDecaySchedule, run_baseline
from elfopt.controller import ElfConfig, run
from elfopt.problems import LogisticBlobs, empirical_loss
from elfopt.seeding import rng_streams

BUDGET = 6000

streams = rng_streams(0)
problem = LogisticBlobs(rng=streams.data)
state, log = run(problem, ElfConfig(), steps_to_train=BUDGET, streams=streams)
consumed = state.t

rows = [(
    "elf (defaults)",
    empirical_loss(problem, state.theta),
    problem.training_accuracy(state.theta),
    f"{len(log.line_searches)} searches, final step {state.update_step:.3f}",
)]

# SgdConfig's momentum is 0.9; Adam has none.
for optimizer, config_class in (("sgd", SgdConfig), ("adam", AdamConfig)):
    for lr in (1e-1, 1e-2, 1e-3, 1e-4):
        s = rng_streams(0)
        p = LogisticBlobs(rng=s.data)
        config = config_class(learning_rate=lr, schedule=StepDecaySchedule())
        theta, _ = run_baseline(p, config, consumed, s)
        rows.append((f"{optimizer} lr={lr:g}", empirical_loss(p, theta),
                     p.training_accuracy(theta), ""))

print(f"batch budget: {consumed} loads each "
      f"(elf: {log.count('sgd')} sgd + {log.count('line_search')} line "
      f"+ {log.count('grid_search')} grid)\n")
print(f"{'optimizer':<16} {'train loss':>12} {'accuracy':>9}   notes")
for name, loss, accuracy, notes in rows:
    print(f"{name:<16} {loss:>12.3e} {accuracy:>9.4f}   {notes}")
