"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers when its assertions hold.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time

import numpy as np

from elfopt.baselines import SgdConfig, StepDecaySchedule, run_baseline
from elfopt.controller import ElfConfig, apply_decrease_factor, run, trigger_terms
from elfopt.linesearch import LineSearchConfig, elf_line_search
from elfopt.poly import Polynomial, closest_minimum_to_zero, evaluate
from elfopt.problems import (
    BatchStream,
    LogisticBlobs,
    MlpBlobs,
    NoisyQuadraticEnsemble,
    batch_losses_along,
    empirical_loss,
)
from elfopt.regression import SampleSet, fit_polynomial, select_degree_and_fit
from elfopt.seeding import rng_streams, substream


def _report(name, elapsed, limit, detail=""):
    print(f"\n[acceptance] {name}: PASS in {elapsed:.2f}s (limit {limit:.0f}s) {detail}")
    assert elapsed < limit


def test_criterion_01_polynomial_fitting_exactness():
    start = time.time()
    rng = np.random.default_rng(0)
    for degree in range(9):
        for _ in range(10):
            positions = np.sort(rng.uniform(-2.0, 2.0, degree + 1))
            while np.unique(positions).size < degree + 1:
                positions = np.sort(rng.uniform(-2.0, 2.0, degree + 1))
            losses = rng.uniform(-4.0, 4.0, degree + 1)
            fit = fit_polynomial(degree, SampleSet(positions, losses))
            recovered = fit(positions)
            scale = np.maximum(np.abs(losses), 1.0)
            assert (np.abs(recovered - losses) / scale < 1e-6).all()

    # residual orthogonality on an overdetermined noisy fit
    positions = rng.uniform(-1.5, 2.5, 300)
    losses = np.sin(positions) + rng.normal(scale=0.1, size=300)
    for degree in (2, 5, 8):
        fit = fit_polynomial(degree, SampleSet(positions, losses))
        lo, hi = positions.min(), positions.max()
        scaled = (positions - 0.5 * (lo + hi)) / (0.5 * (hi - lo))
        design = np.vander(scaled, degree + 1, increasing=True)
        residual = fit(positions) - losses
        for j in range(degree + 1):
            col = design[:, j]
            assert abs(float(residual @ col)) <= 1e-6 * np.linalg.norm(residual) * np.linalg.norm(col)
    _report("criterion 1 (fit exactness + orthogonality)", time.time() - start, 1.0)


def test_criterion_02_degree_selection_fidelity():
    start = time.time()

    def oracle_fit(positions, losses, degree):
        lo, hi = positions.min(), positions.max()
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        design = np.vander((positions - mid) / half, degree + 1, increasing=True)
        coef = np.linalg.solve(design.T @ design, design.T @ losses)
        return coef, mid, half

    def oracle_choice(positions, losses, max_degree, folds, seed):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(positions.size)
        parts = np.array_split(perm, folds)
        last = np.inf
        for degree in range(max_degree + 1):
            errs = []
            for test_idx in parts:
                mask = np.ones(positions.size, dtype=bool)
                mask[test_idx] = False
                coef, mid, half = oracle_fit(positions[mask], losses[mask], degree)
                pred = np.vander((positions[test_idx] - mid) / half,
                                 degree + 1, increasing=True) @ coef
                errs.append(float(np.mean((pred - losses[test_idx]) ** 2)))
            err = float(np.mean(errs))
            if last < err:
                return degree - 1
            if degree == max_degree:
                return max_degree
            last = err
        return max_degree

    matches = 0
    sigmas = (0.01, 0.05, 0.1)
    for case in range(1, 201):
        true_degree = 2 + (case % 4)
        sigma = sigmas[case % 3]
        gen = np.random.default_rng(1000 + case)
        coef = gen.uniform(-1.0, 1.0, true_degree + 1)
        coef[-1] = gen.uniform(0.3, 1.0) * np.sign(gen.uniform(-1, 1) or 1.0)
        positions = gen.uniform(0.0, 2.0, 120)
        losses = np.polynomial.polynomial.polyval(positions, coef)
        losses = losses + gen.normal(scale=sigma, size=120)
        samples = SampleSet(positions, losses)
        report = select_degree_and_fit(samples, 10, 5, np.random.default_rng(case))
        oracle = oracle_choice(positions, losses, 10, 5, case)
        assert report.chosen_degree == oracle
        matches += 1
    assert matches == 200
    _report("criterion 2 (stop-rule equivalence)", time.time() - start, 30.0,
            f"{matches}/200 matched")


def test_criterion_03_line_search_oracle_accuracy():
    start = time.time()
    worst = 0.0
    for seed in range(10):
        streams = rng_streams(seed)
        problem = NoisyQuadraticEnsemble(n_batches=100, dim=20, rng=streams.data)
        theta0 = problem.initial_theta(streams.theta_init)
        gradient = problem.batch_gradient(theta0, problem.train_batches[0])
        d = -gradient / np.linalg.norm(gradient)

        stream = BatchStream(problem.train_batches, substream(seed, "acceptance_batches"))
        result = elf_line_search(
            lambda s: batch_losses_along(problem, theta0, d, s, stream.next_batches(s.size)),
            LineSearchConfig(),
            streams.line_search,
            cv_rng=streams.cv,
        )
        assert result.valid

        # brute force on a dense grid: the empirical profile is the mean of
        # every training batch's loss along the line
        grid = np.arange(0.0, 8.0, 1e-4)
        mean_profile = np.zeros_like(grid)
        for b in problem.train_batches:
            base = problem.batch_loss(theta0, b)
            slope = float(problem.batch_gradient(theta0, b) @ d)
            curvature = float(d @ problem.matrices[b] @ d)
            mean_profile += base + slope * grid + 0.5 * curvature * grid**2
        mean_profile /= len(problem.train_batches)
        s_star = grid[np.argmin(mean_profile)]

        rel = abs(result.minimum_position - s_star) / abs(s_star)
        worst = max(worst, rel)
        assert rel < 0.05, f"seed {seed}: {rel:.2%} from brute-force minimizer"
    _report("criterion 3 (line-search vs brute force)", time.time() - start, 60.0,
            f"worst deviation {worst:.2%}")


def test_criterion_04_noiseless_convergence():
    start = time.time()
    problem = NoisyQuadraticEnsemble(n_batches=1, dim=5, rng=np.random.default_rng(7),
                                     offset_range=(0.0, 0.0))
    theta = problem.initial_theta(np.random.default_rng(1))

    # single search: exact line minimum
    gradient = problem.batch_gradient(theta, 0)
    d = -gradient / np.linalg.norm(gradient)
    single = elf_line_search(lambda s: batch_losses_along(problem, theta, d, s, [0] * s.size),
                             LineSearchConfig(), np.random.default_rng(0))
    a = float(d @ problem.matrices[0] @ d)
    b = float(problem.batch_gradient(theta, 0) @ d)
    exact = -b / a
    assert single.valid
    assert abs(single.minimum_position - exact) < 1e-3

    # repeated searches: steepest descent with measured steps
    rng = np.random.default_rng(0)
    initial_loss = problem.batch_loss(theta, 0)
    searches = 0
    loss = initial_loss
    while searches < 50:
        gradient = problem.batch_gradient(theta, 0)
        norm = np.linalg.norm(gradient)
        if norm == 0.0:
            break
        d = -gradient / norm
        result = elf_line_search(lambda s: batch_losses_along(problem, theta, d, s, [0] * s.size),
                                 LineSearchConfig(), rng)
        searches += 1
        if result.valid:
            theta = theta + result.minimum_position * d
        loss = problem.batch_loss(theta, 0)
        if loss < 1e-6 * initial_loss:
            break
    assert loss < 1e-6 * initial_loss
    assert searches <= 50
    _report("criterion 4 (noiseless convergence)", time.time() - start, 10.0,
            f"{searches} searches to {loss / initial_loss:.1e} of initial loss")


def test_criterion_05_controller_trigger_fidelity():
    start = time.time()

    def independent(t, t_last, ws, factor, last_mean, window_mean, per_step):
        if ((t - t_last + 1) % (ws + 1)) != 0:
            return False
        real = last_mean - window_mean
        expected = last_mean - per_step * (t - t_last)
        return bool(real <= expected * factor)

    rng = np.random.default_rng(5)
    fired = 0
    boundary_cases = 0
    for i in range(1000):
        ws = int(rng.integers(1, 400))
        t_last = int(rng.integers(-1, 10_000))
        if i % 2 == 0:
            # exactly on a window boundary so the loss clause decides
            t = t_last + ws + int(rng.integers(0, 3)) * (ws + 1)
            boundary_cases += 1
        else:
            t = t_last + int(rng.integers(0, 3 * (ws + 1)))
        factor = float(rng.choice([0.0, 0.01, 0.05, 1.0]))
        last_mean = float(rng.normal(scale=2.0))
        window_mean = float(rng.normal(scale=2.0))
        per_step = float(rng.choice([np.inf, 0.0, abs(rng.normal(scale=0.01))]))
        ours = trigger_terms(t, t_last, ws, factor, last_mean, window_mean, per_step)[0]
        assert ours == independent(t, t_last, ws, factor, last_mean, window_mean, per_step)
        fired += ours
    assert fired > 100
    assert boundary_cases == 500
    _report("criterion 5 (trigger predicate replay)", time.time() - start, 5.0,
            f"{fired}/1000 scenarios fired")


def test_criterion_06_decrease_factor_geometry():
    start = time.time()
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(40):
        # random convex-near-origin quartics with an interior minimum
        c2 = rng.uniform(0.3, 2.0)
        c3 = rng.uniform(-0.1, 0.1)
        c4 = rng.uniform(0.0, 0.05)
        c1 = -rng.uniform(0.5, 2.0)
        fit = Polynomial([rng.uniform(0.5, 2.0), c1, c2, c3, c4])
        found = closest_minimum_to_zero(fit, (0.0, 6.0))
        if found is None or found[0] <= 0:
            continue
        s_min, f_min = found
        target = f_min + 0.2 * (evaluate(fit, 0.0) - f_min)
        s = apply_decrease_factor(fit, s_min, 0.2, 6.0)
        if s == s_min:
            continue
        checked += 1
        assert s > s_min
        assert abs(evaluate(fit, s) - target) < 1e-8
        previous = s_min
        for delta in (0.0, 0.05, 0.1, 0.2, 0.4):
            s_d = apply_decrease_factor(fit, s_min, delta, 6.0)
            assert s_d >= previous - 1e-12
            previous = s_d
    assert checked >= 20
    _report("criterion 6 (decrease-factor geometry)", time.time() - start, 1.0,
            f"{checked} convex fits checked")


def test_criterion_07_end_to_end_training():
    start = time.time()
    budget = 6000

    streams = rng_streams(0)
    problem = LogisticBlobs(rng=streams.data)
    state, log = run(problem, ElfConfig(), steps_to_train=budget, streams=streams)
    consumed = state.t
    elf_loss = empirical_loss(problem, state.theta)
    accuracy = problem.training_accuracy(state.theta)
    assert accuracy >= 0.99

    best_sgd = np.inf
    for lr in (1e-1, 1e-2, 1e-3, 1e-4):
        s = rng_streams(0)
        p = LogisticBlobs(rng=s.data)
        config = SgdConfig(learning_rate=lr, momentum=0.9, schedule=StepDecaySchedule())
        theta, _ = run_baseline(p, config, consumed, s)
        best_sgd = min(best_sgd, empirical_loss(p, theta))
    assert elf_loss <= 1.5 * best_sgd
    _report("criterion 7 (end-to-end vs tuned SGD)", time.time() - start, 300.0,
            f"accuracy {accuracy:.4f}, loss {elf_loss:.2e} vs best SGD {best_sgd:.2e} "
            f"at equal budget {consumed}")


def test_criterion_08_gradient_correctness():
    start = time.time()
    problems = [
        NoisyQuadraticEnsemble(n_batches=10, dim=8, rng=np.random.default_rng(1)),
        LogisticBlobs(n_train=400, n_val=100, batch_size=25, rng=np.random.default_rng(2)),
        MlpBlobs(n_train=400, n_val=100, batch_size=25, hidden1=10, hidden2=8,
                 rng=np.random.default_rng(3)),
    ]
    h = 1e-5
    for problem in problems:
        rng = np.random.default_rng(4)
        for _ in range(20):
            theta = problem.initial_theta(rng) + rng.normal(scale=0.2, size=problem.dim)
            batch = problem.train_batches[int(rng.integers(len(problem.train_batches)))]
            grad = problem.batch_gradient(theta, batch)
            fd = np.empty_like(grad)
            for i in range(theta.size):
                e = np.zeros_like(theta)
                e[i] = h
                fd[i] = (problem.batch_loss(theta + e, batch)
                         - problem.batch_loss(theta - e, batch)) / (2.0 * h)
            scale = np.maximum(np.abs(fd), 1.0)
            assert (np.abs(grad - fd) / scale < 1e-4).all()
    _report("criterion 8 (analytic vs finite-difference gradients)",
            time.time() - start, 10.0, f"{len(problems)} problems x 20 probes")


def test_criterion_09_determinism(tmp_path):
    start = time.time()
    from elfopt.cli import main

    fast = ["--set", "elf.line.k=2", "--set", "elf.line.n=30",
            "--set", "elf.line.min_window_size=10", "--set", "elf.window_size=40",
            "--set", "elf.grid_search_probe_steps=5",
            "--set", "quadratic.n_batches=20", "--set", "quadratic.dim=6"]
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["--optimizer", "elf", "--problem", "quadratic", "--steps", "400",
                     "--seed", "11", "--out", str(out), "--quiet"] + fast) == 0
        outs.append(out)
    compared = 0
    for path in sorted(outs[0].glob("*.csv")):
        other = outs[1] / path.name
        assert other.exists()
        assert path.read_bytes() == other.read_bytes()
        compared += 1
    assert compared >= 3
    _report("criterion 9 (byte-identical artifacts)", time.time() - start, 60.0,
            f"{compared} CSV files compared")


def test_criterion_10_budget_accounting(tmp_path):
    start = time.time()
    from elfopt.cli import main

    k, n = 2, 30
    out = tmp_path / "budget"
    assert main(["--optimizer", "elf", "--problem", "quadratic", "--steps", "500",
                 "--seed", "2", "--out", str(out), "--quiet",
                 "--set", f"elf.line.k={k}", "--set", f"elf.line.n={n}",
                 "--set", "elf.line.min_window_size=10", "--set", "elf.window_size=40",
                 "--set", "elf.grid_search_probe_steps=5",
                 "--set", "quadratic.n_batches=20", "--set", "quadratic.dim=6"]) == 0

    rows = [line.split(",") for line in
            (out / "training_log.csv").read_text().splitlines()[1:]]
    total = len(rows)
    sgd = sum(1 for r in rows if r[1] == "sgd")
    line_loads = sum(1 for r in rows if r[1] == "line_search")
    grid_loads = sum(1 for r in rows if r[1] == "grid_search")
    assert sgd + line_loads + grid_loads == total
    assert [int(r[0]) for r in rows] == list(range(1, total + 1))

    searches = len(list(out.glob("line_*.csv")))
    assert line_loads == searches * (k * n + 1)
    for i in range(searches):
        per_line = (out / f"line_{i}.csv").read_text().splitlines()
        assert len(per_line) - 1 == k * n + 1
    _report("criterion 10 (step accounting)", time.time() - start, 60.0,
            f"total {total} = {sgd} sgd + {line_loads} line + {grid_loads} grid")
