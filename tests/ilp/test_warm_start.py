"""Incumbent/cutoff seeding, node accounting, and no-verdict relaxations.

The branch-and-bound rewrite leans on two contracts that must hold on
every model the suite uses:

* incumbent/cutoff seeding never changes the reported optimum, only the
  work needed to prove it;
* relaxations that return no verdict ("unknown") demote the result from
  OPTIMAL instead of being silently pruned.
"""

import numpy as np
import pytest

from repro.ilp import (
    BranchBoundSolver,
    Model,
    SolveStatus,
    solve_model,
)


def _lp(obj, constraints, bounds, integer=False):
    model = Model()
    variables = [
        model.add_var(f"x{i}", lb=lo, ub=hi, is_integer=integer)
        for i, (lo, hi) in enumerate(bounds)
    ]
    for coeffs, sense, rhs in constraints:
        expr = sum(c * v for c, v in zip(coeffs, variables))
        if sense == "<=":
            model.add_constraint(expr <= rhs)
        elif sense == ">=":
            model.add_constraint(expr >= rhs)
        else:
            model.add_constraint(expr == rhs)
    model.set_objective(sum(c * v for c, v in zip(obj, variables)))
    return model, variables


@pytest.mark.parametrize("seed", range(6))
def test_bb_backends_and_seeding_agree(seed):
    """B&B == HiGHS, seeded or not."""
    rng = np.random.default_rng(seed)
    n = 10
    weights = rng.integers(1, 12, n)
    values = rng.integers(1, 20, n)
    model, xs = _lp(
        [-int(v) for v in values],
        [([int(w) for w in weights], "<=", int(weights.sum() // 2))],
        [(0, 1)] * n,
        integer=True,
    )
    reference = solve_model(model, backend="highs")
    assert reference.status is SolveStatus.OPTIMAL

    sol = BranchBoundSolver().solve(model)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(reference.objective)

    # Seeding with the known optimum keeps the optimum.
    seeded = BranchBoundSolver().solve(model, incumbent=reference.values)
    assert seeded.status is SolveStatus.OPTIMAL
    assert seeded.objective == pytest.approx(reference.objective)

    # A cutoff at the optimum means nothing strictly better exists.
    cut = BranchBoundSolver().solve(model, cutoff=reference.objective)
    assert cut.status is SolveStatus.NO_SOLUTION


def test_node_accounting_counts_every_explored_node():
    """Every popped-and-solved node counts once — including integral ones."""
    rng = np.random.default_rng(3)
    n = 12
    weights = rng.integers(2, 9, n)
    values = rng.integers(1, 30, n)
    model, _ = _lp(
        [-int(v) for v in values],
        [([int(w) for w in weights], "<=", int(weights.sum() // 3))],
        [(0, 1)] * n,
        integer=True,
    )
    sol = BranchBoundSolver(rounding_heuristic=False).solve(model)
    assert sol.status is SolveStatus.OPTIMAL
    # The root is node 0; every other LP solved is a node.
    assert sol.stats.lp_solves == sol.stats.nodes + 1
    assert sol.stats.nodes > 0


def test_unknown_relaxation_demotes_optimality(monkeypatch):
    """A no-verdict LP must not be silently pruned as infeasible."""
    from repro.ilp import branch_bound as bb

    rng = np.random.default_rng(3)
    n = 12
    weights = rng.integers(2, 9, n)
    values = rng.integers(1, 30, n)
    model, _ = _lp(
        [-int(v) for v in values],
        [([int(w) for w in weights], "<=", int(weights.sum() // 3))],
        [(0, 1)] * n,
        integer=True,
    )
    # Sanity: this model branches (see the node-accounting test above).
    real_linprog = bb.optimize.linprog
    calls = {"n": 0}

    def flaky_linprog(*args, **kwargs):
        calls["n"] += 1
        result = real_linprog(*args, **kwargs)
        if calls["n"] == 2:  # first child node: pretend numerical failure
            result.status = 4
            result.success = False
        return result

    monkeypatch.setattr(bb.optimize, "linprog", flaky_linprog)
    sol = BranchBoundSolver(rounding_heuristic=False).solve(model)
    assert sol.stats.unknown_lps >= 1
    # With an undecided subtree the search may still find the incumbent,
    # but it must not claim a proof.
    assert sol.status is not SolveStatus.OPTIMAL


@pytest.mark.parametrize("seed", range(10))
def test_rounding_never_returns_infeasible_incumbent(seed):
    """_try_rounding only ever proposes verified-feasible points."""
    from repro.ilp.branch_bound import _Relaxation
    from repro.ilp.presolve import presolve_arrays

    rng = np.random.default_rng(seed)
    n, m = 8, 5
    a_mat = rng.integers(-4, 9, size=(m, n))
    b = rng.integers(4, 30, size=m)
    c = rng.normal(size=n)
    model, _ = _lp(
        c.tolist(),
        [(a_mat[i].tolist(), "<=", int(b[i])) for i in range(m)],
        [(0, 3)] * n,
        integer=True,
    )
    arrays, infeasible = presolve_arrays(model.to_arrays())
    if infeasible:
        pytest.skip("presolve already proved infeasibility")
    oracle = _Relaxation(arrays)
    status, _obj, x = oracle.solve(arrays["lb"], arrays["ub"])
    if status != "optimal":
        pytest.skip(f"root relaxation {status}")
    solver = BranchBoundSolver()
    int_idx = np.where(arrays["integrality"])[0]
    rounded = solver._try_rounding(oracle, x, int_idx)
    if rounded is not None:
        candidate, obj = rounded
        assert oracle.check_point(candidate)
        assert np.all(candidate >= arrays["lb"] - 1e-9)
        assert np.all(candidate <= arrays["ub"] + 1e-9)
        assert np.allclose(
            candidate[int_idx], np.round(candidate[int_idx]), atol=1e-9
        )
        assert obj == pytest.approx(float(np.dot(arrays["c"], candidate)))
