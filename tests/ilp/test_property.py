"""Property-based cross-checks between the solver backends."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ilp import BranchBoundSolver, HighsSolver, Model


@st.composite
def small_milp(draw):
    """A random small MILP with bounded binaries (always feasible at 0)."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, 4))
    coeffs = draw(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    rhs = draw(st.lists(st.integers(0, 8), min_size=m, max_size=m))
    obj = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    return n, coeffs, rhs, obj


def _build(n, coeffs, rhs, obj):
    model = Model()
    xs = [model.add_binary(f"x{i}") for i in range(n)]
    for row, b in zip(coeffs, rhs):
        model.add_constraint(sum(c * x for c, x in zip(row, xs)) <= b)
    model.set_objective(sum(c * x for c, x in zip(obj, xs)))
    return model, xs


@given(small_milp())
@settings(max_examples=40, deadline=None)
def test_branch_bound_matches_highs(problem):
    model, _ = _build(*problem)
    ours = BranchBoundSolver().solve(model)
    model2, _ = _build(*problem)
    ref = HighsSolver().solve(model2)
    assert ours.status.has_solution and ref.status.has_solution
    assert ours.objective == pytest.approx(ref.objective, abs=1e-6)


@given(small_milp())
@settings(max_examples=40, deadline=None)
def test_incumbent_satisfies_all_constraints(problem):
    model, xs = _build(*problem)
    solution = BranchBoundSolver().solve(model)
    assignment = {x: solution.value_of(x) for x in xs}
    assert model.check_solution(assignment) == []
    assert all(solution.value_of(x) in (0, 1) for x in xs)
