"""Micro-benchmarks of the CP solver substrate.

These track the cost of the building blocks MRCP-RM leans on (Section VI's
"the main factor that causes an increase in O is the time it takes ... to
generate and solve the OPL model"): model build time, warm-start list
scheduling, root propagation, and a full budgeted solve, as the batch size
grows.
"""

import pytest

from repro.core.formulation import build_model
from repro.cp.heuristics import list_schedule
from repro.cp.solver import CpSolver, SolverParams
from repro.experiments.configs import micro_batch


@pytest.mark.parametrize("num_jobs", [5, 15, 30])
def test_model_build_scales(benchmark, num_jobs):
    jobs, resources = micro_batch(num_jobs)
    result = benchmark(lambda: build_model(jobs, resources, now=0))
    tasks = len(result.interval_of)
    benchmark.extra_info["tasks"] = tasks
    assert tasks == sum(len(j.tasks) for j in jobs)


@pytest.mark.parametrize("num_jobs", [5, 15, 30])
def test_warm_start_scales(benchmark, num_jobs):
    jobs, resources = micro_batch(num_jobs)
    formulation = build_model(jobs, resources, now=0)
    formulation.model.engine().reset()

    sol = benchmark(lambda: list_schedule(formulation.model, "edf"))
    assert sol is not None
    benchmark.extra_info["late"] = sol.objective


@pytest.mark.parametrize("num_jobs", [5, 15])
def test_full_solve_budgeted(benchmark, num_jobs):
    jobs, resources = micro_batch(num_jobs)
    solver = CpSolver(SolverParams(time_limit=0.5))

    def solve():
        formulation = build_model(jobs, resources, now=0)
        return solver.solve(formulation.model)

    result = benchmark.pedantic(solve, rounds=3, iterations=1)
    assert result.status.has_solution
    benchmark.extra_info["objective"] = result.objective


def test_root_propagation(benchmark):
    jobs, resources = micro_batch(30)
    formulation = build_model(jobs, resources, now=0)
    engine = formulation.model.engine()

    def propagate():
        engine.reset()
        engine.propagate()

    benchmark(propagate)
    benchmark.extra_info["propagations"] = engine.propagation_count
