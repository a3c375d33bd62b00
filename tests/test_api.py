import types

import canonsys as cs


def test_all_names_resolve_and_no_submodule_leaks():
    assert len(set(cs.__all__)) == len(cs.__all__)
    for name in cs.__all__:
        obj = getattr(cs, name)
        assert not isinstance(obj, types.ModuleType), name
    assert "BACKEND" in cs.__all__ and cs.BACKEND == "numpy"


def test_one_solution_type_exported():
    assert "Solution" in cs.__all__ and cs.Solution is cs.solver.Solution
    for name in ("SolutionSampler", "MatrixSolution", "ClosedFormSampler"):
        assert name not in cs.__all__ and not hasattr(cs, name), name
