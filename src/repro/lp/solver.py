"""Solve compiled LPs with scipy's HiGHS backend.

This module is the single point of contact with scipy so the rest of the
library is solver-agnostic: swapping in another backend only requires
re-implementing :func:`solve_lp`.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.errors import InfeasibleError, LPError
from repro.lp.model import LinearProgram, LPSolution


def solve_lp(program: LinearProgram) -> LPSolution:
    """Minimize ``program``'s objective; raise on infeasibility.

    Raises
    ------
    InfeasibleError
        If HiGHS reports the instance infeasible.
    LPError
        For unbounded instances or other solver failures.
    """
    compiled = program.compile()
    n = compiled.num_variables
    if n == 0:
        return LPSolution(program=program, objective=0.0, values=np.empty(0))

    def to_csr(triplets, num_rows):
        data, rows, cols = triplets
        if num_rows == 0:
            return None
        return sparse.csr_matrix(
            (data, (rows, cols)), shape=(num_rows, n)
        )

    a_ub = to_csr(compiled.ub_triplets, len(compiled.ub_rhs))
    a_eq = to_csr(compiled.eq_triplets, len(compiled.eq_rhs))
    bounds = np.column_stack([compiled.lower, compiled.upper])
    objective, b_ub, b_eq = compiled.objective, compiled.ub_rhs, compiled.eq_rhs
    del compiled  # HiGHS's peak need not hold the triplets beside the CSR

    result = linprog(
        c=objective,
        A_ub=a_ub,
        b_ub=b_ub if a_ub is not None else None,
        A_eq=a_eq,
        b_eq=b_eq if a_eq is not None else None,
        bounds=bounds,
        method="highs",
    )
    if result.status == 2:
        raise InfeasibleError(f"LP {program.name!r} is infeasible")
    if result.status != 0:
        raise LPError(
            f"LP {program.name!r} failed: status={result.status} ({result.message})"
        )
    return LPSolution(
        program=program, objective=float(result.fun), values=result.x
    )
