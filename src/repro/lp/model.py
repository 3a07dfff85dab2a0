"""In-memory LP model: variables, linear constraints, minimization objective.

The model is intentionally small: the formulations in this library (PLAN-VNE
and its per-slot SLOTOFF variant) only need bounded continuous variables,
``<=`` / ``>=`` / ``==`` row constraints, and a linear objective. It keeps
numeric columns — bounds and objective per variable, (row, column,
coefficient) per entry, sense and right-hand side per row — so formulations
append whole blocks and compilation is a few vector operations.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import LPError


class ConstraintSense(enum.Enum):
    """Row sense of a linear constraint."""

    LE = "<="
    GE = ">="
    EQ = "=="


#: Sense → the code stored per row.
_SENSE_CODE = {sense: code for code, sense in enumerate(ConstraintSense)}
_GE, _EQ = _SENSE_CODE[ConstraintSense.GE], _SENSE_CODE[ConstraintSense.EQ]
#: Column → dtype. A column is the blocks appended, joined on the first
#: read after an append: large blocks are neither copied nor padded.
_COLUMNS = {
    "lower": np.float64, "upper": np.float64, "objective": np.float64,
    "row": np.int64, "column": np.int64, "coefficient": np.float64,
    "sense": np.int8, "rhs": np.float64,
}


class LinearProgram:
    """A minimization LP under construction.

    Variables are identified by the integer index returned from
    :meth:`add_variable` (or the first index :meth:`add_variables`
    returns for a block); a variable given a name can also be looked up
    by it (used heavily by tests). Only named variables cost a name.
    """

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self.num_variables = self.num_constraints = 0
        self._by_name: dict[str, int] = {}
        self._blocks: dict[str, list[np.ndarray]] = {c: [] for c in _COLUMNS}

    def _append(self, **blocks) -> None:
        for column, values in blocks.items():
            self._blocks[column].append(np.asarray(values, dtype=_COLUMNS[column]))

    def _column(self, column: str) -> np.ndarray:
        blocks = self._blocks[column]
        if len(blocks) != 1:
            blocks[:] = [np.concatenate([np.empty(0, _COLUMNS[column]), *blocks])]
        return blocks[0]

    # -- variables ---------------------------------------------------------

    def add_variable(
        self,
        name: str = "",
        lower: float = 0.0,
        upper: float = math.inf,
        objective: float = 0.0,
    ) -> int:
        """Add a continuous variable and return its index."""
        if name in self._by_name:
            raise LPError(f"duplicate variable name {name!r}")
        index = self.add_variables([lower], [upper], [objective])
        if name:
            self._by_name[name] = index
        return index

    def add_variables(self, lower, upper, objective) -> int:
        """Add a block of unnamed variables; returns the first index.

        ``lower``, ``upper`` and ``objective`` hold one entry per variable;
        arrays of the column's dtype are kept, not copied.
        """
        lower, upper = np.asarray(lower, float), np.asarray(upper, float)
        if not len(lower) == len(upper) == len(objective):
            raise LPError("variable block: bound and objective lengths differ")
        crossed = np.flatnonzero(lower > upper)
        if len(crossed):
            k = crossed[0]
            raise LPError(
                f"variable {self.num_variables + k}: lower bound {lower[k]} "
                f"exceeds upper {upper[k]}"
            )
        self._append(lower=lower, upper=upper, objective=objective)
        self.num_variables += len(lower)
        return self.num_variables - len(lower)

    def variable_index(self, name: str) -> int:
        """Look up a variable index by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise LPError(f"unknown variable {name!r}") from None

    def objective_coefficient(self, variable: int) -> float:
        """Current objective coefficient of a variable."""
        return float(self._column("objective")[variable])

    def set_objective(self, variable: int, coefficient: float) -> None:
        """Set (overwrite) a variable's objective coefficient."""
        self._column("objective")[variable] = float(coefficient)

    def add_objective(self, variable: int, coefficient: float) -> None:
        """Accumulate into a variable's objective coefficient."""
        self._column("objective")[variable] += float(coefficient)

    # -- constraints -------------------------------------------------------

    def add_constraint(
        self,
        terms: dict[int, float] | list[tuple[int, float]],
        sense: ConstraintSense,
        rhs: float,
        name: str = "",
    ) -> int:
        """Add a row ``sum(coef * var) <sense> rhs``; returns the row index.

        ``terms`` may repeat a variable; repeated coefficients accumulate.
        ``name`` only labels errors.
        """
        pairs = terms.items() if isinstance(terms, dict) else terms
        merged: dict[int, float] = {}
        merged_get = merged.get
        num_variables = self.num_variables
        for variable, coefficient in pairs:
            if not 0 <= variable < num_variables:
                raise LPError(f"constraint {name!r}: unknown variable {variable}")
            merged[variable] = merged_get(variable, 0.0) + float(coefficient)
        return self.add_rows(
            [0] * len(merged), list(merged), list(merged.values()), sense, [rhs]
        )

    def add_rows(self, rows, columns, coefficients, sense, rhs) -> int:
        """Add a block of ``len(rhs)`` rows of one sense; returns the first.

        Entry ``k`` is ``coefficients[k]`` at (``rows[k]``, ``columns[k]``),
        rows counted within the block; one entry per cell, order kept.
        Like :meth:`add_variables`, keeps arrays rather than copies.
        """
        rows, columns = np.asarray(rows, np.int64), np.asarray(columns, np.int64)
        if not len(rows) == len(columns) == len(coefficients):
            raise LPError("row block: entry array lengths differ")
        if len(rows) and not (
            0 <= rows.min() and rows.max() < len(rhs)
            and 0 <= columns.min() and columns.max() < self.num_variables
        ):
            raise LPError("row block: entry outside its rows or the variables")
        first = self.num_constraints
        self._append(
            row=rows + first, column=columns, coefficient=coefficients,
            sense=np.full(len(rhs), _SENSE_CODE[sense]), rhs=rhs,
        )
        self.num_constraints += len(rhs)
        return first

    # -- compilation -------------------------------------------------------

    def compile(self) -> "CompiledLP":
        """Compile to the arrays scipy's ``linprog`` expects.

        ``==`` rows form ``A_eq``; ``<=`` rows and negated ``>=`` rows form
        ``A_ub``; each keeps the program's row order and entry order.
        """
        sense, rhs, rows = map(self._column, ("sense", "rhs", "row"))
        sign = np.where(sense == _GE, -1.0, 1.0)

        def part(kept_rows: np.ndarray):
            entries = kept_rows[rows]
            kept = rows[entries]
            data = sign[kept] * self._column("coefficient")[entries]
            renumber = np.cumsum(kept_rows) - 1
            triplets = (data, renumber[kept], self._column("column")[entries])
            return triplets, sign[kept_rows] * rhs[kept_rows]

        ub_triplets, ub_rhs = part(sense != _EQ)
        eq_triplets, eq_rhs = part(sense == _EQ)
        return CompiledLP(
            objective=self._column("objective").copy(),
            lower=self._column("lower").copy(),
            upper=self._column("upper").copy(),
            ub_triplets=ub_triplets,
            ub_rhs=ub_rhs,
            eq_triplets=eq_triplets,
            eq_rhs=eq_rhs,
            num_variables=self.num_variables,
        )


@dataclass
class CompiledLP:
    """Sparse-triplet form of a :class:`LinearProgram`, ready for scipy.

    ``ub_triplets`` / ``eq_triplets`` are ``(data, rows, columns)`` arrays.
    """

    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    ub_triplets: tuple[np.ndarray, np.ndarray, np.ndarray]
    ub_rhs: np.ndarray
    eq_triplets: tuple[np.ndarray, np.ndarray, np.ndarray]
    eq_rhs: np.ndarray
    num_variables: int


@dataclass
class LPSolution:
    """Optimal solution of an LP.

    ``values`` is indexed by variable index; :meth:`value` accepts either an
    index or a variable name (resolved through the originating program).
    """

    program: LinearProgram
    objective: float
    values: np.ndarray

    def value(self, variable: int | str) -> float:
        if isinstance(variable, str):
            variable = self.program.variable_index(variable)
        return float(self.values[variable])
