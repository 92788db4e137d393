"""k-tuple search over the CC table — Algorithm 1 of the paper.

The frequency adjuster must pick, for each task class ``TC_i``, a frequency
level ``a_i`` such that:

1. **capacity** — the selected core counts fit the machine:
   ``sum_i CC[a_i][i] <= m``;
2. **lowest-first** — the search explores low frequencies before high ones
   (energy priority), i.e. ``j`` descends from ``r-1``;
3. **monotonicity** — ``a_i <= a_j`` for ``i < j``: heavier classes (lower
   ``i``; columns are sorted heaviest-first) never run on slower cores than
   lighter ones.

:func:`search_ktuple` is a faithful transcription of the paper's
backtracking Algorithm 1, including its greedy first-feasible-solution
behaviour and ``O(k * r^2)`` worst case. :func:`exhaustive_search`
enumerates every monotone tuple and returns the one minimising a power
estimate — the "more optimal but more expensive" alternative the paper
mentions and we use for the ablation benchmark.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.cc_table import CCTable
from repro.errors import SearchError
from repro.machine.power import PowerModel

#: Per-core-type capacity declaration: ordered ``(type name, core count)``
#: pairs, as produced by :meth:`repro.machine.topology.MachineConfig.capacities`.
Capacities = Sequence[tuple[str, int]]


def _capacity_layout(
    table: CCTable, num_cores: int, capacities: Optional[Capacities]
) -> tuple[list[int], list[float]]:
    """Map each CC row (operating point) to a capacity bucket.

    Returns ``(bucket_of_row, budgets)``. With ``capacities=None`` every
    row charges one machine-wide bucket of ``num_cores`` — the paper's
    homogeneous setting. With per-type capacities each row charges its
    core type's bucket, because a core of one type can never realise an
    operating point of another.
    """
    if capacities is None:
        return [0] * table.r, [float(num_cores)]
    names = [name for name, _ in capacities]
    if sorted(names) != sorted(table.scale.types):
        raise SearchError(
            f"capacities declare types {names} but the scale has {list(table.scale.types)}"
        )
    total = sum(count for _, count in capacities)
    if total != num_cores:
        raise SearchError(
            f"capacities sum to {total} cores but the machine has {num_cores}"
        )
    bucket = {name: i for i, name in enumerate(names)}
    bucket_of_row = [bucket[table.scale.core_type_of(j)] for j in range(table.r)]
    budgets = [float(count) for _, count in capacities]
    return bucket_of_row, budgets


@dataclass(frozen=True)
class KTupleSolution:
    """A feasible assignment of task classes to frequency levels.

    ``assignment[i]`` is the level index ``a_i`` for class ``i`` (classes in
    CC-table column order, heaviest first). ``core_demand[i]`` is the
    (real-valued) ``CC[a_i][i]`` core count the class needs at that level.
    """

    assignment: tuple[int, ...]
    core_demand: tuple[float, ...]

    @property
    def total_cores(self) -> float:
        return sum(self.core_demand)

    @property
    def levels_used(self) -> tuple[int, ...]:
        """Distinct levels in ascending (fastest-first) order."""
        return tuple(sorted(set(self.assignment)))

    def demand_by_level(self) -> dict[int, float]:
        """Aggregate core demand per frequency level."""
        demand: dict[int, float] = {}
        for level, cores in zip(self.assignment, self.core_demand):
            demand[level] = demand.get(level, 0.0) + cores
        return demand

    def is_monotone(self) -> bool:
        return all(a <= b for a, b in zip(self.assignment, self.assignment[1:]))


def _search(
    i: int,
    a: list[int],
    used: list[float],
    cc: tuple[tuple[float, ...], ...],
    r: int,
    bucket_of_row: list[int],
    budgets: list[float],
) -> bool:
    """Algorithm 1's recursion: assign classes ``i..k-1`` into ``a``.

    A module-level function, not a closure: a closure that calls itself
    holds a reference to itself, and each search would leave a reference
    cycle behind for the garbage collector.
    """
    if i >= len(a):
        return True
    lower = a[i - 1] if i > 0 else 0  # monotonicity bound (constraint 3)
    for j in range(r - 1, lower - 1, -1):  # lowest frequency first (constraint 2)
        b = bucket_of_row[j]
        if cc[j][i] + used[b] <= budgets[b] + 1e-9:
            a[i] = j
            used[b] += cc[j][i]
            if _search(i + 1, a, used, cc, r, bucket_of_row, budgets):
                return True
            used[bucket_of_row[a[i]]] -= cc[a[i]][i]
    return False


def search_ktuple(
    table: CCTable, num_cores: int, *, capacities: Optional[Capacities] = None
) -> Optional[KTupleSolution]:
    """Algorithm 1: backtracking search for the first feasible k-tuple.

    Returns ``None`` when even the all-fastest assignment does not fit
    (the adjuster then falls back to running everything at the fastest
    operating point, i.e. plain work-stealing behaviour).

    With ``capacities`` given (heterogeneous machines) the capacity
    constraint is enforced per core type: each operating point charges
    only its own type's core budget. With one bucket the arithmetic is
    the paper's single running sum, operation for operation.
    """
    if num_cores < 1:
        raise SearchError("num_cores must be >= 1")
    cc = table.rows
    bucket_of_row, budgets = _capacity_layout(table, num_cores, capacities)
    a = [0] * table.k
    used = [0.0] * len(budgets)
    if not _search(0, a, used, cc, table.r, bucket_of_row, budgets):
        return None
    assignment = tuple(a)
    demand = tuple(cc[j][i] for i, j in enumerate(assignment))
    return KTupleSolution(assignment=assignment, core_demand=demand)


def default_power_estimate(
    table: CCTable,
    num_cores: Optional[int] = None,
    *,
    capacities: Optional[Capacities] = None,
) -> Callable[[KTupleSolution], float]:
    """Cubic-in-frequency power proxy: ``P(F_j) ~ (F_j / F_0)^3``.

    With affine voltage scaling, ``V^2 f`` is between quadratic and cubic in
    ``f``; the cube is the classic first-order proxy and needs no calibrated
    power model. When ``num_cores`` is given, cores not demanded by any
    class are charged at the slowest level's power — they spin there under
    the default leftover policy, and their count differs between candidate
    tuples, so omitting them would bias the comparison toward fast tuples.
    On heterogeneous machines (``capacities`` given) leftover cores park at
    *their own type's* slowest operating point, so each type's leftover is
    charged at that point's power.
    """
    scale = table.scale

    if num_cores is not None and capacities is not None:
        bucket_of_row, budgets = _capacity_layout(table, num_cores, capacities)
        slowest_of_bucket: dict[int, int] = {}
        for j in range(table.r):  # rows ascend slow-ward, so the last wins
            slowest_of_bucket[bucket_of_row[j]] = j

        def estimate_typed(solution: KTupleSolution) -> float:
            total = sum(
                cores * scale.relative_speed(level) ** 3
                for level, cores in zip(solution.assignment, solution.core_demand)
            )
            used = [0.0] * len(budgets)
            for level, cores in zip(solution.assignment, solution.core_demand):
                used[bucket_of_row[level]] += cores
            for b, budget in enumerate(budgets):
                leftover = max(0.0, budget - used[b])
                total += leftover * scale.relative_speed(slowest_of_bucket[b]) ** 3
            return total

        return estimate_typed

    def estimate(solution: KTupleSolution) -> float:
        total = sum(
            cores * scale.relative_speed(level) ** 3
            for level, cores in zip(solution.assignment, solution.core_demand)
        )
        if num_cores is not None:
            leftover = max(0.0, num_cores - solution.total_cores)
            total += leftover * scale.relative_speed(scale.slowest_index) ** 3
        return total

    return estimate


def power_model_estimate(
    table: CCTable, power: PowerModel, num_cores: Optional[int] = None
) -> Callable[[KTupleSolution], float]:
    """Energy estimate using a calibrated power model.

    Each class's cores run busy for the ideal iteration time ``T``; cores
    left over by the tuple spin at the slowest level (the default leftover
    policy), so with ``num_cores`` given they are charged at that power.
    The machine baseline is identical across candidates and omitted.
    """

    def estimate(solution: KTupleSolution) -> float:
        total = sum(
            power.busy_power(table.scale[level]) * cores
            for level, cores in zip(solution.assignment, solution.core_demand)
        )
        if num_cores is not None:
            leftover = max(0.0, num_cores - solution.total_cores)
            total += leftover * power.busy_power(table.scale.slowest)
        return table.ideal_time * total

    return estimate


def exhaustive_search(
    table: CCTable,
    num_cores: int,
    *,
    estimate: Optional[Callable[[KTupleSolution], float]] = None,
    capacities: Optional[Capacities] = None,
) -> Optional[KTupleSolution]:
    """Enumerate all monotone k-tuples; return the feasible minimum-power one.

    Complexity is ``C(k + r - 1, r - 1)`` candidates — fine for the small
    tables of real machines, and the yardstick the ablation benchmark
    compares Algorithm 1 against. Feasibility, like the backtracking
    search's, is per core-type bucket when ``capacities`` is given.
    """
    if num_cores < 1:
        raise SearchError("num_cores must be >= 1")
    bucket_of_row, budgets = _capacity_layout(table, num_cores, capacities)
    if estimate is None:
        estimate = default_power_estimate(table, num_cores, capacities=capacities)
    r, k = table.r, table.k
    cc = table.rows

    best: Optional[KTupleSolution] = None
    best_score = float("inf")
    # Monotone non-decreasing assignments == combinations with repetition.
    for combo in itertools.combinations_with_replacement(range(r), k):
        demand = [cc[j][i] for i, j in enumerate(combo)]
        used = [0.0] * len(budgets)
        for j, d in zip(combo, demand):
            used[bucket_of_row[j]] += d
        if any(u > b + 1e-9 for u, b in zip(used, budgets)):
            continue
        candidate = KTupleSolution(assignment=combo, core_demand=tuple(demand))
        score = estimate(candidate)
        # Strictly better always wins; on an *exact* score tie the later
        # (lexicographically larger, i.e. slower) tuple wins — when two
        # assignments cost the same energy, running slower is the
        # energy-priority choice (more thermal/voltage headroom, and the
        # estimate's tie means the extra time is already paid for).
        if score < best_score - 1e-15 or (best is not None and score == best_score):
            best = candidate
            best_score = score
    return best
