"""Bounded exhaustive model checking of the scheduler's paper invariants.

Algorithm 1 (the k-tuple backtracking search) and the preference lists are
the two pieces of scheduler math the paper *states* properties about but the
code only implicitly assumes. This module cross-checks the real
implementations against those properties over every small configuration:

k-tuple search (:func:`check_ktuple_invariants`), for each generated
``(r, k, m)`` instance:

1. **monotonicity** — the returned tuple satisfies ``a_i <= a_j`` for
   ``i < j`` (heavier classes never run slower than lighter ones);
2. **feasibility** — ``sum_i CC[a_i][i] <= m``;
3. **completeness** — the search returns a solution iff a feasible
   monotone tuple exists at all (checked against brute-force enumeration);
4. **bottom-up minimality** — no feasible monotone tuple is pointwise
   slower (``b_i >= a_i`` for all ``i``, ``b != a``): because the search
   explores lowest frequencies first with full backtracking, its greedy
   answer must be undominated in the slow direction.

Preference lists (:func:`check_preference_invariants`), for every group
count ``u`` up to a bound: the order for ``G_i`` is exactly
``{G_i, G_{i+1}, ..., G_{u-1}, G_{i-1}, ..., G_0}`` (Fig. 5's
rob-the-weaker-first shape), a permutation starting at the own group with
all weaker groups (ascending) before all stronger groups (descending).

``search_fn`` is injectable so the test suite can hand the checker a
deliberately broken copy of the search and assert a counterexample finding
appears — the mutation test that proves the checker has teeth.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Optional, Sequence

from repro.checks.findings import Finding, Severity
from repro.core.cc_table import CCTable, cc_table_from_values
from repro.core.ktuple import KTupleSolution, search_ktuple
from repro.core.preference import preference_order
from repro.errors import ReproError
from repro.machine.operating_point import OperatingPointSpace, homogeneous_space

SearchFn = Callable[[CCTable, int], Optional[KTupleSolution]]

#: Per-class core demands (at the fastest level) used to generate CC tables.
#: The values cross the interesting regimes: sub-core classes that share,
#: unit classes, and heavy classes that only fit at fast levels.
DEFAULT_DEMAND_VALUES = (0.5, 1.0, 2.5)

#: Tolerance mirroring the search's own feasibility slack.
_EPS = 1e-9


def _scale_for(r: int) -> OperatingPointSpace:
    """A strictly-descending ladder with ``r`` levels: F_j = F0 * (r-j)/r."""
    base = 2.0e9
    return homogeneous_space(tuple(base * (r - j) / r for j in range(r)))


def generate_tables(
    max_r: int,
    max_k: int,
    demand_values: Sequence[float] = DEFAULT_DEMAND_VALUES,
) -> Iterator[CCTable]:
    """Every CC table with ``r <= max_r``, ``k <= max_k`` whose fastest-row
    demands are a non-increasing (heaviest-first) choice from
    ``demand_values``."""
    values_desc = tuple(sorted(set(demand_values), reverse=True))
    for r in range(1, max_r + 1):
        scale = _scale_for(r)
        slowdowns = [scale.slowdown(j) for j in range(r)]
        for k in range(1, max_k + 1):
            for base_row in itertools.combinations_with_replacement(values_desc, k):
                values = [[s * d for d in base_row] for s in slowdowns]
                yield cc_table_from_values(values, scale)


def _feasible_monotone_tuples(table: CCTable, m: int) -> list[tuple[int, ...]]:
    """Brute-force enumeration of feasible monotone assignments."""
    r, k = table.r, table.k
    out = []
    for combo in itertools.combinations_with_replacement(range(r), k):
        demand = sum(table[j, i] for i, j in enumerate(combo))
        if demand <= m + _EPS:
            out.append(combo)
    return out


def _config_label(table: CCTable, m: int) -> str:
    row0 = ", ".join(f"{table[0, i]:g}" for i in range(table.k))
    return f"invariants(r={table.r}, k={table.k}, m={m}, CC[0]=[{row0}])"


def _finding(rule_id: str, label: str, message: str) -> Finding:
    return Finding(
        check="invariants",
        rule_id=rule_id,
        severity=Severity.ERROR,
        location=label,
        message=message,
    )


def check_ktuple_invariants(
    *,
    max_r: int = 4,
    max_k: int = 4,
    max_m: int = 16,
    search_fn: SearchFn = search_ktuple,
    demand_values: Sequence[float] = DEFAULT_DEMAND_VALUES,
) -> list[Finding]:
    """Model-check ``search_fn`` over every generated ``(r, k, m)`` instance.

    Returns one finding per violated property per configuration; an empty
    list means the search is correct on the whole bounded space.
    """
    findings: list[Finding] = []
    for table in generate_tables(max_r, max_k, demand_values):
        feasible_cache: Optional[list[tuple[int, ...]]] = None
        for m in range(1, max_m + 1):
            label = _config_label(table, m)
            try:
                solution = search_fn(table, m)
            except ReproError as exc:
                findings.append(
                    _finding("EEWA101", label, f"search raised {type(exc).__name__}: {exc}")
                )
                continue
            if feasible_cache is None:
                feasible_cache = _feasible_monotone_tuples(table, max_m)
            feasible = [
                t
                for t in feasible_cache
                if sum(table[j, i] for i, j in enumerate(t)) <= m + _EPS
            ]
            if solution is None:
                if feasible:
                    findings.append(
                        _finding(
                            "EEWA102",
                            label,
                            f"search found nothing but {len(feasible)} feasible "
                            f"monotone tuple(s) exist, e.g. {feasible[0]}",
                        )
                    )
                continue
            a = tuple(solution.assignment)
            if any(x < 0 or x >= table.r for x in a):
                findings.append(
                    _finding("EEWA103", label, f"assignment {a} has out-of-range levels")
                )
                continue
            if not all(x <= y for x, y in zip(a, a[1:])):
                findings.append(
                    _finding(
                        "EEWA103",
                        label,
                        f"assignment {a} violates monotonicity a_i <= a_j (i < j)",
                    )
                )
            demand = sum(table[j, i] for i, j in enumerate(a))
            if demand > m + _EPS:
                findings.append(
                    _finding(
                        "EEWA104",
                        label,
                        f"assignment {a} demands {demand:g} cores on an "
                        f"m={m} machine (infeasible)",
                    )
                )
            reported = solution.total_cores
            if abs(reported - demand) > _EPS:
                findings.append(
                    _finding(
                        "EEWA104",
                        label,
                        f"solution reports {reported:g} cores but the table "
                        f"says {demand:g}",
                    )
                )
            dominating = [
                b
                for b in feasible
                if b != a and all(bi >= ai for bi, ai in zip(b, a))
            ]
            if dominating:
                findings.append(
                    _finding(
                        "EEWA105",
                        label,
                        f"assignment {a} is not bottom-up minimal: feasible "
                        f"pointwise-slower tuple {dominating[0]} exists",
                    )
                )
    return findings


def check_preference_invariants(*, max_groups: int = 8) -> list[Finding]:
    """Model-check the preference-order implementation for every ``u``."""
    findings: list[Finding] = []
    for u in range(1, max_groups + 1):
        for i in range(u):
            label = f"invariants(preference u={u}, group={i})"
            try:
                order = preference_order(i, u)
            except ReproError as exc:
                findings.append(
                    _finding("EEWA111", label, f"raised {type(exc).__name__}: {exc}")
                )
                continue
            expected = tuple(range(i, u)) + tuple(range(i - 1, -1, -1))
            if sorted(order) != list(range(u)):
                findings.append(
                    _finding(
                        "EEWA112",
                        label,
                        f"order {order} is not a permutation of the {u} groups",
                    )
                )
                continue
            if order != expected:
                findings.append(
                    _finding(
                        "EEWA113",
                        label,
                        f"order {order} deviates from the paper's "
                        f"{{G_i..G_{{u-1}}, G_{{i-1}}..G_0}} shape {expected}",
                    )
                )
    return findings


def check_invariants(
    *,
    max_r: int = 4,
    max_k: int = 4,
    max_m: int = 16,
    max_groups: int = 8,
    search_fn: SearchFn = search_ktuple,
) -> list[Finding]:
    """Run both model checkers with the default bounded spaces."""
    return check_ktuple_invariants(
        max_r=max_r, max_k=max_k, max_m=max_m, search_fn=search_fn
    ) + check_preference_invariants(max_groups=max_groups)
