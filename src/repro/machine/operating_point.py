"""Operating points: the (core type, frequency) generalisation of a ladder.

The paper's machine is homogeneous — one DVFS ladder shared by identical
cores — so every layer of the reproduction historically indexed scheduler
state by a bare frequency level. Heterogeneous machines (big.LITTLE-style
composite cores, and eventually multi-socket domains) break that: two core
types may share an electrical frequency yet deliver different throughput
and draw different power.

An :class:`OperatingPoint` is one (core type, frequency) pair with an
IPC-scaling factor; its *effective* speed is ``frequency * ipc_scale`` —
the rate at which it retires reference cycles. An
:class:`OperatingPointSpace` is the ordered set of all operating points of
a machine, sorted by descending effective speed (ties broken by core-type
declaration order), and provides exactly the index arithmetic
(``slowdown`` / ``relative_speed`` / ``validate_index``) the CC table and
the k-tuple search were already built on — so the scheduler math
generalises by swapping the index set, not the formulas.

A homogeneous machine is the one-type special case: every helper that
consumes an operating-point space behaves bit-identically to the old
flat-ladder code when the space holds a single core type with
``ipc_scale == 1.0`` (multiplying by 1.0 is an IEEE-754 identity), which
is what keeps the golden traces pinned across the refactor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.errors import ConfigurationError

#: The core type used when none is declared — the homogeneous case.
DEFAULT_CORE_TYPE = "core"


@dataclass(frozen=True)
class OperatingPoint:
    """One (core type, frequency) pair a core can run at.

    Parameters
    ----------
    core_type:
        Name of the core type ("core" for homogeneous machines, "big" /
        "little" for composite-core machines).
    frequency:
        Electrical frequency in hertz. Power draw depends on this (and the
        type's voltage curve / kappa), never on the effective speed.
    ipc_scale:
        Relative instructions-per-cycle of this core type against the
        reference type (1.0 = reference). Execution time of a task of
        ``c`` reference cycles is ``c / (ipc_scale * frequency)``.
    """

    core_type: str
    frequency: float
    ipc_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.core_type:
            raise ConfigurationError("an operating point needs a core type name")
        if self.frequency <= 0.0:
            raise ConfigurationError(
                f"frequencies must be positive, got {self.frequency!r}"
            )
        if self.ipc_scale <= 0.0:
            raise ConfigurationError(
                f"ipc_scale must be positive, got {self.ipc_scale!r}"
            )

    @property
    def effective_hz(self) -> float:
        """Reference cycles retired per second at this point."""
        return self.frequency * self.ipc_scale


@dataclass(frozen=True)
class OperatingPointSpace:
    """The ordered set of all operating points of a machine.

    Points are ordered by *descending effective speed*; index 0 is the
    fastest operating point of the whole machine (the Eq.-1 normalisation
    reference), index ``r - 1`` the slowest. Cross-type effective-speed
    ties keep core-type declaration order, so the ordering — and every
    digest derived from it — is deterministic.

    The flat-ladder API (``levels`` / ``slowdown`` / ``relative_speed`` /
    ``validate_index`` / iteration over frequencies) is preserved so the
    CC table and search code consume a space exactly as they consumed a
    flat frequency ladder; the additions are the per-type views:
    :meth:`ladder`, :meth:`index_for`, :meth:`core_type_of`,
    :meth:`type_level_of`.
    """

    points: tuple[OperatingPoint, ...] = field()

    def __init__(self, points: Sequence[OperatingPoint]) -> None:
        points = tuple(points)
        if not points:
            raise ConfigurationError(
                "an operating-point space needs at least one point"
            )
        type_order: list[str] = []
        for p in points:
            if p.core_type not in type_order:
                type_order.append(p.core_type)
        rank = {t: i for i, t in enumerate(type_order)}
        keys = [(-p.effective_hz, rank[p.core_type]) for p in points]
        if any(a > b for a, b in zip(keys, keys[1:])):
            raise ConfigurationError(
                "operating points must be ordered by descending effective "
                "speed (ties in core-type declaration order), got "
                f"{[(p.core_type, p.frequency) for p in points]}"
            )
        seen: set[tuple[str, float]] = set()
        for p in points:
            key = (p.core_type, p.frequency)
            if key in seen:
                raise ConfigurationError(
                    f"duplicate operating point {key} in space"
                )
            seen.add(key)
        ipc_by_type: dict[str, float] = {}
        for p in points:
            ipc = ipc_by_type.setdefault(p.core_type, p.ipc_scale)
            if ipc != p.ipc_scale:
                raise ConfigurationError(
                    f"core type {p.core_type!r} declares conflicting "
                    f"ipc_scale values {ipc!r} and {p.ipc_scale!r}"
                )
        object.__setattr__(self, "points", points)
        self._init_caches()

    def _init_caches(self) -> None:
        # Derived views, stored as NON-field attributes: invisible to the
        # canonical dataclass encoding (digests hash ``points`` alone) and
        # rebuilt by ``dataclasses.replace`` through ``__init__``.
        points = self.points
        object.__setattr__(
            self, "_levels", tuple(p.frequency for p in points)
        )
        object.__setattr__(
            self, "_effective", tuple(p.effective_hz for p in points)
        )
        types: list[str] = []
        for p in points:
            if p.core_type not in types:
                types.append(p.core_type)
        object.__setattr__(self, "_types", tuple(types))
        index_for: dict[tuple[str, int], int] = {}
        type_level: list[int] = []
        counts: dict[str, int] = {}
        for i, p in enumerate(points):
            level = counts.get(p.core_type, 0)
            counts[p.core_type] = level + 1
            index_for[(p.core_type, level)] = i
            type_level.append(level)
        object.__setattr__(self, "_index_for", index_for)
        object.__setattr__(self, "_type_levels", tuple(type_level))
        object.__setattr__(self, "_ladders", {})

    def __setstate__(self, state: dict) -> None:  # pragma: no cover - pickle
        object.__setattr__(self, "points", state["points"])
        self._init_caches()

    def __getstate__(self) -> dict:
        # Pickled across the sweep engine's worker pool: ship the single
        # field, rebuild the caches on the far side.
        return {"points": self.points}

    # -- flat-ladder compatible views -------------------------------------

    @property
    def levels(self) -> tuple[float, ...]:
        """Electrical frequencies of every operating point, in order."""
        return self._levels  # type: ignore[attr-defined]

    @property
    def r(self) -> int:
        """Number of operating points (the paper's ``r`` on one type)."""
        return len(self.points)

    @property
    def fastest(self) -> float:
        """Frequency of the fastest operating point (``F_0``)."""
        return self.levels[0]

    @property
    def slowest(self) -> float:
        """Frequency of the slowest operating point (``F_{r-1}``)."""
        return self.levels[-1]

    @property
    def fastest_index(self) -> int:
        return 0

    @property
    def slowest_index(self) -> int:
        return self.r - 1

    def __len__(self) -> int:
        return self.r

    def __iter__(self) -> Iterator[float]:
        return iter(self.levels)

    def __getitem__(self, index: int) -> float:
        return self.levels[index]

    # -- arithmetic used by the CC table ----------------------------------

    def effective(self, index: int) -> float:
        """Effective speed (reference cycles/second) of point ``index``."""
        return self._effective[index]  # type: ignore[attr-defined]

    def slowdown(self, index: int) -> float:
        """How much slower point ``index`` is than the fastest point.

        Generalises Table I's ``F_0 / F_j`` to effective speeds; on a
        one-type space with ``ipc_scale == 1.0`` this is bit-identical to
        the frequency ratio.
        """
        eff = self._effective  # type: ignore[attr-defined]
        return eff[0] / eff[index]

    def relative_speed(self, index: int) -> float:
        """Normalised capacity of point ``index`` in ``(0, 1]``."""
        eff = self._effective  # type: ignore[attr-defined]
        return eff[index] / eff[0]

    def index_of(self, frequency: float, *, tol: float = 1e-6) -> int:
        """First point whose frequency matches ``frequency`` within ``tol``."""
        for i, f in enumerate(self.levels):
            if abs(f - frequency) <= tol * f:
                return i
        raise ConfigurationError(
            f"{frequency!r} Hz is not a level of {self.levels}"
        )

    def validate_index(self, index: int) -> int:
        """Bounds-check a point index and return it."""
        if not 0 <= index < self.r:
            raise ConfigurationError(
                f"frequency index {index} out of range [0, {self.r})"
            )
        return index

    # -- per-type views ----------------------------------------------------

    @property
    def types(self) -> tuple[str, ...]:
        """Core type names in declaration order."""
        return self._types  # type: ignore[attr-defined]

    @property
    def is_homogeneous(self) -> bool:
        return len(self.types) == 1

    def index_for(self, core_type: str, type_level: int) -> int:
        """Global point index of ``core_type``'s ``type_level``-th point."""
        try:
            return self._index_for[(core_type, type_level)]  # type: ignore[attr-defined]
        except KeyError:
            raise ConfigurationError(
                f"no operating point ({core_type!r}, level {type_level}) "
                f"in space over types {self.types}"
            ) from None

    def core_type_of(self, index: int) -> str:
        """Core type of point ``index``."""
        return self.points[self.validate_index(index)].core_type

    def type_level_of(self, index: int) -> int:
        """Type-local ladder level of point ``index``."""
        return self._type_levels[self.validate_index(index)]  # type: ignore[attr-defined]

    def ladder(self, core_type: str) -> "OperatingPointSpace":
        """The one-type sub-space of ``core_type``'s points, in order.

        On a space that already holds a single type this returns ``self``
        (object identity), so homogeneous machines keep sharing one scale
        object across every core — exactly the pre-refactor layout.
        """
        if self.is_homogeneous:
            if core_type != self.types[0]:
                raise ConfigurationError(
                    f"no core type {core_type!r} in space over {self.types}"
                )
            return self
        ladders = self._ladders  # type: ignore[attr-defined]
        cached = ladders.get(core_type)
        if cached is None:
            points = tuple(p for p in self.points if p.core_type == core_type)
            if not points:
                raise ConfigurationError(
                    f"no core type {core_type!r} in space over {self.types}"
                )
            cached = ladders[core_type] = OperatingPointSpace(points)
        return cached


def homogeneous_space(
    levels: Sequence[float], *, core_type: str = DEFAULT_CORE_TYPE
) -> OperatingPointSpace:
    """A one-type operating-point space from a flat frequency ladder.

    The frequencies must be positive and strictly descending; ``ipc_scale``
    is pinned at 1.0.
    """
    levels = tuple(float(f) for f in levels)
    if not levels:
        raise ConfigurationError("a frequency scale needs at least one level")
    if any(f <= 0.0 for f in levels):
        raise ConfigurationError(f"frequencies must be positive, got {levels}")
    if any(a <= b for a, b in zip(levels, levels[1:])):
        raise ConfigurationError(
            f"frequencies must be strictly descending (F_0 fastest), got {levels}"
        )
    return OperatingPointSpace(
        tuple(OperatingPoint(core_type, f) for f in levels)
    )


def space_from_ladders(
    ladders: Sequence[tuple[str, Sequence[float], float]],
) -> OperatingPointSpace:
    """Build a space from per-type ladders.

    ``ladders`` is a sequence of ``(core_type, frequencies, ipc_scale)``
    triples; each type's frequencies must be strictly descending. The
    points are merged into one space sorted by descending effective speed
    with ties in declaration order.
    """
    if not ladders:
        raise ConfigurationError("need at least one core-type ladder")
    rank: dict[str, int] = {}
    points: list[OperatingPoint] = []
    for core_type, freqs, ipc in ladders:
        if core_type in rank:
            raise ConfigurationError(f"duplicate core type {core_type!r}")
        rank[core_type] = len(rank)
        freqs = tuple(float(f) for f in freqs)
        if not freqs:
            raise ConfigurationError(
                f"core type {core_type!r} needs at least one frequency"
            )
        if any(a <= b for a, b in zip(freqs, freqs[1:])):
            raise ConfigurationError(
                f"core type {core_type!r} frequencies must be strictly "
                f"descending, got {freqs}"
            )
        points.extend(OperatingPoint(core_type, f, ipc) for f in freqs)
    points.sort(key=lambda p: (-p.effective_hz, rank[p.core_type]))
    return OperatingPointSpace(tuple(points))


__all__ = [
    "DEFAULT_CORE_TYPE",
    "OperatingPoint",
    "OperatingPointSpace",
    "homogeneous_space",
    "space_from_ladders",
]
