"""Pulse-sequence compiler: ideal pi-pulse schedules with exact rational timing.

All schedules are expressed on the unit interval as fractions of the total
duration.  Instants are kept as exact `fractions.Fraction` values wherever the
construction is rational (CPMG, PDD, iterated CPMG, concatenated families,
the polynomial-timed double-layer family); Uhrig instants for n >= 3 are
irrational and stored as floats.  Coincident pulses arising from
concatenation are merged through the single-qubit Pauli algebra modulo
global phase, so emitted schedules never contain two pulses at one instant
and never contain an identity pulse.

Concatenation products are read as operator products: the rightmost factor
acts first in time, which places junction pulses at block starts.  Boundary
pulses at instant 0 (or 1) are retained; they change the net unitary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence


class PauliAxis(str, Enum):
    """Pulse rotation axis; I only ever appears as a cancellation result."""

    I = "I"
    X = "X"
    Y = "Y"
    Z = "Z"


# Single-qubit Pauli products modulo global phase.
_PRODUCT = {}
for _a in PauliAxis:
    _PRODUCT[(PauliAxis.I, _a)] = _a
    _PRODUCT[(_a, PauliAxis.I)] = _a
    _PRODUCT[(_a, _a)] = PauliAxis.I
for _a, _b, _c in (
    (PauliAxis.X, PauliAxis.Y, PauliAxis.Z),
    (PauliAxis.Y, PauliAxis.Z, PauliAxis.X),
    (PauliAxis.Z, PauliAxis.X, PauliAxis.Y),
):
    _PRODUCT[(_a, _b)] = _c
    _PRODUCT[(_b, _a)] = _c


def compose_axes(first: PauliAxis, second: PauliAxis) -> PauliAxis:
    """Axis of the product of two Pauli rotations, global phase discarded."""
    return _PRODUCT[(PauliAxis(first), PauliAxis(second))]


Instant = Fraction | float


@dataclass(frozen=True)
class Pulse:
    """An instantaneous pi pulse at a fraction of the total duration.

    ``instant`` is a Fraction when the schedule construction fixes it
    exactly, otherwise a float.  Exactness is carried by the type.
    """

    instant: Instant
    axis: PauliAxis

    def __post_init__(self):
        object.__setattr__(self, "axis", PauliAxis(self.axis))
        if self.axis is PauliAxis.I:
            raise ValueError("identity pulses are merged away, not emitted")
        if not 0 <= self.instant <= 1:
            raise ValueError(f"pulse instant {self.instant} outside [0, 1]")

    @property
    def is_exact(self) -> bool:
        return isinstance(self.instant, Fraction)

    @property
    def t_frac(self) -> float:
        return float(self.instant)


@dataclass(frozen=True)
class PulseSequence:
    """An ordered pi-pulse schedule over a total duration.

    Invariants: instants strictly increasing in [0, 1]; no identity pulses.
    Instances are immutable and safe to share across threads.
    """

    total_duration: float
    pulses: tuple[Pulse, ...]
    label: str = ""
    family: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.total_duration <= 0:
            raise ValueError("total_duration must be positive")
        object.__setattr__(self, "pulses", tuple(self.pulses))
        for prev, cur in zip(self.pulses, self.pulses[1:]):
            if not prev.instant < cur.instant:
                raise ValueError("pulse instants must be strictly increasing")

    @property
    def pulse_count(self) -> int:
        return len(self.pulses)

    def axis_count(self, axis: PauliAxis) -> int:
        axis = PauliAxis(axis)
        return sum(1 for p in self.pulses if p.axis is axis)

    def filter_axis(self, axis: PauliAxis) -> "PulseSequence":
        """Sub-schedule containing only pulses about the given axis."""
        axis = PauliAxis(axis)
        return PulseSequence(
            total_duration=self.total_duration,
            pulses=tuple(p for p in self.pulses if p.axis is axis),
            label=f"{self.label}[{axis.value}]",
            family=dict(self.family),
        )

    def with_duration(self, total_duration: float) -> "PulseSequence":
        return PulseSequence(total_duration, self.pulses, self.label, dict(self.family))


def merge_pulses(items: Iterable[tuple[Instant, PauliAxis]]) -> tuple[Pulse, ...]:
    """Sort raw (instant, axis) pairs and merge coincident pulses.

    Coincidence is exact value equality (a Fraction and an equal float merge;
    the exact representative is kept).  Each coincident group composes
    through the Pauli algebra; identity results are dropped.
    """
    merged = _merge_raw((instant, PauliAxis(axis)) for instant, axis in items)
    return tuple(Pulse(i, a) for i, a in merged)


def _merge_raw(items: Iterable[tuple[Instant, PauliAxis]]) -> list[tuple[Instant, PauliAxis]]:
    """merge_pulses on PauliAxis-typed pairs, returning unvalidated pairs."""
    ordered = sorted(items, key=lambda p: float(p[0]))
    merged: list[tuple[Instant, PauliAxis]] = []
    for instant, axis in ordered:
        if merged and merged[-1][0] == instant:
            prev_instant, prev_axis = merged[-1]
            if isinstance(prev_instant, Fraction):
                instant = prev_instant
            merged[-1] = (instant, _PRODUCT[(prev_axis, axis)])
        else:
            merged.append((instant, axis))
    return [(i, a) for i, a in merged if a is not PauliAxis.I]


# ---------------------------------------------------------------------------
# Uhrig and classic families
# ---------------------------------------------------------------------------

def udd_instants(n: int) -> list[float]:
    """Uhrig pulse instants sin^2(pi j / (2(n+1))), j = 1..n, as fractions of t.

    Strictly increasing and symmetric about 1/2.  n = 0 gives an empty list.
    """
    if n < 0:
        raise ValueError("pulse count must be non-negative")
    return [math.sin(math.pi * j / (2 * (n + 1))) ** 2 for j in range(1, n + 1)]


def _udd_raw(n: int) -> list[Instant]:
    # n = 1 and n = 2 are the only Uhrig schedules with rational instants.
    if n == 1:
        return [Fraction(1, 2)]
    if n == 2:
        return [Fraction(1, 4), Fraction(3, 4)]
    return list(udd_instants(n))


def udd_sequence(n: int, total_duration: float = 1.0, axis: PauliAxis = PauliAxis.Z) -> PulseSequence:
    """Uhrig sequence of n pulses about one axis.

    Instants are exact rationals for n in {1, 2} and floats otherwise.
    """
    if n < 1:
        raise ValueError("need at least one pulse")
    axis = PauliAxis(axis)
    pulses = merge_pulses((x, axis) for x in _udd_raw(n))
    return PulseSequence(total_duration, pulses, f"UDD-{n}", {"name": "udd", "n": n, "axis": axis.value})


def spin_echo(total_duration: float = 1.0, axis: PauliAxis = PauliAxis.Z) -> PulseSequence:
    """Single pi pulse at the midpoint."""
    axis = PauliAxis(axis)
    pulses = merge_pulses([(Fraction(1, 2), axis)])
    return PulseSequence(total_duration, pulses, "SE", {"name": "se", "axis": axis.value})


def cpmg(total_duration: float = 1.0, axis: PauliAxis = PauliAxis.Z) -> PulseSequence:
    """Two-pulse cycle: free t/4, pulse, free t/2, pulse, free t/4."""
    axis = PauliAxis(axis)
    pulses = merge_pulses([(Fraction(1, 4), axis), (Fraction(3, 4), axis)])
    return PulseSequence(total_duration, pulses, "CPMG", {"name": "cpmg", "axis": axis.value})


def pdd(n: int, total_duration: float = 1.0, axis: PauliAxis = PauliAxis.Z) -> PulseSequence:
    """Periodic (equidistant) sequence: n pulses at j/(n+1)."""
    if n < 1:
        raise ValueError("need at least one pulse")
    axis = PauliAxis(axis)
    pulses = merge_pulses((Fraction(j, n + 1), axis) for j in range(1, n + 1))
    return PulseSequence(total_duration, pulses, f"PDD-{n}", {"name": "pdd", "n": n, "axis": axis.value})


def icpmg(cycles: int, total_duration: float = 1.0, axis: PauliAxis = PauliAxis.Z) -> PulseSequence:
    """Iterated two-pulse cycles: 2*cycles pulses at odd multiples of 1/(4*cycles)."""
    if cycles < 1:
        raise ValueError("need at least one cycle")
    axis = PauliAxis(axis)
    pulses = merge_pulses((Fraction(2 * k - 1, 4 * cycles), axis) for k in range(1, 2 * cycles + 1))
    return PulseSequence(
        total_duration, pulses, f"iCPMG-{cycles}", {"name": "icpmg", "c": cycles, "axis": axis.value}
    )


# ---------------------------------------------------------------------------
# Concatenated families
# ---------------------------------------------------------------------------

def _embed(items: Sequence[tuple[Instant, PauliAxis]], block: int, nblocks: int) -> list[tuple[Instant, PauliAxis]]:
    """Rescale relative instants into the block-th of nblocks equal windows."""
    out = []
    for instant, axis in items:
        if isinstance(instant, Fraction):
            # (block + instant) / nblocks, exactly and in lowest terms.
            den = instant.denominator
            out.append((Fraction(block * den + instant.numerator, nblocks * den), axis))
        else:
            out.append(((block + instant) / nblocks, axis))
    return out


def _concatenate(
    base: Sequence[tuple[Instant, PauliAxis]],
    junction_axes: Sequence[PauliAxis],
    levels: int,
) -> tuple[Pulse, ...]:
    """Iterate p -> (J_1 p)(J_2 p)... with junction pulses at block starts.

    The written recursion is an operator product, so the rightmost factor
    acts first; per level the junction axes are applied in reversed written
    order.  Coincident pulses merge at every level; levels pass raw
    (instant, axis) pairs and only the emitted schedule is validated.
    """
    nblocks = len(junction_axes)
    time_order = list(reversed(junction_axes))
    current = list(base)
    for _ in range(levels):
        nxt: list[tuple[Instant, PauliAxis]] = []
        for b in range(nblocks):
            nxt.append((Fraction(b, nblocks), time_order[b]))
            nxt.extend(_embed(current, b, nblocks))
        current = _merge_raw(nxt)
    return tuple(Pulse(i, a) for i, a in current)


def cdd_full(level: int, total_duration: float = 1.0, base: PulseSequence | None = None) -> PulseSequence:
    """Four-block concatenation p -> p X p Z p X p Z over a base schedule.

    Level 0 returns the base (free evolution when base is None).  Junction
    pulses land at block starts and merge with any coincident base pulses;
    the post-cancellation count grows asymptotically by a factor 4 per level.
    """
    if level < 0:
        raise ValueError("level must be non-negative")
    start = [(p.instant, p.axis) for p in base.pulses] if base is not None else []
    pulses = _concatenate(start, [PauliAxis.X, PauliAxis.Z, PauliAxis.X, PauliAxis.Z], level)
    fam = {"name": "cdd", "m": level}
    if base is not None:
        fam["base"] = base.family.get("name", base.label)
    return PulseSequence(total_duration, pulses, f"CDD-{level}", fam)


def cdd_xx(level: int, total_duration: float = 1.0, base: PulseSequence | None = None) -> PulseSequence:
    """Two-block concatenation p -> p X p X; adjacent X pulses cancel.

    Over free evolution, level 2 reproduces the two-pulse CPMG cycle and the
    surviving pulse count follows a_n = (2/3)(2^n - (-1)^n).
    """
    if level < 0:
        raise ValueError("level must be non-negative")
    start = [(p.instant, p.axis) for p in base.pulses] if base is not None else []
    pulses = _concatenate(start, [PauliAxis.X, PauliAxis.X], level)
    fam = {"name": "cddxx", "n": level}
    if base is not None:
        fam["base"] = base.family.get("name", base.label)
    return PulseSequence(total_duration, pulses, f"CDDxx-{level}", fam)


def cudd(m: int, n: int, total_duration: float = 1.0) -> PulseSequence:
    """X-type concatenation of level n over Uhrig Z-blocks of m pulses.

    Yields m*2^n Z pulses plus a_n X pulses; each Uhrig block spans t/2^n.
    """
    if m < 1:
        raise ValueError("need at least one pulse per block")
    if n < 0:
        raise ValueError("level must be non-negative")
    base = udd_sequence(m, 1.0, PauliAxis.Z)
    seq = cdd_xx(n, total_duration, base)
    return PulseSequence(total_duration, seq.pulses, f"CUDD(m={m},n={n})", {"name": "cudd", "m": m, "n": n})


def cpmg_udd(m: int, cycles: int = 1, total_duration: float = 1.0) -> PulseSequence:
    """Iterated two-pulse cycles whose free segments carry Uhrig Z-blocks.

    4*cycles blocks of duration t/(4*cycles) each hold an m-pulse Z-block;
    X pulses sit mid-cycle at odd multiples of 1/(4*cycles).  cycles = 1 is
    the single cycle of total duration four block lengths.
    """
    if m < 1:
        raise ValueError("need at least one pulse per block")
    if cycles < 1:
        raise ValueError("need at least one cycle")
    nblocks = 4 * cycles
    items: list[tuple[Instant, PauliAxis]] = []
    block = _udd_raw(m)
    for b in range(nblocks):
        items.extend(_embed([(x, PauliAxis.Z) for x in block], b, nblocks))
    items.extend((Fraction(2 * k - 1, 4 * cycles), PauliAxis.X) for k in range(1, 2 * cycles + 1))
    return PulseSequence(
        total_duration,
        merge_pulses(items),
        f"CPMG-UDD(m={m},c={cycles})",
        {"name": "cpmg_udd", "m": m, "c": cycles},
    )


# ---------------------------------------------------------------------------
# Polynomial-timed double layer
# ---------------------------------------------------------------------------

def d_approx(x: Instant) -> Instant:
    """Cubic timing profile -2x^3 + 3x^2 on [0, 1]; exact on rational input.

    Odd about (1/2, 1/2) with vanishing slope at both ends; stays within
    0.0105 of sin^2(pi x / 2) uniformly.
    """
    if not 0 <= x <= 1:
        raise ValueError(f"argument {x} outside [0, 1]")
    if isinstance(x, Fraction):
        return -2 * x**3 + 3 * x**2
    return -2.0 * x**3 + 3.0 * x**2


def udd2_approx(n: int, total_duration: float = 1.0) -> PulseSequence:
    """Uhrig-over-Uhrig schedule with cubic-polynomial outer timing.

    The outer layer places n X pulses at the exact rationals
    d_approx(j/(n+1)) = (3 j^2 (n+1) - 2 j^3) / (n+1)^3, all on the uniform
    grid of (n+1)^3 elementary intervals; every elementary interval carries a
    full inner n-pulse Z-block.  Total pulse count is n(n+1)^3 + n.
    """
    if n < 1:
        raise ValueError("need at least one pulse")
    cells = (n + 1) ** 3
    items: list[tuple[Instant, PauliAxis]] = []
    inner = _udd_raw(n)
    for k in range(cells):
        items.extend(_embed([(x, PauliAxis.Z) for x in inner], k, cells))
    items.extend((d_approx(Fraction(j, n + 1)), PauliAxis.X) for j in range(1, n + 1))
    return PulseSequence(total_duration, merge_pulses(items), f"UDD2-{n}", {"name": "udd2", "n": n})


# ---------------------------------------------------------------------------
# Commensurability and pulse-count formulas
# ---------------------------------------------------------------------------

def commensurate_grid(seq: PulseSequence) -> int | None:
    """Smallest D such that every instant is k/D, or None when not commensurate.

    Any float-valued (inexact) instant makes the schedule non-commensurate;
    an empty schedule has D = 1.
    """
    if any(not p.is_exact for p in seq.pulses):
        return None
    dens = [p.instant.denominator for p in seq.pulses]
    return lcm(*dens) if dens else 1


def a_n(n: int) -> int:
    """Surviving X-pulse count of the two-block concatenation at level n.

    Closed form (2/3)(2^n - (-1)^n), cross-checked against the recursion
    a_{k+1} = 2 a_k + 2 (-1)^k.
    """
    if n < 0:
        raise ValueError("level must be non-negative")
    closed = (2 * (2**n - (-1) ** n)) // 3
    rec = 0
    for k in range(n):
        rec = 2 * rec + 2 * (-1) ** k
    assert rec == closed, "closed form disagrees with recursion"
    return closed


def cudd_count(m: int, n: int) -> int:
    """Total pulses of the concatenated-Uhrig schedule: m 2^n Z plus a_n X."""
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    return m * 2**n + a_n(n)


def udd2_count(n: int) -> int:
    """Pulse count n(n+1)^3 + n of the polynomial-timed double layer."""
    if n < 1:
        raise ValueError("need at least one pulse")
    return n * (n + 1) ** 3 + n


def cdd_count_estimate(m: int) -> int:
    """Nominal 4^m pulse count of full concatenation at level m."""
    if m < 0:
        raise ValueError("level must be non-negative")
    return 4**m


# ---------------------------------------------------------------------------
# Family dispatch and JSON schedule format
# ---------------------------------------------------------------------------

FAMILIES = ("none", "se", "cpmg", "pdd", "icpmg", "udd", "cdd", "cddxx", "cudd", "cpmg-udd", "udd2")


def build_sequence(
    family: str,
    total_duration: float = 1.0,
    *,
    n: int | None = None,
    m: int | None = None,
    c: int | None = None,
    axis: PauliAxis = PauliAxis.Z,
) -> PulseSequence:
    """Construct a schedule by family name; raises ValueError on bad params."""
    family = family.lower().replace("_", "-")

    def need(value, what):
        if value is None:
            raise ValueError(f"family {family!r} requires --{what}")
        return value

    if family == "none":
        return PulseSequence(total_duration, (), "free", {"name": "none"})
    if family == "se":
        return spin_echo(total_duration, axis)
    if family == "cpmg":
        return cpmg(total_duration, axis)
    if family == "pdd":
        return pdd(need(n, "n"), total_duration, axis)
    if family == "icpmg":
        return icpmg(need(c, "c"), total_duration, axis)
    if family == "udd":
        return udd_sequence(need(n, "n"), total_duration, axis)
    if family == "cdd":
        return cdd_full(need(m, "m"), total_duration)
    if family == "cddxx":
        return cdd_xx(need(n, "n"), total_duration)
    if family == "cudd":
        return cudd(need(m, "m"), need(n, "n"), total_duration)
    if family == "cpmg-udd":
        return cpmg_udd(need(m, "m"), need(c, "c"), total_duration)
    if family == "udd2":
        return udd2_approx(need(n, "n"), total_duration)
    raise ValueError(f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}")


def schedule_to_dict(seq: PulseSequence) -> dict:
    """JSON-ready dict with deterministic field order; round-trips losslessly."""
    pulses = []
    for p in seq.pulses:
        entry: dict = {"axis": p.axis.value}
        if p.is_exact:
            entry["num"] = p.instant.numerator
            entry["den"] = p.instant.denominator
        entry["t_frac"] = p.t_frac
        pulses.append(entry)
    return {
        "label": seq.label,
        "total_duration": seq.total_duration,
        "family": dict(seq.family),
        "pulses": pulses,
    }


def schedule_from_dict(data: dict) -> PulseSequence:
    pulses = []
    for entry in data["pulses"]:
        if "num" in entry:
            instant: Instant = Fraction(entry["num"], entry["den"])
        else:
            instant = float(entry["t_frac"])
        pulses.append(Pulse(instant, PauliAxis(entry["axis"])))
    return PulseSequence(
        total_duration=float(data["total_duration"]),
        pulses=tuple(pulses),
        label=data.get("label", ""),
        family=dict(data.get("family", {})),
    )


def schedule_to_json(seq: PulseSequence) -> str:
    return json.dumps(schedule_to_dict(seq), indent=2)


def schedule_from_json(text: str) -> PulseSequence:
    return schedule_from_dict(json.loads(text))
