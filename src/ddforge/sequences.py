"""Pulse-sequence compiler: ideal pi-pulse schedules with exact rational timing.

All schedules are expressed on the unit interval as fractions of the total
duration.  Instants are exact rationals wherever the construction is
rational (CPMG, PDD, iterated CPMG, concatenated families, the
polynomial-timed double-layer family); Uhrig instants for n >= 3 are
irrational and stored as floats.  Coincident pulses arising from
concatenation are merged through the single-qubit Pauli algebra modulo
global phase, so emitted schedules never contain two pulses at one instant
and never contain an identity pulse.

A schedule is a set of arrays: float64 ``instants`` (an exact instant's is
its correctly rounded value), int8 Pauli ``codes`` (``CODE_AXIS``), and
int64 ``numerators`` over one common ``denominator`` where ``exact``.
Families build, merge (a stable sort and a grouped XOR of codes) and check
them as arrays; the ``Pulse`` objects of ``pulses`` are made on first
access.  No other module reads the timing arrays: an instant's exact value
(``_exact_values``: the numerator, or a float's own binary value, over one
scale) decides the merge's float ties, and the segments come from here too.
``_kept`` drops the zero segments at a pulse on instant 0 or 1, decided on
exact values (an exact instant just below 1 may round to 1.0, and its
segment is kept), so every engine reads one segment list.  One gap rule,
``_exact_gaps``, gives the distinct exact lengths of those segments (a
sorted ``np.unique`` of the exact integers) and each segment's index into
them; every engine composes these, the double one as their correctly
rounded floats.

Concatenation products are read as operator products: the rightmost factor
acts first in time, which places junction pulses at block starts.  Boundary
pulses at instant 0 (or 1) are retained; they change the net unitary.

The builders that repeat a block (``_concatenate``, ``_cells``) return
only what they iterated, a ``Blocks`` node: equal-length copies of a child,
each in the Pauli frame of the pulses before it, down to a flat leaf
schedule.  The schedule is constructed from its node, which it keeps as
``blocks``, and one function, ``_flat``, lays out the arrays of any node.
Merging leaves every segment's frame as it was (it only composes codes), so
the record holds for the merged schedule, and ``evolution`` composes
schedules by it.

``build_sequence`` builds each (family, parameters) once per process, at
unit duration, and returns re-timed copies (``with_duration``) of that
schedule; the copies share its read-only arrays, its blocks and the plans
the engines keep with it, so a scan over durations or bath seeds builds and
plans a schedule once.  The memo is keyed by the arguments as given, so an
unhashable one (a list) raises its TypeError.  One family rule,
``_FAMILIES``, names each family's builder and the parameters it takes:
its counts, each one required, and the axis where it reads one; a missing
count, or any other parameter, is refused before anything is built.  The
builders name their counts as the CLI's flags are named (n, m, c), so each
count is checked once, by its builder, and one axis rule, ``AXES`` with
``_axis``, serves every builder that reads an axis.  Every duration in the
package, of a schedule, a copy, a scan's grid or the predictor's steps,
passes one rule, ``check_duration``, with one shape of message; every
count (a pulse count, level, cycle count or denominator) passes
``bath.check_count``, named as the parameter that takes it.  Schedule JSON
goes through ``bath.check_types``, which rejects any key it does not know.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, NamedTuple

import numpy as np

from .bath import CODE_AXIS, check_count, check_types


class PauliAxis(str, Enum):
    """Pulse rotation axis; I only ever appears as a cancellation result."""

    I = "I"
    X = "X"
    Y = "Y"
    Z = "Z"


def _code(axis: PauliAxis) -> int:
    return CODE_AXIS.index(PauliAxis(axis).value)


# The axes a family's pulses may take.
AXES = ("X", "Y", "Z")


def _axis(axis) -> PauliAxis:
    """The pulse axis of a family that reads one; else a ValueError, the one axis message."""
    if axis not in AXES:
        raise ValueError(f"axis must be X, Y or Z, got {axis!r}")
    return PauliAxis(axis)


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


class _Items(NamedTuple):
    """Pulses as arrays, in any order and unchecked; numerators are 0 where not exact."""

    instants: np.ndarray
    codes: np.ndarray
    numerators: np.ndarray
    exact: np.ndarray
    denominator: int


def _denominator(den: int) -> int:
    if den >= 2**63:
        raise ValueError(f"common denominator {den} of the exact instants overflows int64")
    return den


def _ratios(nums: np.ndarray, den: int) -> np.ndarray:
    """Correctly rounded nums / den: float64 division is, while both are exact in float64."""
    return nums / den if den <= 2**53 else np.array([n / den for n in nums.tolist()], dtype=float)


def _items(pairs: Iterable[tuple[Instant, PauliAxis]]) -> _Items:
    """Items of (instant, axis) pairs, exact where the instant is a Fraction."""
    pairs = [(x, x if isinstance(x, Fraction) else None, _code(axis)) for x, axis in pairs]
    den = _denominator(lcm(*(f.denominator for _, f, _ in pairs if f is not None)))
    nums = [0 if f is None else f.numerator * (den // f.denominator) for _, f, _ in pairs]
    return _Items(np.array([float(x) for x, _, _ in pairs], dtype=float), np.array([c for *_, c in pairs], np.int8),
                  np.array(nums, np.int64), np.array([f is not None for _, f, _ in pairs], bool), den)


# A copy's head: exact relative instant 0 (numerator 0 over any denominator), its code set per copy.
_HEAD = _items([(Fraction(0), PauliAxis.I)])


def _embed(items: _Items, nblocks: int) -> _Items:
    """The items rescaled into each of nblocks equal windows, (block + x) / nblocks, block after block."""
    den = _denominator(items.denominator * nblocks)
    block = np.arange(nblocks)[:, None]
    exact = np.tile(items.exact, nblocks)
    nums = (block * (items.denominator * items.exact) + items.numerators).ravel()
    instants = ((block + items.instants) / nblocks).ravel()
    instants[exact] = _ratios(nums[exact], den)
    return _Items(instants, np.tile(items.codes, nblocks), nums, exact, den)


def _exact_values(items: _Items) -> tuple[np.ndarray, int]:
    """0, each instant and 1 as integers over one scale, and the scale: an instant's exact value.

    An exact instant gives its numerator, a float its own binary value: a
    float is M 2^(e - 53) with M < 2^53 an integer, so over den 2^shift,
    shift the least that makes the smallest one whole, every float is an
    integer too.
    """
    den, floats = items.denominator, ~items.exact
    mantissas, exponents = np.frexp(items.instants[floats])
    shift = max(0, 53 - int(exponents.min(initial=53)))
    values = np.concatenate(([0], items.numerators, [den])).astype(object) * (1 << shift)
    values[1:-1][floats] = [int(m) * den << (shift + e - 53)
                            for m, e in zip((mantissas * 2.0**53).tolist(), exponents.tolist())]
    return values, den << shift


def _steps(items: _Items) -> np.ndarray:
    """Sign of each step between neighbouring instants; on a float tie the exact values decide."""
    steps = np.sign(items.instants[1:] - items.instants[:-1])
    ties = (steps == 0).nonzero()[0]
    if len(ties):
        ends = np.concatenate((ties, ties + 1))
        values = _exact_values(_Items(*(a[ends] for a in items[:4]), items.denominator))[0][1:-1].tolist()
        steps[ties] = [(a < b) - (b < a) for a, b in zip(values[:len(ties)], values[len(ties):])]
    return steps


def _merge(items: _Items) -> _Items:
    """The items sorted, each group of equal instants composed to one pulse, identities dropped.

    A group's instant is exact when any member's is (the members are equal
    in value), and its code is the XOR of theirs.
    """
    den, items = items.denominator, list(items[:4])
    # A non-decreasing array is its own stable sort, and the layouts nearly always give one.
    if not (items[0][1:] >= items[0][:-1]).all():
        order = np.argsort(items[0], kind="stable")
        items = [a[order] for a in items]
    starts = np.concatenate(([True], _steps(_Items(*items, den)) != 0)).nonzero()[0]
    if len(starts) < len(items[0]):
        instants, codes, nums, exact = items
        items = [instants[starts], np.bitwise_xor.reduceat(codes, starts),
                 np.maximum.reduceat(nums, starts), np.logical_or.reduceat(exact, starts)]
    keep = items[1] != 0
    return _Items(*(a[keep] for a in items), den)


def _checked(items: _Items) -> _Items:
    """The items, read-only, if they are strictly increasing in [0, 1] with no identity pulse."""
    if not items.codes.all():
        raise ValueError("identity pulses are merged away, not emitted")
    # An exact instant's float lies in [0, 1] when its value does.
    if not (items.instants.min(initial=0) >= 0 and items.instants.max(initial=1) <= 1
            and items.numerators.min(initial=0) >= 0 and items.numerators.max(initial=0) <= items.denominator):
        raise ValueError("pulse instants outside [0, 1]")
    if not (items.instants[1:] > items.instants[:-1]).all() and (_steps(items) <= 0).any():
        raise ValueError("pulse instants must be strictly increasing")
    for a in items[:4]:
        a.flags.writeable = False
    return items


@dataclass(frozen=True, eq=False)
class Blocks:
    """Equal-length copies of ``child`` in time order, copy j in the Pauli frame ``frames[j]``.

    Each copy starts with a head pulse (a junction or an outer pulse, or
    none) at its relative instant 0.  frames[j] is the code of the product of
    every pulse before copy j's own, its head included, so head j is
    frames[j] ^ frames[j-1] ^ (the child's product), and head 0 is frames[0].
    child is a Blocks or the flat leaf schedule, whose duration is the
    parent's over the copies at every level.  ``_cache`` holds what the
    engines derive from the frames alone (``bath.kept``).
    """

    child: "Blocks | PulseSequence"
    frames: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False)


def _copy_frames(heads: np.ndarray, child_code: int) -> np.ndarray:
    """Frames of copies, each after pulses of its head code: the XOR of the heads so far and of the copies before."""
    frames = np.bitwise_xor.accumulate(heads)
    frames[1::2] ^= child_code  # copy j follows j copies, whose product is the child's when j is odd
    frames.flags.writeable = False  # shared by every copy of the schedule
    return frames


def _flat(node: "Blocks | PulseSequence | _Items") -> _Items:
    """The merged items of a node: a leaf's own (a schedule's, or bare items), or its child's laid out in every copy.

    Each copy holds its head pulse at its exact relative instant 0 (an
    identity head merges away) and then the child's items, placed by
    ``_embed``.  A level is merged before the next copies it, so coincident
    pulses fold once rather than in every copy (``_steps`` resolves each
    float tie in Python).
    """
    if not isinstance(node, Blocks):
        return node if isinstance(node, _Items) else node._arrays
    items = _flat(node.child)
    copy = _Items(*map(np.concatenate, zip(_HEAD[:4], items[:4])), items.denominator)  # a head, then the child's
    copies = _embed(copy, len(node.frames))
    # Head j is frames[j] ^ frames[j-1] ^ (the child's product), and head 0 is frames[0].
    code = np.bitwise_xor.reduce(items.codes, initial=0)
    copies.codes[::len(items.codes) + 1] = node.frames ^ np.append(code, node.frames[:-1]) ^ code
    return _merge(copies)


def _pulses(items: _Items) -> tuple[Pulse, ...]:
    arrays = (a.tolist() for a in items[:4])
    return tuple(Pulse(Fraction(num, items.denominator) if exact else instant, CODE_AXIS[code])
                 for instant, code, num, exact in zip(*arrays))


# The shortest duration, the smallest normal float (``sys.float_info.min``): below it 1/t overflows, and a
# schedule's segments underflow.
MIN_DURATION = 2.0**-1022


def check_duration(t: float, name: str, index: int | None = None) -> float:
    """t, if a duration: finite, > 0 and at least MIN_DURATION; else a ValueError naming it ``name`` or ``name[index]``.

    The one duration rule, of every schedule and every copy, of a scan's grid and of the predictor's steps, and its
    only messages.  The passing path formats nothing.
    """
    if not MIN_DURATION <= t < math.inf:
        where = name if index is None else f"{name}[{index}]"
        rule = f"at least {MIN_DURATION!r}, the smallest normal float" if 0 < t < math.inf else "finite and > 0"
        raise ValueError(f"{where} = {float(t)!r}; durations must be {rule}")
    return t


class PulseSequence:
    """An ordered pi-pulse schedule over a total duration.

    Invariants: instants strictly increasing in [0, 1]; no identity pulses.
    The arrays (see the module docstring) are read-only and nothing else
    changes after construction but ``_cache``, which only gains what the
    engines derive from the pulses alone (``bath.kept``), so instances are
    safe to share across threads.  Every ``with_duration`` copy shares
    ``_cache``.  ``blocks`` is the ``Blocks`` node its builder constructed
    it from, or None; each node keeps its own constants.
    """

    def __init__(self, total_duration: float, pulses: Iterable[Pulse], label: str = "", family: dict | None = None):
        # The families pass their merged items or their node (``_flat``); the pulses are made on first access.
        self.blocks = pulses if isinstance(pulses, Blocks) else None
        if isinstance(pulses, (_Items, Blocks, PulseSequence)):
            items, self._pulses = _flat(pulses), None
        else:
            self._pulses = tuple(pulses)
            items = _items((p.instant, p.axis) for p in self._pulses)
        self.total_duration = check_duration(total_duration, "total_duration")
        self.instants, self.codes, self.numerators, self.exact, self.denominator = self._arrays = _checked(items)
        self.label, self.family = label, {} if family is None else family
        self._cache = {}

    @property
    def pulses(self) -> tuple[Pulse, ...]:
        if self._pulses is None:
            self._pulses = _pulses(self._arrays)
        return self._pulses

    @property
    def pulse_count(self) -> int:
        return len(self.instants)

    def axis_count(self, axis: PauliAxis) -> int:
        return int(np.count_nonzero(self.codes == _code(axis)))

    def filter_axis(self, axis: PauliAxis) -> "PulseSequence":
        """Sub-schedule containing only pulses about the given axis."""
        axis, keep = PauliAxis(axis), self.codes == _code(axis)
        items = _Items(*(a[keep] for a in self._arrays[:4]), self.denominator)
        return PulseSequence(self.total_duration, items, f"{self.label}[{axis.value}]", dict(self.family))

    def with_duration(self, total_duration: float) -> "PulseSequence":
        """The same pulses over another duration, sharing the arrays, the blocks and ``_cache``."""
        seq = object.__new__(type(self))
        seq.__dict__.update(self.__dict__, total_duration=check_duration(total_duration, "total_duration"),
                            family=dict(self.family))
        return seq


# --- Segments ----------------------------------------------------------------

def _kept(seq: PulseSequence) -> slice:
    """The nonzero intervals: all but the one before a pulse at instant 0 and the one after a pulse at 1.

    Decided on exact values.  A positive exact instant is at least 2^-63, so
    its float is never 0; but one below 1 may round to 1.0, and is told from
    1 by its numerator, positive and below the denominator (a float's is 0).
    """
    n, instants, nums = seq.pulse_count, seq.instants, seq.numerators
    return slice(int(n > 0 and instants[0] == 0), n + (n == 0 or instants[-1] != 1 or 0 < nums[-1] < seq.denominator))


def _exact_gaps(seq: PulseSequence) -> tuple[list[Fraction], np.ndarray]:
    """The distinct exact lengths of the nonzero segments, sorted, and each one's index into them."""
    values, scale = _exact_values(seq._arrays)
    steps = np.diff(values)[_kept(seq)].tolist()  # Python ints, sorted exactly
    lengths = sorted(set(steps))
    index = {step: i for i, step in enumerate(lengths)}
    return [Fraction(step, scale) for step in lengths], np.array([index[step] for step in steps], dtype=np.intp)


# --- Uhrig and classic families ----------------------------------------------

def udd_instants(n: int) -> list[float]:
    """Uhrig pulse instants sin^2(pi j / (2(n+1))), j = 1..n, as fractions of t.

    Strictly increasing and symmetric about 1/2.  n = 0 gives an empty list.
    """
    return [math.sin(math.pi * j / (2 * (n + 1))) ** 2 for j in range(1, check_count(n, "n") + 1)]


def _udd_items(n: int, axis: PauliAxis) -> _Items:
    # n = 1 and n = 2 are the only Uhrig schedules with rational instants, odd multiples of 1/(2n).
    instants = [Fraction(2 * j - 1, 2 * n) for j in range(1, n + 1)] if n <= 2 else udd_instants(n)
    return _items((x, axis) for x in instants)


@lru_cache(maxsize=64)
def _udd_block(n: int) -> PulseSequence:
    """The Z-axis Uhrig block of n pulses (free evolution for n = 0), the shared leaf of the schedules repeating it."""
    return PulseSequence(1.0, _udd_items(n, PauliAxis.Z))


def udd_sequence(n: int, total_duration: float = 1.0, axis: PauliAxis = PauliAxis.Z) -> PulseSequence:
    """Uhrig sequence of n pulses about one axis.

    Instants are exact rationals for n in {1, 2} and floats otherwise.
    """
    check_count(n, "n", 1)
    axis = _axis(axis)
    return PulseSequence(total_duration, _udd_items(n, axis), f"UDD-{n}", {"name": "udd", "n": n, "axis": axis.value})


def spin_echo(total_duration: float = 1.0, axis: PauliAxis = PauliAxis.Z) -> PulseSequence:
    """Single pi pulse at the midpoint."""
    axis = _axis(axis)
    return PulseSequence(total_duration, _items([(Fraction(1, 2), axis)]), "SE", {"name": "se", "axis": axis.value})


def cpmg(total_duration: float = 1.0, axis: PauliAxis = PauliAxis.Z) -> PulseSequence:
    """Two-pulse cycle: free t/4, pulse, free t/2, pulse, free t/4."""
    axis = _axis(axis)
    items = _items([(Fraction(1, 4), axis), (Fraction(3, 4), axis)])
    return PulseSequence(total_duration, items, "CPMG", {"name": "cpmg", "axis": axis.value})


def pdd(n: int, total_duration: float = 1.0, axis: PauliAxis = PauliAxis.Z) -> PulseSequence:
    """Periodic (equidistant) sequence: n pulses at j/(n+1)."""
    check_count(n, "n", 1)
    axis = _axis(axis)
    items = _items((Fraction(j, n + 1), axis) for j in range(1, n + 1))
    return PulseSequence(total_duration, items, f"PDD-{n}", {"name": "pdd", "n": n, "axis": axis.value})


def icpmg(c: int, total_duration: float = 1.0, axis: PauliAxis = PauliAxis.Z) -> PulseSequence:
    """Iterated two-pulse cycles: 2c pulses at odd multiples of 1/(4c)."""
    check_count(c, "c", 1)
    axis = _axis(axis)
    items = _embed(_items([(Fraction(1, 4), axis), (Fraction(3, 4), axis)]), c)
    return PulseSequence(total_duration, items, f"iCPMG-{c}", {"name": "icpmg", "c": c, "axis": axis.value})


# --- Concatenated families ---------------------------------------------------

def _concatenate(base: PulseSequence, junction_axes: str, levels: int) -> Blocks | PulseSequence:
    """The node of p -> (J_1 p)(J_2 p)... iterated ``levels`` times over the base (the base's own at level 0).

    The written recursion is an operator product, so the rightmost factor
    acts first; per level the junction axes are applied in reversed written
    order, each at its block's start.
    """
    heads = np.array([_code(axis) for axis in reversed(junction_axes)], dtype=np.int8)
    node, code = base if base.blocks is None else base.blocks, np.bitwise_xor.reduce(base.codes, initial=0)
    for _ in range(levels):
        frames = _copy_frames(heads, code)
        # The level's product is its last copy's frame times the child's.
        node, code = Blocks(node, frames), frames[-1] ^ code
    return node


def _cells(inner: PulseSequence, cells: int, bounds: list[int] | np.ndarray) -> Blocks:
    """The inner schedule in each of ``cells`` equal cells, with an X pulse on each given cell bound j < cells."""
    heads = np.zeros(cells, dtype=np.int8)
    heads[bounds] = _code(PauliAxis.X)  # the pulse at bound j is copy j's head
    return Blocks(inner, _copy_frames(heads, np.bitwise_xor.reduce(inner.codes, initial=0)))


def _concatenated(level: int, total_duration: float, base: PulseSequence | None, junction_axes: str, label: str,
                  family: dict) -> PulseSequence:
    if base is not None:
        family["base"] = base.family.get("name", base.label)
    node = _concatenate(_udd_block(0) if base is None else base, junction_axes, level)
    return PulseSequence(total_duration, node, f"{label}-{level}", family)


def cdd_full(m: int, total_duration: float = 1.0, base: PulseSequence | None = None) -> PulseSequence:
    """Four-block concatenation p -> p X p Z p X p Z over a base schedule, iterated to level m.

    Level 0 returns the base (free evolution when base is None).  Junction
    pulses land at block starts and merge with any coincident base pulses;
    the post-cancellation count grows asymptotically by a factor 4 per level.
    """
    return _concatenated(check_count(m, "m"), total_duration, base, "XZXZ", "CDD", {"name": "cdd", "m": m})


def cdd_xx(n: int, total_duration: float = 1.0, base: PulseSequence | None = None) -> PulseSequence:
    """Two-block concatenation p -> p X p X, iterated to level n; adjacent X pulses cancel.

    Over free evolution, level 2 reproduces the two-pulse CPMG cycle and the
    surviving pulse count follows a_n = (2/3)(2^n - (-1)^n).
    """
    return _concatenated(check_count(n, "n"), total_duration, base, "XX", "CDDxx", {"name": "cddxx", "n": n})


def cudd(m: int, n: int, total_duration: float = 1.0) -> PulseSequence:
    """X-type concatenation of level n over Uhrig Z-blocks of m pulses.

    Yields m*2^n Z pulses plus a_n X pulses; each Uhrig block spans t/2^n.
    """
    node = _concatenate(_udd_block(check_count(m, "m", 1)), "XX", check_count(n, "n"))
    return PulseSequence(total_duration, node, f"CUDD(m={m},n={n})", {"name": "cudd", "m": m, "n": n})


def cpmg_udd(m: int, c: int = 1, total_duration: float = 1.0) -> PulseSequence:
    """c iterated two-pulse cycles whose free segments carry Uhrig Z-blocks.

    4c blocks of duration t/(4c) each hold an m-pulse Z-block; X pulses sit
    mid-cycle at odd multiples of 1/(4c).  c = 1 is the single cycle of
    total duration four block lengths.
    """
    check_count(m, "m", 1)
    check_count(c, "c", 1)
    node = _cells(_udd_block(m), 4 * c, np.arange(1, 4 * c, 2))
    return PulseSequence(total_duration, node, f"CPMG-UDD(m={m},c={c})", {"name": "cpmg_udd", "m": m, "c": c})


# --- Polynomial-timed double layer -------------------------------------------

def d_approx(x: Instant) -> Instant:
    """Cubic timing profile -2x^3 + 3x^2 on [0, 1]; exact on rational input.

    Odd about (1/2, 1/2) with vanishing slope at both ends; stays within
    0.0105 of sin^2(pi x / 2) uniformly.
    """
    if not 0 <= x <= 1:
        raise ValueError(f"argument {x} outside [0, 1]")
    return -2 * x**3 + 3 * x**2


def udd2_approx(n: int, total_duration: float = 1.0) -> PulseSequence:
    """Uhrig-over-Uhrig schedule with cubic-polynomial outer timing.

    The outer layer places n X pulses at the exact rationals
    d_approx(j/(n+1)) = (3 j^2 (n+1) - 2 j^3) / (n+1)^3, all on the uniform
    grid of (n+1)^3 elementary intervals; every elementary interval carries a
    full inner n-pulse Z-block.  Total pulse count is n(n+1)^3 + n.
    """
    cells = (check_count(n, "n", 1) + 1) ** 3
    node = _cells(_udd_block(n), cells, [int(cells * d_approx(Fraction(j, n + 1))) for j in range(1, n + 1)])
    return PulseSequence(total_duration, node, f"UDD2-{n}", {"name": "udd2", "n": n})


# --- Commensurability and pulse-count formulas -------------------------------

def commensurate_grid(seq: PulseSequence) -> int | None:
    """Smallest D such that every instant is k/D, or None when not commensurate.

    Any float-valued (inexact) instant makes the schedule non-commensurate;
    an empty schedule has D = 1.
    """
    if not seq.exact.all():
        return None
    return seq.denominator // math.gcd(seq.denominator, *seq.numerators.tolist())


def a_n(n: int) -> int:
    """Surviving X-pulse count of the two-block concatenation at level n.

    Closed form (2/3)(2^n - (-1)^n) of the recursion a_{k+1} = 2 a_k + 2 (-1)^k,
    a_0 = 0; the tests check the two agree for n <= 30.
    """
    return (2 * (2 ** check_count(n, "n") - (-1) ** n)) // 3


def cudd_count(m: int, n: int) -> int:
    """Total pulses of the concatenated-Uhrig schedule: m 2^n Z plus a_n X."""
    return check_count(m, "m", 1) * 2 ** check_count(n, "n") + a_n(n)


def udd2_count(n: int) -> int:
    """Pulse count n(n+1)^3 + n of the polynomial-timed double layer."""
    return check_count(n, "n", 1) * (n + 1) ** 3 + n


def cdd_count_estimate(m: int) -> int:
    """Nominal 4^m pulse count of full concatenation at level m."""
    return 4 ** check_count(m, "m")


# --- Family dispatch and JSON schedule format --------------------------------

def _free() -> PulseSequence:
    return PulseSequence(1.0, (), "free", {"name": "none"})


# The one family rule: each family's builder and the parameters it takes, named as the flags are.  Its counts are
# required, and checked by the builder; the axis, where the family reads one, defaults to Z.
_FAMILIES = {"none": (_free, ()), "se": (spin_echo, ("axis",)), "cpmg": (cpmg, ("axis",)),
             "pdd": (pdd, ("n", "axis")), "icpmg": (icpmg, ("c", "axis")), "udd": (udd_sequence, ("n", "axis")),
             "cdd": (cdd_full, ("m",)), "cddxx": (cdd_xx, ("n",)), "cudd": (cudd, ("m", "n")),
             "cpmg-udd": (cpmg_udd, ("m", "c")), "udd2": (udd2_approx, ("n",))}
FAMILIES = tuple(_FAMILIES)


def build_sequence(family: str, total_duration: float = 1.0, *, n: int | None = None, m: int | None = None,
                   c: int | None = None, axis: PauliAxis | str | None = None) -> PulseSequence:
    """Construct a schedule by family name; raises ValueError on bad params.

    A family takes exactly the parameters ``_FAMILIES`` names: a missing
    count, or any parameter it does not take, the axis included, is a
    ValueError raised before anything is built or kept.  The builder then
    checks each value it is given (``bath.check_count``, ``_axis``) under
    the name of its flag; None is no value, and an axis not given is Z.

    The schedule is built once per process at unit duration (``_unit_schedule``)
    and handed out re-timed: a copy with its own ``family`` and ``blocks``
    attributes that shares the read-only arrays and ``_cache``.  An argument
    that cannot key the memo (a list, say) raises the memo's TypeError.
    """
    return _unit_schedule(family.lower().replace("_", "-"), n, m, c, axis).with_duration(total_duration)


@lru_cache(maxsize=64, typed=True)
def _unit_schedule(family: str, n, m, c, axis) -> PulseSequence:
    """The schedule of ``build_sequence`` at unit duration, kept per parameters as given; never handed out."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}")
    builder, takes = _FAMILIES[family]
    given = {key: value for key, value in {"m": m, "n": n, "c": c, "axis": axis}.items() if value is not None}
    for key in ("m", "n", "c", "axis"):
        if key in given and key not in takes or key in takes and key not in given and key != "axis":
            raise ValueError(f"family {family!r} {'takes no' if key in given else 'requires'} --{key}")
    return builder(**given)


def schedule_to_dict(seq: PulseSequence) -> dict:
    """JSON-ready dict with deterministic field order; round-trips losslessly."""
    pulses = [{"axis": p.axis.value, **({"num": p.instant.numerator, "den": p.instant.denominator}
                                        if p.is_exact else {}), "t_frac": p.t_frac} for p in seq.pulses]
    return {"label": seq.label, "total_duration": seq.total_duration, "family": dict(seq.family), "pulses": pulses}


_SCHEDULE_TYPES = {"label": str, "total_duration": float, "family": dict, "pulses": list}
_PULSE_TYPES = {"axis": str, "num": int, "den": int, "t_frac": float}


def _pulse_from_dict(entry, index: int) -> Pulse:
    """An entry's pulse: exact num/den where it has either, else float t_frac; a ValueError names the index and key.

    An exact entry's t_frac, where it has one, must be the float of num/den, as ``schedule_to_dict`` writes it.
    """
    what = f"schedule pulse {index}"
    exact = isinstance(entry, dict) and ("num" in entry or "den" in entry)
    check_types(entry, _PULSE_TYPES, what, None, ("axis", "num", "den") if exact else ("axis", "t_frac"))
    if exact:
        check_count(entry["den"], f"{what} key 'den'", 1)
    pulse = Pulse(Fraction(entry["num"], entry["den"]) if exact else float(entry["t_frac"]), PauliAxis(entry["axis"]))
    if exact and entry.get("t_frac", pulse.t_frac) != pulse.t_frac:
        raise ValueError(f"{what} key 't_frac' is {entry['t_frac']!r}, but num/den {pulse.instant} is {pulse.t_frac!r}")
    return pulse


def schedule_from_dict(data: dict) -> PulseSequence:
    check_types(data, _SCHEDULE_TYPES, "schedule", None, ("total_duration", "pulses"))
    pulses = [_pulse_from_dict(entry, index) for index, entry in enumerate(data["pulses"])]
    return PulseSequence(float(data["total_duration"]), pulses, data.get("label", ""), dict(data.get("family", {})))


def schedule_to_json(seq: PulseSequence) -> str:
    return json.dumps(schedule_to_dict(seq), indent=2)


def schedule_from_json(text: str) -> PulseSequence:
    return schedule_from_dict(json.loads(text))
