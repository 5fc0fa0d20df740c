"""Qubit-bath Hamiltonians H = sum_g sigma_g (x) A_g with controlled norms.

Bath operators are dense Hermitian matrices with prescribed spectral norms,
drawn reproducibly from a seeded PCG64 generator (``numpy.random.default_rng``)
so a model is a pure function of its spec.  Energy units are set so that the
norm targets are dimensionless.

``build_model`` draws each spec once per process and returns the same
read-only ``BathOperators`` for equal specs, so what is derived from the
model alone, kept with it (``kept``), is shared by every scan under it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import lru_cache, wraps

import numpy as np

GAMMAS = ("0", "x", "y", "z")

SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_GAMMA_SIGMA = {"0": "I", "x": "X", "y": "Y", "z": "Z"}

# Pauli codes: bit 0 marks an X part, bit 1 a Z part; a product, phase aside, XORs them.
CODE_AXIS = "IXZY"

DEFAULT_DIM = 4
MAX_DIM = 64

_SPIN_BATH_RE = re.compile(r"^spin_bath\((\d+)\)$")


def kept(make):
    """The one memo rule of a constant derived from one object: ``get(owner, *args)`` gives ``make(owner, *args)``.

    The value is formed on first use and kept in ``owner._cache``, under the
    key get, or (get, *args) when there are args, so every key names the
    function that formed it.  The owners (schedules, whose re-timed copies
    share one ``_cache``, segment plans, ``Blocks`` levels and models) are
    read-only but for ``_cache``, and a kept value depends on the owner and
    args alone and is never changed, so threads share it: a race forms an
    equal value twice, and the first one written is kept.  Memos keyed by
    plain values (a size, a spec, bytes) are ``lru_cache``s instead.
    """
    @wraps(make)
    def get(owner, *args):
        cache, key = owner._cache, (get, *args) if args else get
        if key not in cache:
            cache.setdefault(key, make(owner, *args))
        return cache[key]
    return get


def spectral_norm(a: np.ndarray):
    """Largest |eigenvalue| of a Hermitian matrix, or an array of one per matrix of a (..., d, d) stack.

    A single matrix goes through as a stack of one.  Only the lower triangle
    is read, so the input must be exactly Hermitian.  A zero matrix has
    exact zero eigenvalues, and an empty one the norm 0.0.
    """
    norms = np.abs(np.linalg.eigvalsh(a)).max(axis=-1, initial=0.0)
    return norms if a.ndim > 2 else float(norms)


@lru_cache(maxsize=MAX_DIM)
def _frame_rows(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per Pauli code f, the rows and row phases with (sigma_f (x) I_d) v = v[rows[f]] * phases[f].

    Then come, per f, the flat (row, column) indices that take a flattened
    2d x 2d matrix x to F x F^+ up to signs, and those signs, one per pair of
    qubit rows (a, b): phases[f] phases[f]^+ is constant on each d x d block.
    """
    frames = np.array([np.kron(SIGMA[axis], np.eye(d)) for axis in CODE_AXIS])
    rows = np.abs(frames).argmax(axis=-1)
    phases = np.take_along_axis(frames, rows[..., None], axis=-1)
    index = rows[:, :, None] * (2 * d) + rows[:, None, :]
    qubit_phases = phases[:, ::d]
    return rows, phases, index.reshape(4, -1), qubit_phases * np.swapaxes(qubit_phases.conj(), -1, -2)


@dataclass(frozen=True)
class ModelSpec:
    """Reproducible recipe for one bath model.

    d and seed are counts (``check_count``), d at least 1.  preset is one
    of ``generic``, ``pure_dephasing``, ``anisotropic`` or ``spin_bath(k)``.
    norm_targets overrides the preset defaults per coupling channel, each
    finite and >= 0; presets validate their constraints (pure dephasing
    forces zero x/y targets, anisotropic keeps the z target at most a tenth
    of the smaller transverse one, spin_bath(k), k a count of at least 1,
    pins d = 2^k).
    """

    d: int = DEFAULT_DIM
    seed: int = 0
    preset: str = "generic"
    norm_targets: dict = field(default_factory=dict)

    def __post_init__(self):
        check_count(self.seed, "model key 'seed'")
        targets = self.resolved_targets()
        check_count(self.d, "model key 'd'", 1)
        match = _SPIN_BATH_RE.match(self.preset)
        if match:
            k = check_count(int(match.group(1)), "spin_bath k", 1)
            if self.d != 2**k:
                raise ValueError(f"spin_bath({k}) requires d = {2**k}, got {self.d}")
        elif self.preset == "pure_dephasing":
            if targets["x"] != 0.0 or targets["y"] != 0.0:
                raise ValueError("pure_dephasing requires zero x and y norm targets")
        elif self.preset == "anisotropic":
            limit = 0.1 * min(targets["x"], targets["y"])
            if targets["z"] > limit + 1e-15:
                raise ValueError(f"anisotropic requires z target <= {limit}")
        elif self.preset != "generic":
            raise ValueError(f"unknown preset {self.preset!r}")
        object.__setattr__(self, "norm_targets", dict(targets))

    def resolved_targets(self) -> dict:
        defaults = {g: 1.0 for g in GAMMAS}
        if self.preset == "pure_dephasing":
            defaults["x"] = defaults["y"] = 0.0
        elif self.preset == "anisotropic":
            defaults["z"] = 0.1
        merged = dict(defaults)
        for key, value in self.norm_targets.items():
            key = str(key)
            if key not in GAMMAS:
                raise ValueError(f"unknown coupling channel {key!r}")
            if not 0 <= value < np.inf:
                raise ValueError(f"norm target {key!r} = {value!r}; norm targets must be finite and >= 0")
            merged[key] = float(value)
        return merged


@dataclass(frozen=True, eq=False)
class BathOperators:
    """Four Hermitian bath operators of common dimension, read-only; ``_cache`` holds what is ``kept`` with them."""

    a0: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    az: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        d = self.a0.shape[0]
        for name, a in self.items():
            if a.shape != (d, d):
                raise ValueError("all bath operators must share one square shape")
            if np.abs(a - a.conj().T).max() > 1e-12:
                raise ValueError(f"A_{name} is not Hermitian")
            a.flags.writeable = False

    def items(self):
        return (("0", self.a0), ("x", self.ax), ("y", self.ay), ("z", self.az))

    @property
    def dim(self) -> int:
        return self.a0.shape[0]


def _random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return np.ascontiguousarray((g + g.conj().T) / 2)


def _spin_bath_hermitian(rng: np.random.Generator, k: int) -> np.ndarray:
    # Sum of single-spin Pauli terms with Gaussian coefficients over k bath spins.
    d = 2**k
    out = np.zeros((d, d), dtype=complex)
    for site in range(k):
        for pauli in ("X", "Y", "Z"):
            op = np.eye(1, dtype=complex)
            for j in range(k):
                op = np.kron(op, SIGMA[pauli] if j == site else SIGMA["I"])
            out += rng.normal() * op
    return out


def build_model(spec: ModelSpec) -> BathOperators:
    """Draw the four bath operators for a spec, scaled to their norm targets.

    Deterministic for a given spec: one PCG64 stream drawn in the fixed
    channel order 0, x, y, z.  Equal specs give the same read-only object.
    """
    return _model(spec.d, spec.seed, spec.preset, tuple(sorted(spec.norm_targets.items())))


# Holds every model of a pass of the benchmark's order-d4 workload (20 specs).
@lru_cache(maxsize=32, typed=True)
def _model(d: int, seed: int, preset: str, targets: tuple) -> BathOperators:
    if d > MAX_DIM:
        raise ValueError(f"bath dimension {d} exceeds the cap {MAX_DIM}")
    rng = np.random.default_rng(seed)
    match = _SPIN_BATH_RE.match(preset)
    ops, targets = {}, dict(targets)
    for g in GAMMAS:
        raw = _spin_bath_hermitian(rng, int(match.group(1))) if match else _random_hermitian(rng, d)
        if targets[g] == 0.0:
            ops[g] = np.zeros((d, d), dtype=complex)
        else:
            ops[g] = raw * (targets[g] / spectral_norm(raw))
    return BathOperators(a0=ops["0"], ax=ops["x"], ay=ops["y"], az=ops["z"])


def total_hamiltonian(ops: BathOperators) -> np.ndarray:
    """Assemble sum_g sigma_g (x) A_g with the qubit factor first."""
    h = np.zeros((2 * ops.dim, 2 * ops.dim), dtype=complex)
    for g, a in ops.items():
        h += np.kron(SIGMA[_GAMMA_SIGMA[g]], a)
    return h


@kept
def alpha(ops: BathOperators) -> float:
    """Largest spectral norm over the four bath operators, kept with the model."""
    return max(spectral_norm(a) for _, a in ops.items())


def spec_to_dict(spec: ModelSpec) -> dict:
    return {
        "d": spec.d,
        "seed": spec.seed,
        "preset": spec.preset,
        "norm_targets": {g: spec.norm_targets[g] for g in GAMMAS},
    }


_COUNT_KINDS = {0: "a non-negative integer", 1: "a positive integer"}


def check_count(value, name: str, least: int = 0):
    """value, if a count: an int or a numpy integer, never a bool, of at least ``least``; else a ValueError.

    The one count rule of the package, and its only message, ``{name} must
    be {kind}, got {value!r}``, with kind "a non-negative integer" (least
    0), "a positive integer" (least 1) or "an integer >= {least}".  Every
    pulse count, level, cycle count, seed and grid size a caller passes goes
    through it, named as the caller named it: a parameter (``n``, ``level``),
    a model or config key, an option or an environment variable.  Checks of
    a length (an empty grid or seed list) and the ``MAX_DIM`` cap are not
    counts.  The passing path formats nothing.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be {_COUNT_KINDS.get(least, f'an integer >= {least}')}, got {value!r}")
    return value


_WANTED = {int: "an integer", float: "a number", str: "a string", dict: "an object", list: "a list"}
_SPEC_TYPES = {"d": int, "seed": None, "preset": str, "norm_targets": dict}


def check_types(data, types: dict, what: str, path, required=()) -> dict:
    """data, if a JSON object with only the keys of types, their values of those types, and every required key.

    Else a ValueError naming the key, and the file where ``path`` (the file
    data was read from, or None) names one.  A key whose type is None takes
    any value.  An int fits float, a boolean neither.
    """
    source = what if path is None else f"{what} file {path}"
    if not isinstance(data, dict):
        raise ValueError(f"{source} must hold a JSON object, not {type(data).__name__}")
    where = "" if path is None else f" in {path}"
    for key, value in data.items():
        if key not in types:
            raise ValueError(f"unknown {what} key {key!r}{where}; expected one of {', '.join(types)}")
        kind = types[key]
        if kind and (isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind)):
            raise ValueError(f"{what} key {key!r}{where} must be {_WANTED[kind]}, got {value!r}")
    for key in required:
        if key not in data:
            raise ValueError(f"{source} lacks key {key!r}")
    return data


def check_spec(data, path) -> dict:
    """data, if a model spec's JSON object (``check_types``): integer d, a string preset, numeric targets.

    No other key is read, so any other is a ValueError, at the top level and among the targets' channels.  The
    seed is a count (``check_count``), named with the file, as a mistyped key is.
    """
    check_types(data, _SPEC_TYPES, "model", path)
    if "seed" in data:
        check_count(data["seed"], "model key 'seed'" + ("" if path is None else f" in {path}"))
    check_types(data.get("norm_targets", {}), dict.fromkeys(GAMMAS, float), "model norm_targets", path)
    return data


def spec_from_dict(data: dict) -> ModelSpec:
    check_spec(data, None)
    return ModelSpec(
        d=data.get("d", DEFAULT_DIM),
        seed=data.get("seed", 0),
        preset=data.get("preset", "generic"),
        norm_targets=dict(data.get("norm_targets", {})),
    )


def spec_to_json(spec: ModelSpec) -> str:
    return json.dumps(spec_to_dict(spec), indent=2)


def spec_from_json(text: str) -> ModelSpec:
    return spec_from_dict(json.loads(text))
