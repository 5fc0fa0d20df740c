"""Spans around ddforge's public functions, recorded from the benchmark's side.

`from`-imports bind a function's name in the importing module, so each
public function is rebound at every module attribute it is looked up
through.  Spans stay in memory (name, start, end, parent span, scan id,
exception class, work counts) and are written out once, when the run ends.
A span's self time is its duration minus the durations of its direct
children; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path

from ddforge import analysis, bath, cli, effective, evolution, highprec, sequences

# (module, attribute, layer name) for every site a public function is looked up at.
SITES = (
    (analysis, "build_model", "bath"),
    (bath, "build_model", "bath"),
    (analysis, "build_sequence", "sequences"),
    (sequences, "build_sequence", "sequences"),
    (effective, "sequence_unitary", "evolution"),
    (evolution, "sequence_unitary", "evolution"),
    (analysis, "sequence_effective", "effective"),
    (analysis, "error_functionals", "effective"),
    (highprec, "sequence_error_functionals", "highprec"),
    (analysis, "evaluate_scan", "analysis"),
    (analysis, "fit_order", "analysis.fit"),
    (cli, "main", "cli"),
)
LAYERS = ("sequences", "bath", "evolution", "effective", "highprec", "analysis", "cli")

NAME, START, END, PARENT, SCAN, ERROR, WORK = range(7)


def _sequence_work(args, kwargs, result):
    return {"pulses": result.pulse_count}


def _evolution_work(args, kwargs, result):
    seq, ops = args[0], args[1]
    instants = {0.0, 1.0} | {p.t_frac for p in seq.pulses}
    return {"pulses": seq.pulse_count, "segments": len(instants) - 1, "n": 2 * ops.dim}


WORK_COUNTERS = {"sequences": _sequence_work, "evolution": _evolution_work}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._scan = None

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [name, 0.0, 0.0, parent, self._scan, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str, scan_id: str):
        """A benchmark-level span; everything inside belongs to scan_id."""
        self._scan = scan_id
        rec = self._open(name)
        try:
            yield
        except BaseException as exc:
            rec[ERROR] = type(exc).__name__
            raise
        finally:
            self._close(rec)
            self._scan = None

    def wrap(self, layer: str, fn):
        counter = WORK_COUNTERS.get(layer)

        def traced(*args, **kwargs):
            rec = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                self._close(rec)
            if counter is not None:
                rec[WORK] = counter(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every site for the duration of the block."""
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in SITES]
        wrappers = {}
        for (mod, attr, layer), (_, _, fn) in zip(SITES, originals):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self.wrap(layer, fn)
            setattr(mod, attr, wrappers[id(fn)])
        try:
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    # -- analysis -----------------------------------------------------------

    def self_times(self, start: int = 0, stop: int | None = None) -> list[float]:
        spans = self.spans[start:stop]
        own = [rec[END] - rec[START] for rec in spans]
        for rec in spans:
            parent = rec[PARENT]
            if parent is not None and parent >= start:
                own[parent - start] -= rec[END] - rec[START]
        return own

    def _totals(self, start: int, stop: int | None):
        totals: dict = {}
        for rec, own in zip(self.spans[start:stop], self.self_times(start, stop)):
            t = totals.setdefault(rec[NAME], {"calls": 0, "self_s": 0.0, "failed": 0, "work": {}})
            t["calls"] += 1
            t["self_s"] += own
            t["failed"] += rec[ERROR] is not None
            work = rec[WORK] or {}
            for k, v in work.items():
                t["work"][k] = t["work"].get(k, 0) + v
            if "n" in work:
                # Dense complex flops as composed today: two n^3 products per
                # free segment, one per pulse factor, 8 real flops each.
                flop = 8 * work["n"] ** 3 * (2 * work["segments"] + work["pulses"])
                t["work"]["flop"] = t["work"].get("flop", 0) + flop
        return totals

    def layer_metrics(self, passes: int, wall_s: float) -> dict:
        """Per-pass counts and self times of the traced passes (all spans so far)."""
        tot = self._totals(0, None)

        def get(name, key="calls"):
            t = tot.get(name)
            if t is None:
                return 0
            return t[key] if key in ("calls", "failed", "self_s") else t["work"].get(key, 0)

        per = 1.0 / passes
        m = {}
        for layer in LAYERS[:-1]:
            m[f"{layer}.calls"] = get(layer) * per
            m[f"{layer}.self_ms"] = get(layer, "self_s") * 1e3 * per
        pulses = get("sequences", "pulses")
        m["sequences.pulses"] = pulses * per
        m["sequences.us_per_pulse"] = get("sequences", "self_s") * 1e6 / pulses if pulses else 0.0
        gflop = get("evolution", "flop") / 1e9
        m["evolution.segments"] = get("evolution", "segments") * per
        m["evolution.nominal_gflop"] = gflop * per
        evo_s = get("evolution", "self_s")
        m["evolution.gflops"] = gflop / evo_s if evo_s else 0.0
        for layer in ("effective", "highprec"):
            m[f"{layer}.failed"] = get(layer, "failed") * per
        calls = get("effective")
        m["effective.ok_ratio"] = (calls - get("effective", "failed")) / calls if calls else 0.0
        m["analysis.fit_ms"] = get("analysis.fit", "self_s") * 1e3 * per
        m["bench.self_ms"] = get("scan", "self_s") * 1e3 * per
        # Share of the traced wall inside ddforge spans; the rest is the root
        # scan spans' own time (the benchmark's checks, untraced calls).
        m["trace.layer_share"] = (sum(self.self_times()) - get("scan", "self_s")) / wall_s
        m["cli.calls"] = m["cli.self_ms"] = m["cli.failed"] = 0
        return m

    def cli_metrics(self, start: int) -> dict:
        """Calls and self time of the cli.main spans recorded after `start`."""
        cli_t = self._totals(start, None).get("cli", {"calls": 0, "self_s": 0.0})
        return {"cli.calls": cli_t["calls"], "cli.self_ms": cli_t["self_s"] * 1e3}

    def failures_by_layer(self) -> dict:
        """Exception classes by the layer whose span raised them first."""
        out: dict = {}
        raised_below = set()
        for i in range(len(self.spans) - 1, -1, -1):
            rec = self.spans[i]
            if rec[ERROR] is None:
                continue
            if i not in raised_below:
                layer = out.setdefault(rec[NAME], {})
                layer[rec[ERROR]] = layer.get(rec[ERROR], 0) + 1
            if rec[PARENT] is not None:
                raised_below.add(rec[PARENT])
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_times()
        with path.open("w", encoding="utf-8") as fh:
            for i, (rec, s) in enumerate(zip(self.spans, own)):
                fh.write(json.dumps({
                    "id": i, "name": rec[NAME], "start": rec[START], "end": rec[END],
                    "parent": rec[PARENT], "scan": rec[SCAN], "self": s,
                    "error": rec[ERROR], "work": rec[WORK],
                }) + "\n")
