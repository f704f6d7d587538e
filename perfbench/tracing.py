"""Outside-in span tracing of densecode, and the per-layer metrics drawn from it.

``Tracer.install()`` replaces module attributes of densecode with timing
wrappers; ``Tracer.restore()`` puts every original back.  Nothing under
``src/`` knows about it: the hooks work because ``capacity`` imports
``minimize``, ``verify_covariance`` and ``von_neumann_entropy`` by name,
``channels.apply_channel`` calls the module-global ``apply_pauli``, and ``cli``
imports the solvers, closed forms and state builders by name.

Spans (name, start, end, parent, item id) live in flat arrays in memory and
are written out once, by ``save``, after the traced pass.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import resource
import time
import weakref
from array import array
from pathlib import Path

import numpy as np

# (module, attribute, span name).  The span name's prefix is its layer.
HOOKS = (
    ("densecode.cli", "main", "cli.main"),
    ("densecode.cli", "capacity_covariant", "capacity.solve"),
    ("densecode.cli", "closed_form_bell_correlated", "capacity.closed_form"),
    ("densecode.cli", "closed_form_bd_fully_correlated", "capacity.closed_form"),
    ("densecode.cli", "closed_form_ghz_fully_correlated", "capacity.closed_form"),
    ("densecode.cli", "closed_form_depolarizing", "capacity.closed_form"),
    ("densecode.cli", "correlated_probs", "channels.correlated_probs"),
    ("densecode.cli", "bell_copies", "states.build"),
    ("densecode.cli", "bell_diagonal", "states.build"),
    ("densecode.cli", "bell_state", "states.build"),
    ("densecode.cli", "ghz_state", "states.build"),
    ("densecode.cli", "assemble_product", "states.build"),
    ("densecode.capacity", "capacity_covariant", "capacity.solve"),
    ("densecode.capacity", "capacity_nonunitary", "capacity.solve"),
    ("densecode.capacity", "minimize", "capacity.minimize"),
    ("densecode.capacity", "encode_with_unitary", "capacity.encode"),
    ("densecode.capacity", "_encode_with_kraus", "capacity.encode"),
    ("densecode.capacity", "verify_covariance", "channels.verify_covariance"),
    ("densecode.capacity", "von_neumann_entropy", "linalg.von_neumann_entropy"),
    ("densecode.capacity", "partial_trace", "linalg.partial_trace"),
    ("densecode.capacity", "local_encoding_set", "displacement.local_encoding_set"),
    ("densecode.capacity", "bell_diagonal", "states.build"),
    ("densecode.capacity", "bell_copies", "states.build"),
    ("densecode.channels", "apply_pauli", "channels.apply_pauli"),
    ("densecode.channels", "verify_covariance", "channels.verify_covariance"),
    ("densecode.channels", "correlated_probs", "channels.correlated_probs"),
    ("densecode.linalg", "von_neumann_entropy", "linalg.von_neumann_entropy"),
    ("densecode.displacement", "local_encoding_set", "displacement.local_encoding_set"),
)

LAYERS = ("bench", "cli", "capacity", "channels", "linalg", "displacement", "states")

# Per-layer metrics of a traced pass: name -> (unit, better).
LAYER_METRICS = {
    "capacity.neldermead.s": ("s", "lower"),
    "capacity.neldermead.nfev": ("count", "lower"),
    "capacity.lbfgs.s": ("s", "lower"),
    "capacity.lbfgs.nfev": ("count", "lower"),
    "capacity.lbfgs.nit": ("count", "lower"),
    "capacity.lbfgs.calls": ("count", "lower"),
    "capacity.restart_yield": ("ratio", "higher"),
    "capacity.objective.calls": ("count", "lower"),
    "capacity.encode.calls": ("count", "lower"),
    "capacity.encode.s": ("s", "lower"),
    "capacity.self_s": ("s", "lower"),
    "channels.apply_pauli.calls": ("count", "lower"),
    "channels.apply_pauli.s": ("s", "lower"),
    "channels.apply_pauli.us_per_call": ("us", "lower"),
    "channels.apply_pauli.minflt": ("count", "lower"),
    "channels.apply_pauli.sys_s": ("s", "lower"),
    "channels.apply_pauli.first_s": ("s", "lower"),
    "channels.term_cache_bytes": ("bytes", "lower"),
    "channels.correlated_probs.s": ("s", "lower"),
    "channels.verify_covariance.s": ("s", "lower"),
    "channels.verify_covariance.calls": ("count", "lower"),
    "channels.self_s": ("s", "lower"),
    "linalg.von_neumann_entropy.calls": ("count", "lower"),
    "linalg.von_neumann_entropy.s": ("s", "lower"),
    "linalg.self_s": ("s", "lower"),
    "displacement.local_encoding_set.s": ("s", "lower"),
    "displacement.self_s": ("s", "lower"),
    "states.build.s": ("s", "lower"),
    "states.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "bench.self_s": ("s", "lower"),
    "max_dev": ("abs", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.self_sum_gap_s": ("s", "lower"),
}

_MINIMIZE_NAMES = {"L-BFGS-B": "capacity.lbfgs", "NELDER-MEAD": "capacity.neldermead"}


class Tracer:
    """Span recorder for one traced pass; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.extra: dict[int, dict] = {}
        self._stack = [-1]
        self._item = -1
        self._saved: list[tuple[object, str, object]] = []
        # apply_pauli calls: span index, minor faults and system time each,
        # the spans that were the first call on their spec object, and the
        # term-cache size implied by each new (spec, layout) pair.
        self.pauli_span = array("q")
        self.pauli_minflt = array("q")
        self.pauli_sys = array("d")
        self.pauli_first: list[int] = []
        self.term_cache_bytes = 0
        self._seen_specs: dict[int, tuple[weakref.ref, set]] = {}

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.item.append(self._item)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, item: int):
        """Root span around one benchmark item; its spans carry the item id."""
        self._item = item
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)
            self._item = -1

    def _plain(self, fn, name: str):
        name_id = self._name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return wrapper

    def _solve(self, fn, name: str):
        name_id = self._name_id(name)
        open_, close, extra = self._open, self._close, self.extra

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(name_id)
            try:
                report = fn(*args, **kwargs)
            finally:
                close(idx)
            extra[idx] = {"kept": len(report.optimizer_trace)}
            return report

        return wrapper

    def _minimize(self, fn, name: str):
        open_, close, extra, name_id = self._open, self._close, self.extra, self._name_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            method = str(kwargs.get("method", args[2] if len(args) > 2 else "")).upper()
            idx = open_(name_id(_MINIMIZE_NAMES.get(method, f"{name}.{method}")))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                extra[idx] = {"error": type(exc).__name__}
                raise
            finally:
                close(idx)
            extra[idx] = {"nit": int(getattr(result, "nit", 0)),
                          "nfev": int(getattr(result, "nfev", 0)),
                          "status": int(result.status)}
            return result

        return wrapper

    def _apply_pauli(self, fn, name: str):
        name_id = self._name_id(name)
        open_, close = self._open, self._close
        spans, minflt, sys_s = self.pauli_span, self.pauli_minflt, self.pauli_sys
        getrusage, who = resource.getrusage, resource.RUSAGE_SELF
        seen = self._seen_specs

        @functools.wraps(fn)
        def wrapper(spec, rho, layout):
            before = getrusage(who)
            idx = open_(name_id)
            try:
                return fn(spec, rho, layout)
            finally:
                close(idx)
                after = getrusage(who)
                spans.append(idx)
                minflt.append(after.ru_minflt - before.ru_minflt)
                sys_s.append(after.ru_stime - before.ru_stime)
                entry = seen.get(id(spec))
                if entry is None or entry[0]() is not spec:
                    entry = seen[id(spec)] = (weakref.ref(spec), set())
                    self.pauli_first.append(idx)
                if layout.dims not in entry[1]:
                    entry[1].add(layout.dims)
                    terms = int(np.count_nonzero(spec.joint))
                    # stack and flat share memory; bra is a second copy.
                    self.term_cache_bytes += 2 * terms * layout.total_dim ** 2 * 16

        return wrapper

    # -- installing hooks --------------------------------------------------

    def install(self) -> None:
        special = {"capacity.minimize": self._minimize,
                   "channels.apply_pauli": self._apply_pauli,
                   "capacity.solve": self._solve}
        for module_name, attr, name in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, special.get(name, self._plain)(original, name))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- output --------------------------------------------------------------

    def save(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            item=np.frombuffer(self.item, dtype=np.int32),
            pauli_span=np.frombuffer(self.pauli_span, dtype=np.int64),
            pauli_minflt=np.frombuffer(self.pauli_minflt, dtype=np.int64),
            pauli_sys=np.frombuffer(self.pauli_sys),
            extra=np.array(json.dumps({str(k): v for k, v in self.extra.items()})),
        )

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the recorded spans (see LAYER_METRICS)."""
        names = self.names
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        n = len(dur)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child

        def ids(pred):
            return np.array([i for i, nm in enumerate(names) if pred(nm)], dtype=np.int32)

        def mask(*span_names):
            return np.isin(name, ids(lambda nm: nm in span_names))

        def extra_sum(m, key):
            return float(sum(self.extra.get(int(i), {}).get(key, 0)
                             for i in np.flatnonzero(m)))

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(
                self_s[np.isin(name, ids(lambda nm: nm.split(".")[0] == layer))].sum())

        lbfgs, nm_ = mask("capacity.lbfgs"), mask("capacity.neldermead")
        out["capacity.neldermead.s"] = float(dur[nm_].sum())
        out["capacity.neldermead.nfev"] = extra_sum(nm_, "nfev")
        out["capacity.lbfgs.s"] = float(dur[lbfgs].sum())
        out["capacity.lbfgs.nfev"] = extra_sum(lbfgs, "nfev")
        out["capacity.lbfgs.nit"] = extra_sum(lbfgs, "nit")
        out["capacity.lbfgs.calls"] = float(lbfgs.sum())
        solve = mask("capacity.solve")
        kept = extra_sum(solve, "kept")
        out["capacity.restart_yield"] = kept / out["capacity.lbfgs.calls"] if lbfgs.any() else 0.0

        # Walk spans in open order (a parent precedes its children) to find
        # the entropy calls made inside an optimizer run and the solve each
        # span belongs to.
        minimize_ids = set(ids(lambda nm: nm in ("capacity.lbfgs", "capacity.neldermead")
                               or nm.startswith("capacity.minimize")).tolist())
        solve_ids = set(ids(lambda nm: nm == "capacity.solve").tolist())
        entropy_ids = set(ids(lambda nm: nm == "linalg.von_neumann_entropy").tolist())
        in_min = [False] * n
        top_solve = [-1] * n
        objective_calls = 0
        name_l, parent_l = name.tolist(), parent.tolist()
        for i in range(n):
            p = parent_l[i]
            if p >= 0:
                in_min[i] = in_min[p] or name_l[p] in minimize_ids
                top_solve[i] = top_solve[p]
            if top_solve[i] < 0 and name_l[i] in solve_ids:
                top_solve[i] = i
            if in_min[i] and name_l[i] in entropy_ids:
                objective_calls += 1
        out["capacity.objective.calls"] = float(objective_calls)

        # Self times of each solve and everything below it add up to the
        # solve's own span; the gap shows how far that holds.
        top = np.array(top_solve, dtype=np.int64)
        in_solve = top >= 0
        subtree = np.bincount(top[in_solve], weights=self_s[in_solve], minlength=n)
        roots = np.flatnonzero(solve & (top == np.arange(n)))
        out["trace.self_sum_gap_s"] = float(
            np.abs(subtree[roots] - dur[roots]).max()) if roots.size else 0.0

        enc = mask("capacity.encode")
        out["capacity.encode.calls"] = float(enc.sum())
        out["capacity.encode.s"] = float(dur[enc].sum())

        ap = mask("channels.apply_pauli")
        calls = int(ap.sum())
        out["channels.apply_pauli.calls"] = float(calls)
        out["channels.apply_pauli.s"] = float(dur[ap].sum())
        out["channels.apply_pauli.us_per_call"] = (
            out["channels.apply_pauli.s"] / calls * 1e6 if calls else 0.0)
        out["channels.apply_pauli.minflt"] = float(sum(self.pauli_minflt))
        out["channels.apply_pauli.sys_s"] = math.fsum(self.pauli_sys)
        out["channels.apply_pauli.first_s"] = float(dur[self.pauli_first].sum())
        out["channels.term_cache_bytes"] = float(self.term_cache_bytes)

        out["channels.correlated_probs.s"] = float(dur[mask("channels.correlated_probs")].sum())
        vc = mask("channels.verify_covariance")
        out["channels.verify_covariance.s"] = float(dur[vc].sum())
        out["channels.verify_covariance.calls"] = float(vc.sum())
        ent = mask("linalg.von_neumann_entropy")
        out["linalg.von_neumann_entropy.calls"] = float(ent.sum())
        out["linalg.von_neumann_entropy.s"] = float(dur[ent].sum())
        out["displacement.local_encoding_set.s"] = float(
            dur[mask("displacement.local_encoding_set")].sum())
        out["states.build.s"] = float(dur[mask("states.build")].sum())
        out["trace.spans"] = float(n)
        return out
