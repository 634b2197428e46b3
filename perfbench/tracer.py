"""Spans around the public functions of each infotraj layer, recorded from
outside the package.

Each wrapped function records one span: its name, start, end, parent span and
the operation it belongs to, plus an optional count taken from its arguments
and result. Spans are kept in memory and written out when the benchmark ends.
The tracer assumes one thread (the benchmark runs with workers=1), so a plain
stack gives each span its parent.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
import warnings
from collections import defaultdict

FALLBACK_WARNING = "Taylor-corrected information matrix indefinite"


def _points(arr) -> int:
    """Number of states in a batch of shape (..., d)."""
    shape = getattr(arr, "shape", ())
    return math.prod(shape[:-1]) if len(shape) > 1 else 1


def _flow_counts(args, result):
    # LogDetMetric.flow(self, value, grad, rate_matrix, h); bytes are computed
    # from the sizes of the arrays read and written, not measured traffic
    _, value, grad, rate_matrix = args[:4]
    nodes = math.prod(grad.shape[:-1])
    arrays = (value, grad, rate_matrix) + tuple(result)
    return {"node_updates": nodes, "bytes_computed": sum(a.nbytes for a in arrays)}


def _trajectory_steps(traj) -> int:
    return int(traj.s.size) - 1


def _characteristic_counts(args, result):
    return {"rk4_steps": _trajectory_steps(result)}


def _characteristic_error(args, exc):
    traj = getattr(exc, "trajectory", None)
    if traj is None:
        return {}
    return {"rk4_steps": _trajectory_steps(traj), "boundary_exits": 1}


# span name -> (module, attribute path, count on return, count on raise)
TARGETS = {
    "cli.cmd_solve": ("infotraj.cli", "cmd_solve", None, None),
    "cli.cmd_extract": ("infotraj.cli", "cmd_extract", None, None),
    "cli.cmd_validate": ("infotraj.cli", "cmd_validate", None, None),
    "cli.trajectory_to_csv": ("infotraj.dynamics", "trajectory_to_csv", None, None),
    "hjsolver.hybrid_solve": ("infotraj.hjsolver", "hybrid_solve", None, None),
    "hjsolver.classic_solve": ("infotraj.hjsolver", "classic_solve", None, None),
    "hjsolver.info_rate_on_grid": ("infotraj.hjsolver", "info_rate_on_grid", None, None),
    "hjsolver.rx_term": ("infotraj.hjsolver", "rx_term", None, None),
    "matrixcore.flow": ("infotraj.matrixcore", "LogDetMetric.flow", _flow_counts, None),
    "grid.upwind_gradients": ("infotraj.grid", "upwind_gradients", None, None),
    "grid.interpolate": ("infotraj.grid", "interpolate", None, None),
    "grid.save_array": (
        "infotraj.grid", "save_array", lambda a, r: {"bytes": 8 * a[1].size}, None,
    ),
    "grid.load_array": ("infotraj.grid", "load_array", lambda a, r: {"bytes": r.nbytes}, None),
    "sensing.suite_fim": (
        "infotraj.sensing", "suite_fim", lambda a, r: {"points": _points(a[1])}, None,
    ),
    "trajectories.extract_characteristic": (
        "infotraj.trajectories", "extract_characteristic",
        _characteristic_counts, _characteristic_error,
    ),
    "trajectories.extract_receding": ("infotraj.trajectories", "extract_receding", None, None),
    "trajectories.brute_force_value": ("infotraj.trajectories", "brute_force_value", None, None),
    "trajectories.simulate_control_batch": (
        "infotraj.trajectories", "_simulate_control_batch",
        lambda a, r: {"rollouts": int(a[3].shape[0])}, None,
    ),
    "trajectories.gradient_consistency_check": (
        "infotraj.trajectories", "gradient_consistency_check", None, None,
    ),
}


class Tracer:
    """Installs span-recording wrappers; records only while an operation is open."""

    def __init__(self):
        self.spans = []  # [op, span id, parent id, name, start, end, counts]
        self._stack = []
        self._op = None
        self._restore = []
        self._fallbacks = defaultdict(int)

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        for name, (module, path, on_return, on_raise) in TARGETS.items():
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr, None)
            if original is None:
                continue  # the layer no longer offers this function
            wrapper = self._wrap(original, name, on_return, on_raise)
            self._replace(owner, attr, original, wrapper)
            # callers that imported the function by name hold their own reference
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("infotraj") and mod is not owner:
                    if getattr(mod, attr, None) is original:
                        self._replace(mod, attr, original, wrapper)
        # catch_warnings restores the filters and showwarning on uninstall
        self._warnings = warnings.catch_warnings()
        self._warnings.__enter__()
        self._showwarning = warnings.showwarning
        warnings.showwarning = self._count_warning
        warnings.filterwarnings("always", message=FALLBACK_WARNING, category=RuntimeWarning)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self._warnings.__exit__(None, None, None)

    def _replace(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def _count_warning(self, message, category, filename, lineno, file=None, line=None):
        if self._op is not None and str(message).startswith(FALLBACK_WARNING):
            self._fallbacks[self._op] += 1
            return
        self._showwarning(message, category, filename, lineno, file, line)

    def _wrap(self, fn, name, on_return, on_raise):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            record = [self._op, len(spans), stack[-1] if stack else -1, name, clock(), 0.0, None]
            spans.append(record)
            stack.append(record[1])
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    record[6] = on_return(args, result)
                return result
            except Exception as exc:
                if on_raise is not None:
                    record[6] = on_raise(args, exc)
                raise
            finally:
                record[5] = clock()
                stack.pop()

        return wrapper

    # -- operations -------------------------------------------------------
    def begin(self, op_id: int) -> None:
        self._op = op_id
        self._stack.clear()

    def end(self) -> None:
        self._op = None

    def dump(self, path) -> None:
        keys = ("op", "id", "parent", "name", "start", "end", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, rec)) for rec in self.spans], fh)
            fh.write("\n")

    # -- per-layer metrics ------------------------------------------------
    def layer_metrics(self, op_id: int) -> dict:
        """Calls, total and self seconds and counts per span name, for one op."""
        recs = [r for r in self.spans if r[0] == op_id]
        by_id = {r[1]: r for r in recs}
        child_s = defaultdict(float)
        for r in recs:
            if r[2] >= 0:
                child_s[r[2]] += r[5] - r[4]
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        counts = defaultdict(int)
        children = defaultdict(int)  # (parent name, child name) -> spans
        for r in recs:
            name = r[3]
            calls[name] += 1
            total[name] += r[5] - r[4]
            self_s[name] += r[5] - r[4] - child_s[r[1]]
            for key, val in (r[6] or {}).items():
                counts[f"{name}.{key}"] += val
            if r[2] >= 0:
                children[(by_id[r[2]][3], name)] += 1
        return {
            "calls": dict(calls),
            "s": dict(total),
            "self_s": dict(self_s),
            "counts": dict(counts),
            "children": children,
            "fallbacks": self._fallbacks[op_id],
        }
