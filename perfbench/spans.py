"""In-memory spans around calls into the p2pbackup layers.

The recorder wraps the public functions of each library module, plus the
public methods of ``sim.Simulation``, and patches every module attribute that
refers to them (``sim.backup_complete`` as well as
``redundancy.backup_complete``), so calls made from inside the library are
seen too.  A span is (name, start, end, parent span, operation); a layer's
self time is its spans' duration minus the part covered by their child spans.
Nothing is recorded outside ``recording()``, which keeps the benchmark's own
correctness checks out of the trace.  The counters some wrappers keep run on
a stopped clock: span times leave out their cost, so no layer is charged
for it.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

SETUP_OP = -1  # operation id of spans recorded during set-up


def _arcs_of(problem, T) -> int:
    """Arcs of the F(T) flow network a problem defines, counted from the
    problem itself so the count does not depend on how the network is stored:
    source->slot where the owner is online, slot->peer where both are online,
    and one peer->sink arc per candidate."""
    bits = problem.matrix.bits
    owner_row = bits[problem.owner, :T].astype(bool)
    candidates = list(problem.candidates)
    both = bits[candidates, :T].astype(bool) & owner_row
    return int(owner_row.sum()) + int(both.sum()) + len(candidates)


class SpanRecorder:
    """Spans in parallel arrays: name id, start, end, parent index and
    operation id; counters keyed by metric name, over the whole run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.active = False
        self.current_op = SETUP_OP
        self.counters: dict[str, float] = defaultdict(float)
        self._seen: set = set()  # backup_complete arguments seen in the run
        self._stopped = 0.0  # seconds spent in counters, left out of span times
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    @contextmanager
    def recording(self, op: int):
        """Record spans, attributed to operation op, inside the block."""
        self.current_op = op
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def _wrap(self, label: str, fn, counter=None):
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        nid = self._ids[label]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if counter is not None:
                t = self.clock()
                args = counter(self, args, kwargs)
                self._stopped += self.clock() - t
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(self.clock() - self._stopped)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = self.clock() - self._stopped
                self._stack.pop()
            return result

        return traced

    # -- instrumentation -------------------------------------------------

    def instrument(self, package, module_names) -> None:
        """Wrap the public functions of package.<module> for each name, and
        the public methods of sim.Simulation; undo with restore()."""
        modules = {name: getattr(package, name) for name in module_names}
        everywhere = list(modules.values()) + [package]
        replaced: dict[int, object] = {}

        simulation = getattr(modules.get("sim"), "Simulation", None)
        taken = set()
        if simulation is not None:
            for attr, value in list(vars(simulation).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                self._patch(simulation, attr, self._wrap(f"sim.{attr}", value))
                taken.add(f"sim.{attr}")

        for short, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__ or f"{short}.{attr}" in taken:
                    continue
                replaced[id(value)] = self._wrap(f"{short}.{attr}", value, _COUNTERS.get(f"{short}.{attr}"))
        for module in everywhere:
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- aggregation -----------------------------------------------------

    def table(self, num_ops: int, num_setups: int, op_scale=None) -> dict[str, dict[str, dict[str, float]]]:
        """Per phase ("setup" or "op") and span name: calls, inclusive
        seconds and self seconds, per set-up or per operation.  The spans of
        operation i are scaled by op_scale[i] when it is given."""
        n = len(self.start)
        names = np.array(self.name, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=np.int64)
        op = np.array(self.op, dtype=np.int64)
        if op_scale is not None:
            dur *= np.array([op_scale.get(i, 1.0) for i in self.op])
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        k = len(self.names)
        out: dict[str, dict[str, dict[str, float]]] = {}
        for phase, mask, divisor in (("setup", op == SETUP_OP, num_setups), ("op", op != SETUP_OP, num_ops)):
            calls = np.bincount(names[mask], minlength=k)
            total = np.bincount(names[mask], weights=dur[mask], minlength=k)
            own = np.bincount(names[mask], weights=self_time[mask], minlength=k)
            out[phase] = {
                label: {"calls": float(calls[i]) / max(divisor, 1), "s": float(total[i]) / max(divisor, 1),
                        "self_s": float(own[i]) / max(divisor, 1)}
                for i, label in enumerate(self.names) if calls[i]
            }
        return out

    def spans_json(self, first_ops: int = 1) -> dict:
        """Spans of set-up and of the first first_ops operations, columnar,
        with times in seconds from the first span."""
        keep = [i for i in range(len(self.start)) if self.op[i] < first_ops]
        remap = {old: new for new, old in enumerate(keep)}
        t0 = self.start[keep[0]] if keep else 0.0
        return {
            "names": self.names,
            "name": [self.name[i] for i in keep],
            "start": [round(self.start[i] - t0, 9) for i in keep],
            "end": [round(self.end[i] - t0, 9) for i in keep],
            "parent": [remap.get(self.parent[i], -1) for i in keep],
            "op": [self.op[i] for i in keep],
        }


def _count_backup_complete(recorder, args, kwargs):
    """Count calls whose arguments were not seen earlier in the run; holders
    may be any iterable, so it is materialised once here."""
    args = list(args)
    if len(args) >= 4:
        args[3] = list(args[3])
        key = (*args[:3], tuple(args[3]), *args[4:], tuple(sorted(kwargs.items())))
    else:
        key = (tuple(args), tuple(sorted(kwargs.items())))
    if key not in recorder._seen:
        recorder._seen.add(key)
        recorder.counters["redundancy.backup_complete.distinct"] += 1
    return tuple(args)


def _count_transfers(recorder, args, kwargs):
    transfers = args[0] if args else kwargs.get("transfers", ())
    recorder.counters["sim.allocate_slot_transfers.transfers"] += len(transfers)
    return args


def _count_arcs(recorder, args, kwargs):
    call = dict(zip(("problem", "T"), args), **kwargs)
    recorder.counters["sched.build_flow_network.arcs"] += _arcs_of(call["problem"], call["T"])
    return args


_COUNTERS = {
    "redundancy.backup_complete": _count_backup_complete,
    "sched.build_flow_network": _count_arcs,
    "sim.allocate_slot_transfers": _count_transfers,
}
