"""In-memory span recorder for the traced benchmark run.

``install()`` wraps the public functions named in ``targets()`` in every
``trisectlab`` module namespace that holds them, so calls between modules
(``height_enum`` calling its imported ``floor_linear``) are caught as well
as calls into the defining module.  Each call records one span: name,
start, end and the span that was open in the calling thread when it began.
A generator function gets one span whose duration is only the time spent
inside the generator, plus the number of items it yielded.  Untraced runs
never import this module, so they run the program unmodified.

Spans live in flat arrays while the workload runs and are written out by
``Tracer.dump`` at the end; ``Tracer.metrics`` derives per-layer numbers
from them.  Self time is a span's duration minus the time its child spans
cover (clamped at the span's own duration, since shard threads under the
interpreter lock can hold overlapping spans).
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
from array import array
from time import perf_counter

import numpy as np

import workloads

SPAN_STATS = ("calls", "self_s", "yielded")


def targets() -> dict[str, list[str]]:
    """Functions to wrap, by module: every per-layer metric of
    ``BENCHMARK.json`` named ``<module>.<qualname>.<stat>`` with a stat in
    ``SPAN_STATS``."""
    out: dict[str, list[str]] = {}
    for entry in workloads.per_layer_metrics():
        module, _, rest = entry["name"].partition(".")
        qualname, _, stat = rest.rpartition(".")
        if stat in SPAN_STATS and qualname not in out.setdefault(module, []):
            out[module].append(qualname)
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.gen = {}  # span index -> (busy seconds, items yielded)
        self.meta = {}  # span index -> call facts some metrics need
        self.images = {}  # density span index -> distinct apply_f results under it
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()
        self._undo = []
        self.missing = {}  # span name -> why it could not be wrapped
        self.density_id = self.name_id("trisect_core.density_experiment")

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, nid: int, stack: list[int]) -> int:
        # A shard thread starts with an empty stack; its spans belong to
        # the span the main thread is blocked in.
        src = stack or self._main_stack
        parent = src[-1] if src else -1
        with self._lock:
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(parent)
            self.start.append(perf_counter())
            self.end.append(0.0)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()

    def span(self, name: str):
        return _Span(self, self.name_id(name))

    # -- wrappers -------------------------------------------------------

    def _call_wrapper(self, nid, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack()
            idx = tracer.open(nid, stack)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                tracer.close(idx)
            if hook is not None:
                hook(tracer, idx, args, kwargs, result)
            return result

        return wrapper

    def _gen_wrapper(self, nid, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack()
            idx = tracer.open(nid, stack)
            busy = 0.0
            items = 0
            inner = fn(*args, **kwargs)
            try:
                while True:
                    stack.append(idx)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        busy += perf_counter() - t0
                        stack.pop()
                    items += 1
                    yield item
            finally:
                inner.close()
                tracer.close(idx)
                tracer.gen[idx] = (busy, items)

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded trisectlab namespace."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "trisectlab" or n.startswith("trisectlab."))]
        for short, names in targets().items():
            try:
                home = importlib.import_module(f"trisectlab.{short}")
            except ImportError:
                home = None
            for qualname in names:
                span_name = f"{short}.{qualname}"
                nid = self.name_id(span_name)
                owner = home
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if not callable(original):
                    self.missing[span_name] = f"trisectlab.{short} has no {qualname}"
                    continue
                if inspect.isgeneratorfunction(original):
                    wrapped = self._gen_wrapper(nid, original)
                else:
                    wrapped = self._call_wrapper(nid, original, _HOOKS.get(span_name))
                if owner is not home:
                    self._replace(owner, attr, original, wrapped)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, key, original, wrapped)

    def _replace(self, owner, key, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- analysis -------------------------------------------------------

    def arrays(self):
        n = len(self.start)
        name = np.frombuffer(self.name, dtype=np.uint16, count=n).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        dur = end - start
        for idx, (busy, _) in self.gen.items():
            dur[idx] = busy
        return name, parent, start, end, dur

    def dump(self, path: str) -> None:
        """Write every span (name, start, end, parent, duration) to ``path``."""
        name, parent, start, end, dur = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            start=start, end=end, duration=dur)

    def metrics(self) -> dict:
        """Per-name totals: calls, self seconds and yielded items, plus the
        derived counts the benchmark reports."""
        name, parent, _, _, dur = self.arrays()
        n = len(dur)
        k = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - np.minimum(child, dur)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_t, minlength=k)
        out = {}
        for i, label in enumerate(self.names):
            out[label] = {"calls": int(calls[i]), "self_s": float(self_s[i])}
        for idx, (_, items) in self.gen.items():
            out[self.names[self.name[idx]]]["yielded"] = (
                out[self.names[self.name[idx]]].get("yielded", 0) + items)

        enum_id = self.name_id("height_enum.enumerate_ball_interval")
        decide_id = self.name_id("trisect_core.decide_trisection")
        density_id = self.density_id
        enum_parents = parent[name == enum_id]
        enum_parents = enum_parents[enum_parents >= 0]
        out["image_index.builds"] = int(np.count_nonzero(name[enum_parents] == decide_id))

        preimages = sum(items for idx, (_, items) in self.gen.items()
                        if self.name[idx] == enum_id and self.parent[idx] >= 0
                        and self.name[self.parent[idx]] == density_id)
        images = sum(len(s) for s in self.images.values())
        out["density.images"] = images
        out["density.preimages"] = preimages

        sieve_id = self.name_id("coprime_count.sieve_count")
        qbox_id = self.name_id("height_enum.qbox")
        out["sieve.terms"] = sum(v for i, v in self.meta.items() if self.name[i] == sieve_id)
        qbox = [v for i, v in self.meta.items() if self.name[i] == qbox_id]
        out["qbox.checked"] = sum(v[0] for v in qbox)
        out["qbox.count"] = sum(v[1] for v in qbox)

        by_shards = {}
        for idx, facts in self.meta.items():
            if self.name[idx] == density_id:
                by_shards[facts] = float(dur[idx])
        speedups = [by_shards[key] / by_shards[key[:-1] + (2,)]
                    for key in by_shards if key[-1] == 1 and key[:-1] + (2,) in by_shards]
        out["density.shard2_speedups"] = speedups
        out["spans"] = n
        out["missing"] = self.missing
        return out


class _Span:
    """Context manager recording one span from the benchmark's own code."""

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        stack = self.tracer.stack()
        self.idx = self.tracer.open(self.nid, stack)
        stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        self.tracer.stack().pop()
        self.tracer.close(self.idx)
        return False


# Count hooks run after a call returns; they read only the call's own
# arguments and result.

def _sieve_terms(tracer, idx, args, kwargs, result):
    box = args[0] if args else kwargs["box"]
    tracer.meta[idx] = max(0, min(box.floors()))


def _qbox_counts(tracer, idx, args, kwargs, result):
    tracer.meta[idx] = (result["members_checked"], result["count"])


def _apply_f_image(tracer, idx, args, kwargs, result):
    parent = tracer.parent[idx]
    if parent >= 0 and tracer.name[parent] == tracer.density_id:
        tracer.images.setdefault(parent, set()).add(result)


def _density_facts(tracer, idx, args, kwargs, result):
    field = args[0] if args else kwargs["field"]
    r_list = args[1] if len(args) > 1 else kwargs["R_list"]
    shards = args[2] if len(args) > 2 else kwargs.get("shards", 1)
    tracer.meta[idx] = (field.label(), field.d, tuple(str(r) for r in r_list), shards)


_HOOKS = {
    "coprime_count.sieve_count": _sieve_terms,
    "height_enum.qbox": _qbox_counts,
    "trisect_core.apply_f": _apply_f_image,
    "trisect_core.density_experiment": _density_facts,
}
