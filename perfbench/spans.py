"""Spans around calls into the public functions of the pancakes modules.

A :class:`Tracer` replaces those functions, in every pancakes module that
binds them, with wrappers that record one span per call: name, start, end,
parent span and an amount of work (ranks, bytes, cycles). Nothing inside the
program is changed. Spans are kept in memory and written out when the
process ends; :func:`layer_totals` reduces them to additive per-layer sums
and :func:`layer_metrics` turns the sums of one round into metrics.

A span's self time is its duration minus the part of it that its child
spans cover. Worker threads have no span of their own at the bottom of their
stack, so their spans are children of the span the main thread has open
(the search entry point that started the pool).
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import threading
import time
import tracemalloc

# function -> layer family; several functions of one family share a metric,
# and a family member called from another (batch_sunrank -> batch_unrank)
# counts its work once.
FAMILIES = {
    "_kernels.batch_unrank": "kernels.unrank",
    "_kernels.batch_sunrank": "kernels.unrank",
    "_kernels.batch_flip": "kernels.flip",
    "_kernels.batch_signed_flip": "kernels.flip",
    "_kernels.batch_rank": "kernels.rank",
    "_kernels.batch_srank": "kernels.rank",
    "_kernels.bitset_test": "kernels.bitset_test",
    "_kernels.bitset_set": "kernels.bitset_set",
    "_kernels.bitset_extract_ranks": "kernels.extract",
    "_kernels.bitset_popcount": "kernels.popcount",
    "search.layer_profile": "search.entry",
    "search.resume": "search.entry",
    "search.distance": "search.distance",
    "search.sort_sequence": "search.sort",
    "checkpoint.write_checkpoint": "checkpoint.write",
    "checkpoint.read_checkpoint": "checkpoint.read",
    "checkpoint.crc32c": "checkpoint.crc",
    "cycles.enumerate_cycles": "cycles.enumerate",
    "cycles.match_form": "cycles.match",
    "cycles.canonicalize": "cycles.canonicalize",
    "perms.rank": "perms.rank",
    "perms.srank": "perms.rank",
}

SEARCH_ENTRIES = ("search.entry", "search.distance", "search.sort")
QUERIES = ("search.distance", "search.sort")


def _entry() -> dict:
    return {"calls": 0, "amount": 0, "total_s": 0.0, "self_s": 0.0}


def _amount(qualname: str):
    """How much work one call did, from its arguments and result."""
    if qualname in ("_kernels.batch_unrank", "_kernels.batch_sunrank"):
        return lambda args, result: int(args[1].shape[0])
    if qualname in ("_kernels.batch_rank", "_kernels.batch_srank"):
        return lambda args, result: int(args[0].shape[0])
    if qualname in ("_kernels.bitset_test", "_kernels.bitset_set"):
        return lambda args, result: int(args[1].shape[0])
    if qualname == "_kernels.bitset_popcount":
        return lambda args, result: int(result)
    if qualname in ("checkpoint.write_checkpoint", "checkpoint.read_checkpoint"):
        return lambda args, result: os.path.getsize(args[0])
    if qualname == "checkpoint.crc32c":
        return lambda args, result: len(args[0])
    if qualname == "cycles.enumerate_cycles":
        return lambda args, result: len(result)
    return None


class Tracer:
    """Records spans from any thread; install it once per process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [qualname, start, end, parent, amount]
        self.required: list[int] = []  # required_memory of each search, bytes
        self.traced_peaks: list[int] = []  # tracemalloc peak of each search, bytes
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        try:
            return self._main_stack[-1] if stack is not self._main_stack else -1
        except IndexError:
            return -1

    def wrap(self, qualname: str, fn):
        amount = _amount(qualname)
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                index = len(spans)
                spans.append([qualname, 0.0, 0.0, self._parent(stack), 0])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = spans[index]
                span[1], span[2] = start, end
            if amount is not None:
                span[4] = amount(args, result)
            return result

        return traced

    def wrap_search(self, qualname: str, fn, required_memory):
        """A search entry point: also its memory estimate and tracemalloc peak.

        Searches that read or write checkpoints run without tracemalloc: it
        makes the pure-Python CRC-32C about 15 times slower.
        """
        traced = self.wrap(qualname, fn)

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            resumed = qualname == "search.resume"
            graph = kwargs.get("expect") if resumed else args[0]
            if graph is not None:
                self.required.append(required_memory(
                    graph,
                    workers=kwargs.get("workers", 1),
                    with_layer_map=qualname == "search.sort_sequence",
                ))
            if resumed or kwargs.get("checkpoint_path") is not None:
                return traced(*args, **kwargs)
            tracemalloc.start()
            try:
                return traced(*args, **kwargs)
            finally:
                self.traced_peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    def install(self) -> None:
        """Wrap the public functions in every pancakes module that binds them."""
        from pancakes import search

        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "pancakes"]
        for qualname in FAMILIES:
            module_name, _, attr = qualname.partition(".")
            original = getattr(sys.modules[f"pancakes.{module_name}"], attr)
            if module_name == "search":
                wrapper = self.wrap_search(qualname, original, search.required_memory)
            else:
                wrapper = self.wrap(qualname, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def write(self, path: str, **extra) -> None:
        totals = layer_totals(self.spans)
        totals["traced_peak_bytes"] = max(self.traced_peaks, default=0)
        totals["required_bytes"] = max(self.required, default=0)
        totals.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"totals": totals, "spans": self.spans}, fh)


def self_times(spans: list[list]) -> list[float]:
    """Duration minus the union of the child intervals, per span."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(index)
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


def layer_totals(spans: list[list]) -> dict:
    """Additive sums per family: calls, amount and inclusive time of the
    outermost member calls, self time of all member calls."""
    totals: dict = {"query_ms": {family: [] for family in QUERIES}}
    selfs = self_times(spans)
    for index, (qualname, start, end, parent, amount) in enumerate(spans):
        family = FAMILIES[qualname]
        entry = totals.setdefault(family, _entry())
        entry["self_s"] += selfs[index]
        if parent >= 0 and FAMILIES[spans[parent][0]] == family:
            continue
        entry["calls"] += 1
        entry["amount"] += amount
        entry["total_s"] += end - start
        if family in QUERIES:
            totals["query_ms"][family].append(1000 * (end - start))
    return totals


def combine(parts: list[dict]) -> dict:
    """Sum the totals of the processes of one round."""
    out: dict = {"query_ms": {family: [] for family in QUERIES}}
    for part in parts:
        for key, value in part.items():
            if key == "query_ms":
                for family, values in value.items():
                    out["query_ms"][family].extend(values)
            elif key in ("traced_peak_bytes", "required_bytes"):
                out[key] = max(out.get(key, 0), value)
            elif isinstance(value, dict):
                entry = out.setdefault(key, _entry())
                for field, number in value.items():
                    entry[field] += number
            else:
                out[key] = out.get(key, 0) + value
    return out


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "kernels.unrank_s": "s",
    "kernels.flip_s": "s",
    "kernels.rank_s": "s",
    "kernels.bitset_test_s": "s",
    "kernels.bitset_set_s": "s",
    "kernels.extract_s": "s",
    "kernels.popcount_s": "s",
    "kernels.unrank_ranks": "count",
    "kernels.rank_ranks": "count",
    "kernels.unrank_rate": "1/s",
    "kernels.rank_rate": "1/s",
    "search.bfs_layers": "count",
    "search.expanded": "count",
    "search.fresh_ratio": "ratio",
    "search.other_s": "s",
    "search.traced_peak_mb": "MB",
    "search.required_mb": "MB",
    "search.query_distance_ms_p50": "ms",
    "search.query_sort_ms_p50": "ms",
    "checkpoint.write_s": "s",
    "checkpoint.read_s": "s",
    "checkpoint.crc_s": "s",
    "checkpoint.writes": "count",
    "checkpoint.reads": "count",
    "checkpoint.bytes_written": "bytes",
    "checkpoint.bytes_read": "bytes",
    "cycles.enumerate_s": "s",
    "cycles.match_s": "s",
    "cycles.canonicalize_s": "s",
    "cycles.canonicalize_calls": "count",
    "cycles.cycles_found": "count",
    "perms.rank_calls": "count",
    "perms.rank_s": "s",
    "cli.import_s": "s",
    "cli.processes": "count",
    "traced.wall_s": "s",
}


def layer_metrics(totals: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced round from its combined totals."""
    def fam(name: str) -> dict:
        return totals.get(name, _entry())

    def rate(name: str) -> float:
        entry = fam(name)
        return entry["amount"] / entry["total_s"] if entry["total_s"] else 0.0

    def p50(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    tested = fam("kernels.bitset_test")["amount"]
    mb = 1 / (1 << 20)
    return {
        "kernels.unrank_s": fam("kernels.unrank")["self_s"],
        "kernels.flip_s": fam("kernels.flip")["self_s"],
        "kernels.rank_s": fam("kernels.rank")["self_s"],
        "kernels.bitset_test_s": fam("kernels.bitset_test")["self_s"],
        "kernels.bitset_set_s": fam("kernels.bitset_set")["self_s"],
        "kernels.extract_s": fam("kernels.extract")["self_s"],
        "kernels.popcount_s": fam("kernels.popcount")["self_s"],
        "kernels.unrank_ranks": fam("kernels.unrank")["amount"],
        "kernels.rank_ranks": fam("kernels.rank")["amount"],
        "kernels.unrank_rate": rate("kernels.unrank"),
        "kernels.rank_rate": rate("kernels.rank"),
        # every expanded layer ends with exactly one popcount of the new layer
        "search.bfs_layers": fam("kernels.popcount")["calls"],
        "search.expanded": fam("kernels.unrank")["amount"],
        "search.fresh_ratio": fam("kernels.popcount")["amount"] / tested if tested else 0.0,
        "search.other_s": sum(fam(name)["self_s"] for name in SEARCH_ENTRIES),
        "search.traced_peak_mb": totals.get("traced_peak_bytes", 0) * mb,
        "search.required_mb": totals.get("required_bytes", 0) * mb,
        "search.query_distance_ms_p50": p50(totals["query_ms"]["search.distance"]),
        "search.query_sort_ms_p50": p50(totals["query_ms"]["search.sort"]),
        "checkpoint.write_s": fam("checkpoint.write")["self_s"],
        "checkpoint.read_s": fam("checkpoint.read")["self_s"],
        "checkpoint.crc_s": fam("checkpoint.crc")["self_s"],
        "checkpoint.writes": fam("checkpoint.write")["calls"],
        "checkpoint.reads": fam("checkpoint.read")["calls"],
        "checkpoint.bytes_written": fam("checkpoint.write")["amount"],
        "checkpoint.bytes_read": fam("checkpoint.read")["amount"],
        "cycles.enumerate_s": fam("cycles.enumerate")["self_s"],
        "cycles.match_s": fam("cycles.match")["self_s"],
        "cycles.canonicalize_s": fam("cycles.canonicalize")["self_s"],
        "cycles.canonicalize_calls": fam("cycles.canonicalize")["calls"],
        "cycles.cycles_found": fam("cycles.enumerate")["amount"],
        "perms.rank_calls": fam("perms.rank")["calls"],
        "perms.rank_s": fam("perms.rank")["self_s"],
        "cli.import_s": totals.get("import_s", 0.0),
        "cli.processes": totals.get("processes", 0),
        "traced.wall_s": wall_s,
    }
