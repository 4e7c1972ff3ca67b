"""In-memory spans around the public functions of every sketchprune layer.

`install` wraps each public function defined in the layer modules, plus Mask
construction and the RngStream draw methods, and rebinds the wrapper at every
module attribute that holds the original. The library imports with
`from .x import f`, so a function such as `sample_sketch_mask` is bound in
`sketch`, `bounds`, `ntk`, `experiments` and the package itself; patching only
its home module would miss the calls made from the others.

Each span records its function, its parent span, start and end times, and one
work count taken from the arguments or the return value. `summarize` turns a
dumped span file into per-function calls, inclusive busy time, self time and
counts, and per-layer self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("core", "sketch", "scores", "bounds", "ntk", "experiments", "cli")


def _arg(index: int, name: str):
    def count(args, kwargs, result):
        return int(args[index]) if len(args) > index else int(kwargs[name])

    return count


def _report_trials(args, kwargs, result):
    return int(result.trials)


def _mask_nnz(args, kwargs, result):
    return int(result.nnz)


def _result_size(args, kwargs, result):
    return int(getattr(result, "size", 1))


# Work counted at the boundary of a function: (counter name, how to read it).
COUNTERS = {
    "sketch.sample_sketch_mask": ("draws", _arg(1, "s")),
    "bounds.mc_error_over_masks": ("trials", _report_trials),
    "bounds.mc_error_over_data": ("trials", _report_trials),
    "ntk.theorem2_report": ("trials", _report_trials),
    "scores.select_randomized": ("kept", _mask_nnz),
    "experiments.train_least_squares": ("steps", _arg(3, "steps")),
    "core.RngStream.uniform": ("draws", _result_size),
    "core.RngStream.normal": ("draws", _result_size),
    "core.RngStream.integers": ("draws", _result_size),
}
# Class members traced besides the module-level functions.
METHODS = (
    ("core.Mask", "Mask", "__init__"),
    ("core.RngStream.uniform", "RngStream", "uniform"),
    ("core.RngStream.normal", "RngStream", "normal"),
    ("core.RngStream.integers", "RngStream", "integers"),
)


class Recorder:
    """Holds the spans of one process in parallel lists until `dump`."""

    def __init__(self):
        self.names: list[str] = []
        self.fid: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.count: list[int] = []
        self._stack = [-1]

    def wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name, (None, None))[1]
        fids, parents, starts, ends, counts = (
            self.fid, self.parent, self.start, self.end, self.count
        )
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            counts.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if counter is not None:
                counts[i] = counter(args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        payload = {
            "names": self.names,
            "fid": self.fid,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "count": self.count,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def install(recorder: Recorder) -> int:
    """Wrap every traced function at every binding; returns the number of
    module attributes rebound."""
    modules = {layer: importlib.import_module(f"sketchprune.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                wrappers[obj] = recorder.wrap(f"{layer}.{attr}", obj)
    rebound = 0
    for modname, module in list(sys.modules.items()):
        if modname != "sketchprune" and not modname.startswith("sketchprune."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
                rebound += 1
    for name, cls_name, method in METHODS:
        cls = getattr(modules["core"], cls_name)
        setattr(cls, method, recorder.wrap(name, getattr(cls, method)))
    return rebound


def summarize(path: str) -> dict:
    """Per-function and per-layer totals from one dumped span file.

    busy_s sums the spans of a function (or layer) that are not nested
    inside another span of the same function (or layer); self_s sums each
    span's duration minus the durations of its direct children.
    """
    with open(path) as fh:
        data = json.load(fh)
    names, fid, parent = data["names"], data["fid"], data["parent"]
    start, end, count = data["start"], data["end"], data["count"]
    layer_of = [name.split(".", 1)[0] for name in names]
    duration = [e - s for s, e in zip(start, end)]
    child_time = [0.0] * len(fid)
    for i, p in enumerate(parent):
        if p >= 0:
            child_time[p] += duration[i]
    functions = {
        name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "count": 0} for name in names
    }
    layers = {layer: {"busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
    for i, f in enumerate(fid):
        stats = functions[names[f]]
        layer = layers[layer_of[f]]
        stats["calls"] += 1
        stats["self_s"] += duration[i] - child_time[i]
        layer["self_s"] += duration[i] - child_time[i]
        stats["count"] += count[i]
        same_fn = same_layer = False
        p = parent[i]
        while p >= 0 and not same_fn:
            same_fn = fid[p] == f
            same_layer = same_layer or layer_of[fid[p]] == layer_of[f]
            p = parent[p]
        if not same_fn:
            stats["busy_s"] += duration[i]
        if not same_layer:
            layer["busy_s"] += duration[i]
    return {"functions": functions, "layers": layers, "spans": len(fid)}
