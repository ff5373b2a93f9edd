"""Spans around the package's public functions, recorded from outside the package.

`Tracer.install` wraps every public function of each layer module and binds
the wrapper under every name a caller looks it up by: the defining module,
the `harmonium` package namespace, and each `from .x import y` binding in the
other modules (for example `harmonium.cli.derive_frequencies`).  A span is
(name, start, end, parent); spans stay in memory until `write` is called.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: The package modules that count as layers, in call order from the CLI down.
LAYERS = ("cli", "solver", "mueller", "model", "spectral", "entropy", "oracle")


class Tracer:
    """Records nested spans; a span is the list [name, start, end, parent_span]."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            spans.append(span)
            stack.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every layer of `package`."""
        prefix = package.__name__ + "."
        originals: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules[prefix + layer]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    originals[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        namespaces = [package] + [m for name, m in sys.modules.items() if name.startswith(prefix)]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                entry = originals.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(namespace, attr, entry[1])
                    self._patches.append((namespace, attr, obj))

    def uninstall(self) -> None:
        """Put every original function back."""
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: duration minus the time direct children cover."""
        children = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent is not None:
                children[id(parent)] += end - start
        totals = defaultdict(float)
        for span in self.spans:
            name, start, end, _ = span
            totals[name] += (end - start) - children.get(id(span), 0.0)
        return dict(totals)

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time summed per layer (the part of the span name before the dot)."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_seconds().items():
            totals[name.partition(".")[0]] += seconds
        return totals

    def count(self, name: str, parent: str | None = None) -> int:
        """Spans called `name`, optionally only those whose direct parent is called `parent`."""
        return sum(
            1 for span in self.spans
            if span[0] == name and (parent is None or (span[3] is not None and span[3][0] == parent))
        )


def write(path: Path, sections: dict[str, Tracer]) -> None:
    """Write spans as gzip JSON lines: [section, index, name, start, end, parent index]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": ["section", "index", "name", "start", "end", "parent"]}) + "\n")
        for section, tracer in sections.items():
            index = {id(span): i for i, span in enumerate(tracer.spans)}
            for i, (name, start, end, parent) in enumerate(tracer.spans):
                parent_index = -1 if parent is None else index[id(parent)]
                fh.write(json.dumps([section, i, name, start, end, parent_index]) + "\n")
