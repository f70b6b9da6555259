"""Span tracer that wraps the package's public functions from the outside.

`install` replaces each traced function in every module of the package that
holds it (`sim`, `keyspace` and `cli` import `encrypt`, `encode_*` and
`validate_topology` by name, so patching the defining module alone would
miss their calls) and each traced `Topology` method on the class.  Every
call then records a span (name, start, end, parent) in flat arrays; self
time is derived afterwards as span time minus the time of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array


def _keys_tried(args, result):
    if result is None:
        return 1 << (8 * args[2])
    return int.from_bytes(result, "big") + 1


def _in_len(args, result):
    return len(args[0])


def _out_len(args, result):
    return len(result)


# Work counted per call, reported as `<target>.bytes` or `.keys_tried`.
WORK = {
    "cipher.encrypt": _in_len,
    "cipher.decrypt": _in_len,
    "wire.encode_frame": _out_len,
    "wire.decode_frame": _in_len,
    "wire.encode_readings": _out_len,
    "wire.decode_readings": _in_len,
    "wire.xor_fold": _in_len,
    "keyspace.exhaustive_search": _keys_tried,
    "keyspace.recover_keystream": _in_len,
}


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)
        self.reset()

    def reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = dict.fromkeys(self.targets, 0)
        self._stack = []

    def wrap(self, target, fn):
        name_id = self.targets.index(target)
        work = WORK.get(target)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            index = len(self.name)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(index)
            began = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                self.start[index] = began
                self.end[index] = ended
            if work is not None:
                self.work[target] += work(args, result)
            return result

        return traced

    def summary(self):
        """Per target: [calls, self seconds]; self = span minus child spans."""
        duration = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(duration)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += duration[index]
        stats = {target: [0, 0.0] for target in self.targets}
        for index, name_id in enumerate(self.name):
            entry = stats[self.targets[name_id]]
            entry[0] += 1
            entry[1] += duration[index] - child[index]
        return stats

    def write(self, path):
        """Write every span as `name start end parent`, one per line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\n")
            for name_id, parent, start, end in zip(
                self.name, self.parent, self.start, self.end
            ):
                handle.write(
                    f"{self.targets[name_id]}\t{start!r}\t{end!r}\t{parent}\n"
                )


def _owner(ws, target):
    module_name, attr = target.split(".")
    module = getattr(ws, module_name)
    # Topology's lookups are methods, so they are wrapped on the class.
    return (module if hasattr(module, attr) else module.Topology), attr


@contextlib.contextmanager
def install(tracer, ws):
    """Wrap every target wherever the package looks it up; restore on exit."""
    modules = [
        m
        for name, m in sys.modules.items()
        if name == ws.__name__ or name.startswith(ws.__name__ + ".")
    ]
    patched = []
    try:
        for target in tracer.targets:
            owner, attr = _owner(ws, target)
            original = getattr(owner, attr)
            wrapped = tracer.wrap(target, original)
            holders = [owner] + [
                m for m in modules if m is not owner and m.__dict__.get(attr) is original
            ]
            for holder in holders:
                patched.append((holder, attr, original))
                setattr(holder, attr, wrapped)
        yield
    finally:
        for holder, attr, original in reversed(patched):
            setattr(holder, attr, original)
