"""Span tracer installed around the public API of the ordercones modules.

The tracer wraps, from outside the package, every public function of a
traced module (its ``__all__``, or for modules without one the public
functions it defines) and every public method of its public classes,
plus the constructors of the classes that do real work.  Wrappers are
also installed at every ``from .x import y`` binding site, found by
identity, so calls through ``duality.is_isotone``, ``gps.order_from_functions``
or ``m2.spectral`` are not missed.

Each call becomes a span with a name, start, end, parent span and the id
of the request it belongs to.  A span whose immediate parent has the same
name is folded into the parent, so ``FinitePoset.from_json`` ->
``build_poset`` -> ``FinitePoset.__init__`` -> ``FinitePreorder.__init__``
counts as one ``poset.construct`` call.  Calls, total and self time (span
time minus the time its child spans cover) are aggregated exactly; the
span list itself is kept in memory up to ``SPAN_CAP`` entries and written
out when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

PACKAGE = "ordercones"
TRACED_MODULES = ("poset", "isotone_cone", "duality", "gps", "hermitian", "m2", "acceptance", "cli")

SPAN_CAP = 200_000  # spans kept in memory; later ones are only aggregated

# Constructors worth a span: the classes whose __init__ validates or
# computes something.  Result records and expression nodes are left out;
# their construction is part of the caller's self time.
CONSTRUCTED = {
    "poset": ("FinitePreorder", "FinitePoset"),
    "gps": ("FiniteMetricSpace",),
    "hermitian": ("HermitianMatrix",),
    "m2": ("SphericalRegion", "PureStatePoint", "DensityState"),
}

# Every entry point that builds a poset (and closes or verifies its
# relation) is reported as the one layer operation poset.construct.
POSET_CONSTRUCT = {"__init__", "from_json", "build_poset", "build_preorder"}


def span_name(module: str, owner: str | None, attr: str) -> str:
    """Metric-style name of a traced callable."""
    if module == "poset" and attr in POSET_CONSTRUCT:
        return "poset.construct"
    if owner is None or module == "poset":
        return f"{module}.{attr}"
    if attr == "__init__":
        return f"{module}.{owner}.construct"
    return f"{module}.{owner}.{attr}"


class Tracer:
    """In-memory span recorder with exact per-name aggregates."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.request = 0
        self.dropped = 0
        self._stack: list[list] = []  # [name_id, start, child_time, span_id]
        self._next_span = 0
        self.col_id = array("q")
        self.col_name = array("i")
        self.col_start = array("d")
        self.col_end = array("d")
        self.col_parent = array("q")
        self.col_request = array("q")
        self._patches: list[tuple[object, str, object]] = []

    # Recording -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == nid:
                return fn(*args, **kwargs)
            span = self._next_span
            self._next_span = span + 1
            parent = stack[-1][3] if stack else -1
            frame = [nid, clock(), 0.0, span]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self.calls[nid] += 1
                self.total[nid] += dur
                self.self_time[nid] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if len(self.col_id) < SPAN_CAP:
                    self.col_id.append(span)
                    self.col_name.append(nid)
                    self.col_start.append(frame[1])
                    self.col_end.append(end)
                    self.col_parent.append(parent)
                    self.col_request.append(self.request)
                else:
                    self.dropped += 1

        return traced

    # Installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced modules of the already imported package."""
        originals: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, fn in _public_functions(mod):
                wrapped = self.wrap(span_name(short, None, attr), fn)
                originals[id(fn)] = wrapped
                self._patch(mod, attr, wrapped)
            for cname, cls in _public_classes(mod):
                for attr, raw in list(vars(cls).items()):
                    if attr == "__init__":
                        if cname not in CONSTRUCTED.get(short, ()):
                            continue
                    elif attr.startswith("_"):
                        continue
                    name = span_name(short, cname, attr)
                    if isinstance(raw, classmethod):
                        self._patch(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                    elif isinstance(raw, staticmethod):
                        self._patch(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
                    elif inspect.isfunction(raw):
                        self._patch(cls, attr, self.wrap(name, raw))
        # Re-point every binding of an original function inside the package
        # (``from .x import y`` copies and the package namespace itself).
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None and getattr(mod, attr) is not wrapped:
                    self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # Results ---------------------------------------------------------------

    def aggregates(self) -> dict[str, dict]:
        return {
            name: {
                "calls": self.calls[i],
                "total_s": self.total[i],
                "self_s": self.self_time[i],
            }
            for i, name in enumerate(self.names)
            if self.calls[i]
        }

    def spans(self) -> dict:
        """Column-wise span table; names index into ``names``."""
        return {
            "names": list(self.names),
            "id": self.col_id.tolist(),
            "name": self.col_name.tolist(),
            "start": self.col_start.tolist(),
            "end": self.col_end.tolist(),
            "parent": self.col_parent.tolist(),
            "request": self.col_request.tolist(),
            "dropped": self.dropped,
        }


def _public_functions(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for attr in names:
        fn = getattr(mod, attr, None)
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
            yield attr, fn


def _public_classes(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for attr in names:
        cls = getattr(mod, attr, None)
        if inspect.isclass(cls) and cls.__module__ == mod.__name__:
            yield attr, cls


def merge_aggregates(into: dict[str, dict], other: dict[str, dict]) -> None:
    for name, agg in other.items():
        slot = into.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in ("calls", "total_s", "self_s"):
            slot[key] += agg[key]
