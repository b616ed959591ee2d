"""Spans around holoreg's public entry points, installed from outside ``src/``.

Python callers look a function up in their own module's namespace, so each
target is replaced in every holoreg module that holds a reference to it; a
method is replaced on its class.  ``Hooks`` undoes every replacement, so the
untraced runs measure the library exactly as shipped.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from collections import defaultdict

# layer -> (module, attribute) pairs; "Class.method" patches the class.
TARGETS = {
    "specs.parse": [("specs", "parse_group_spec")],
    "specs.load_table": [("specs", "load_cayley_table")],
    "groups.validate": [("groups", "FiniteGroup.__init__")],
    "groups.semidirect": [("groups", "semidirect_product")],
    "groups.aut_search": [("groups", "automorphism_group")],
    "groups.isomorphism": [("groups", "find_isomorphism")],
    "groups.homomorphisms": [("groups", "all_homomorphisms")],
    "groups.sylow": [("groups", "sylow_subgroup")],
    "cgroups.recognize": [("cgroups", "recognize_cgroup")],
    "cgroups.aut_group": [("cgroups", "cgroup_aut_group")],
    "realizability.classify": [("realizability", "classify")],
    "realizability.decompose": [("realizability", "decompose")],
    "realizability.normalize": [("realizability", "normalize_alpha")],
    "realizability.construct": [("realizability", "construct")],
    "realizability.witness_verify": [
        ("holomorph", "HolElement.cycle_length_through_identity"),
        ("holomorph", "HolElement.order")],
    "realizability.corpus": [("realizability", "generate_corpus")],
    "holomorph.oracle_scan": [("holomorph", "cyclic_regular_oracle")],
    "cli": [("cli", "run"), ("cli", "sweep_one")],
}

MODULES = ("specs", "groups", "cgroups", "holomorph", "realizability", "cli")


def _module(name: str):
    return sys.modules[f"holoreg.{name}"]


class Hooks:
    """Replacements of library functions, each undone by ``restore``."""

    def __init__(self):
        self.saved = []

    def replace(self, module: str, attr: str, make_wrapper) -> None:
        """Wrap ``module.attr`` everywhere holoreg code looks it up."""
        owner = _module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            self.saved.append((cls, meth, original))
            setattr(cls, meth, make_wrapper(original))
            return
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        for mod in [sys.modules["holoreg"]] + [_module(m) for m in MODULES]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.saved.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def restore(self) -> None:
        for owner, key, original in reversed(self.saved):
            setattr(owner, key, original)
        self.saved.clear()


class Capture:
    """Keeps what ``cli`` got back from a library call, without timing it.

    The benchmark checks outputs the report does not print (the witness
    object, the oracle's generators); the wrapper costs one extra Python call.
    It calls whatever ``module.name`` is at that moment, so spans installed
    later still see the call.
    """

    def __init__(self, hooks: Hooks, module: str, name: str):
        self.calls = []  # (args, result or None, exception or None)
        calls, home = self.calls, _module(module)

        def captured(*args, **kwargs):
            try:
                result = getattr(home, name)(*args, **kwargs)
            except Exception as exc:
                calls.append((args, None, exc))
                raise
            calls.append((args, result, None))
            return result
        owner = _module("cli")
        hooks.saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, captured)

    def take(self):
        """The last call made since the previous take, or None."""
        last = self.calls[-1] if self.calls else None
        self.calls.clear()
        return last


class Tracer:
    """In-memory spans: name, start, end, parent, and the operation they serve."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None

    def wrapper(self, layer: str):
        tracer = self

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                span = {"id": len(tracer.spans), "name": layer,
                        "parent": tracer.stack[-1]["id"] if tracer.stack else None,
                        "op": tracer.op, "child_s": 0.0}
                tracer.spans.append(span)
                tracer.stack.append(span)
                span["start"] = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                except BaseException as exc:
                    span["error"] = type(exc).__name__
                    raise
                finally:
                    span["end"] = time.perf_counter()
                    tracer.stack.pop()
                    if tracer.stack:
                        tracer.stack[-1]["child_s"] += span["end"] - span["start"]
                _annotate(span, layer, args, result)
                return result
            return traced
        return make

    def install(self, hooks: Hooks) -> None:
        for layer, places in TARGETS.items():
            for module, attr in places:
                hooks.replace(module, attr, self.wrapper(layer))


class PairedCalls:
    """Runs each operation traced, and every fourth one untraced as well.

    Pairing the two runs of an operation lets drift in machine speed fall on
    both alike, so the difference over the pairs is the tracing overhead.  The
    second run of a pair finds warmer caches, so the order alternates from
    pair to pair.  Pairing only a quarter of the operations keeps a traced
    run short.
    """

    every = 4

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.calls = 0
        self.untraced_s = 0.0   # summed over the paired operations only
        self.traced_s = 0.0

    def _untraced(self, operation) -> None:
        gc.collect(1)
        t0 = time.perf_counter()
        operation()
        self.untraced_s += time.perf_counter() - t0

    def __call__(self, label: str, operation):
        pair, slot = divmod(self.calls, self.every)
        paired = slot == 0
        self.calls += 1
        if paired and pair % 2 == 0:
            self._untraced(operation)
        hooks = Hooks()
        self.tracer.install(hooks)
        self.tracer.op = label
        gc.collect(1)
        try:
            t0 = time.perf_counter()
            result = operation()
            seconds = time.perf_counter() - t0
        finally:
            hooks.restore()
        if paired:
            self.traced_s += seconds
            if pair % 2 == 1:
                self._untraced(operation)
        return result, seconds


def _annotate(span: dict, layer: str, args, result) -> None:
    if layer == "groups.aut_search":
        span["found"] = len(result)
    elif layer == "holomorph.oracle_scan":
        span["n"] = args[0].order
        span["generators"] = len(result)


LAYER_METRICS = (
    ("specs.parse_s", "s"), ("specs.parse_calls", "count"),
    ("specs.load_table_s", "s"),
    ("groups.validate_s", "s"), ("groups.validate_calls", "count"),
    ("groups.semidirect_s", "s"),
    ("groups.aut_search_s", "s"), ("groups.aut_search_calls", "count"),
    ("groups.aut_found", "count"), ("groups.aut_aborted", "count"),
    ("groups.isomorphism_s", "s"), ("groups.homomorphisms_s", "s"),
    ("groups.sylow_s", "s"),
    ("cgroups.recognize_s", "s"), ("cgroups.recognize_calls", "count"),
    ("cgroups.aut_group_s", "s"), ("cgroups.aut_group_builds", "count"),
    ("realizability.classify_s", "s"),
    ("realizability.decompose_s", "s"), ("realizability.normalize_s", "s"),
    ("realizability.construct_s", "s"),
    ("realizability.witness_verify_s", "s"),
    ("realizability.corpus_s", "s"),
    ("holomorph.oracle_scan_s", "s"), ("holomorph.oracle_pair_steps", "count"),
    ("holomorph.oracle_groups_checked", "count"),
    ("holomorph.oracle_groups_skipped", "count"),
    ("holomorph.oracle_generators", "count"),
    ("cli.self_s", "s"),
)

_CALL_COUNTS = {"specs.parse_calls": "specs.parse",
                "groups.validate_calls": "groups.validate",
                "groups.aut_search_calls": "groups.aut_search",
                "cgroups.recognize_calls": "cgroups.recognize",
                "cgroups.aut_group_builds": "cgroups.aut_group"}


def layer_metrics(spans: list) -> dict:
    """Self time per layer (duration minus direct children) and work counts."""
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    aut_found = {}  # parent span id -> |Aut| of its last finished search
    for s in spans:
        if s["name"] == "groups.aut_search" and "found" in s:
            aut_found[s["parent"]] = s["found"]
    for s in spans:
        name = s["name"]
        self_s[name] += (s["end"] - s["start"]) - s["child_s"]
        calls[name] += 1
        if name == "groups.aut_search":
            if "found" in s:
                counts["groups.aut_found"] += s["found"]
            elif s.get("error") == "BoundExceeded":
                counts["groups.aut_aborted"] += 1
        elif name == "holomorph.oracle_scan":
            if "generators" in s:
                counts["holomorph.oracle_groups_checked"] += 1
                counts["holomorph.oracle_generators"] += s["generators"]
                counts["holomorph.oracle_pair_steps"] += \
                    s["n"] * aut_found[s["id"]] * s["n"]
            elif s.get("error") == "BoundExceeded":
                counts["holomorph.oracle_groups_skipped"] += 1
    out = {}
    for metric, unit in LAYER_METRICS:
        if metric in _CALL_COUNTS:
            value = calls[_CALL_COUNTS[metric]]
        elif unit == "s":  # "groups.sylow_s" -> "groups.sylow", "cli.self_s" -> "cli"
            value = self_s[metric[:-len("_s")].replace(".self", "")]
        else:
            value = counts[metric]
        out[metric] = {"value": value, "unit": unit}
    return out
