"""Per-layer tracing for the end-to-end benchmark, from outside the library.

The traced pass replaces public functions of ``repro`` with thin
wrappers that open a :class:`repro.telemetry.Telemetry` span around
every call, and puts the originals back afterwards.  Nothing under
``src/`` is edited; the spans are recorded from the benchmark's side of
each layer boundary.

- A *layer* names one or more *targets*, each written
  ``"module:Qualified.name"``.  A module-level function is wrapped at
  every module-level binding of that same function object in the loaded
  ``repro`` modules, so ``from x import f`` call sites are traced too.
  A method is wrapped on the named class.
- A target that cannot be imported or looked up is reported in
  :attr:`Tracer.absent` instead of raising, so a refactor that moves a
  function leaves the traced pass running with that layer reading 0.
- Every operation runs inside a root span named ``<kind>#<id>`` (kinds:
  ``setup``, ``op``, ``check``); all spans of one operation share that
  id as their path prefix.
- A span's *self time* is its duration minus the durations of its
  direct children.  Spans nest strictly in one thread, so the self
  times inside a root add up to the root's duration exactly; the root's
  own self time is the benchmark glue, reported as :data:`OTHER`.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.telemetry import Telemetry

__all__ = ["LAYERS", "OTHER", "TRACED_MARK", "Layer", "Tracer"]

#: self time of a root span: benchmark code between library calls
OTHER = "other"
#: attribute set on every wrapper, so leftovers can be found
TRACED_MARK = "_e2e_traced"


@dataclass(frozen=True)
class Layer:
    """A named layer and the public functions whose calls it covers.

    ``root`` is the root kind whose time the layer's share is taken of:
    ``op`` for the timed operations, ``setup`` for input construction,
    ``check`` for correctness checks kept outside the timed region.
    """

    name: str
    targets: tuple[str, ...]
    root: str = "op"


#: the layer whose calls also count the edges they scored (``ps.m`` of
#: the preference system each call returns)
BUILDER = "overlay.builder.build"

LAYERS: tuple[Layer, ...] = (
    Layer("experiments.instances.generate",
          ("repro.experiments.instances:random_preference_instance",), root="setup"),
    Layer("core.fast.lower", ("repro.core.fast:FastInstance.from_preference_system",)),
    Layer("core.fast.lic", ("repro.core.fast:lic_matching_fast",)),
    Layer("core.fast_lid.lid", ("repro.core.fast_lid:lid_matching_fast",)),
    Layer("core.fast.satisfaction", ("repro.core.fast:satisfaction_profile_fast",)),
    Layer("testing.oracles.verify", ("repro.testing.oracles:verify_matching",), root="check"),
    Layer("core.weights.build", ("repro.core.weights:satisfaction_weights",)),
    Layer("core.lic.lic", ("repro.core.lic:lic_matching",)),
    Layer("core.lid.run", ("repro.core.lid:run_lid",)),
    Layer("core.resilient_lid.run", ("repro.core.resilient_lid:run_resilient_lid",)),
    Layer(BUILDER, ("repro.overlay.builder:build_preference_system",)),
    Layer("overlay.churn.weights", ("repro.overlay.churn:WeightCache.refresh",)),
    Layer("overlay.churn.repair", ("repro.overlay.churn:greedy_repair",)),
    Layer("core.matching.validate", ("repro.core.matching:Matching.validate",)),
    Layer("service.apply.other", ("repro.service.service:MatchingService.apply",)),
    Layer("service.full_rematch", ("repro.service.service:MatchingService.full_rematch",)),
    Layer("service.guards.structure", ("repro.service.guards:ServiceGuard.check_structure",)),
    Layer("service.guards.weights", ("repro.service.guards:ServiceGuard.check_weights",)),
    Layer("service.checkpoint.write", (
        "repro.service.service:MatchingService.snapshot",
        "repro.service.checkpoint:write_checkpoint",
    )),
    Layer("service.differential.check", ("repro.service.differential:conformance_check",),
          root="check"),
)


def _repro_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]


def _resolve(target: str) -> Optional[list[tuple[object, str, object]]]:
    """``(owner, attribute, original)`` bindings to patch, or ``None`` if absent."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return [(owner, attr, vars(klass)[attr])]
        return None
    original = vars(owner).get(attr)
    if not callable(original):
        return None
    return [
        (mod, name, original)
        for mod in _repro_modules()
        for name, value in list(vars(mod).items())
        if value is original
    ]


class Tracer:
    """Wraps every layer's targets while active (use as a context manager)."""

    def __init__(self):
        self.tel = Telemetry()
        self.absent: list[str] = []
        #: root kind -> counter name -> total (``<layer>.calls`` and the
        #: builder's ``overlay.builder.edges_scored``)
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self._kind = "unrooted"
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- install / restore ----------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for layer in LAYERS:
                for target in layer.targets:
                    bindings = _resolve(target)
                    if not bindings:
                        self.absent.append(target)
                        continue
                    for owner, attr, original in bindings:
                        own = attr in vars(owner)
                        setattr(owner, attr, self._wrap(layer, original))
                        self._patches.append((owner, attr, original, own))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self._restore()
        return False

    def _restore(self) -> None:
        originals = {}
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            originals[id(vars(owner).get(attr))] = original
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        # a module first imported while tracing may have bound a wrapper
        # by name (``from x import f``): put the original back there too
        for mod in _repro_modules():
            for name, value in list(vars(mod).items()):
                if getattr(value, TRACED_MARK, False) and id(value) in originals:
                    setattr(mod, name, originals[id(value)])

    def _wrap(self, layer: Layer, original):
        if isinstance(original, (classmethod, staticmethod)):
            return type(original)(self._wrap_function(layer, original.__func__))
        return self._wrap_function(layer, original)

    def _wrap_function(self, layer: Layer, fn):
        tel, name = self.tel, layer.name
        calls = f"{name}.calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = self.counts[self._kind]
            counts[calls] += 1
            with tel.span(name):
                result = fn(*args, **kwargs)
            if name == BUILDER:
                counts["overlay.builder.edges_scored"] += result.m
            return result

        setattr(traced, TRACED_MARK, True)
        return traced

    # -- roots -----------------------------------------------------------

    @contextmanager
    def root(self, kind: str, op_id: int) -> Iterator[None]:
        """Open the root span of one setup, operation or check."""
        outer, self._kind = self._kind, kind
        try:
            with self.tel.span(f"{kind}#{op_id}"):
                yield
        finally:
            self._kind = outer

    # -- analysis --------------------------------------------------------

    def self_times(self) -> tuple[dict[str, dict[str, float]], dict[str, float], dict[str, int]]:
        """Self seconds per root kind and layer, plus root totals and counts.

        Returns ``(self_s, root_s, roots)``: ``self_s[kind][layer]`` sums
        the self time of every span of that layer under roots of that
        kind (the roots' own self time under :data:`OTHER`);
        ``root_s[kind]`` sums the roots' durations and ``roots[kind]``
        counts them.
        """
        self_s: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        root_s: dict[str, float] = defaultdict(float)
        roots: dict[str, int] = defaultdict(int)
        # completion order: a span's children complete before it, so the
        # durations pending at depth d+1 are exactly its direct children
        pending: dict[int, float] = defaultdict(float)
        for rec in self.tel.records():
            own = rec.duration_s - pending.pop(rec.depth + 1, 0.0)
            pending[rec.depth] += rec.duration_s
            head = rec.path.split("/", 1)[0]
            kind = head.split("#", 1)[0] if "#" in head else "unrooted"
            if rec.depth == 0 and "#" in head:
                root_s[kind] += rec.duration_s
                roots[kind] += 1
                self_s[kind][OTHER] += own
            else:
                self_s[kind][rec.name] += own
        return self_s, root_s, roots
