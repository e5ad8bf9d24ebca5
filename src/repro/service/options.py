"""``ExecutionOptions`` — the one options surface for session and service.

Every knob that shapes a compile-and-execute call travels in one frozen
dataclass that both :class:`repro.session.PdwSession` and
:class:`repro.service.PdwService` accept — at construction and on every
verb::

    from repro import ExecutionOptions, PdwSession

    opts = ExecutionOptions(executor="reference",
                            hints={"orders": "replicate"})
    session = PdwSession(options=opts)
    result = session.run("SELECT COUNT(*) AS n FROM lineitem")

No option reads the environment: an options object is exactly what its
caller built.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar, Mapping, Optional, Tuple, Union

from repro.common.errors import ReproError
from repro.common.executors import resolve_executor

#: Admission priority classes, best first.  Lower rank wins the queue.
PRIORITY_CLASSES: Mapping[str, int] = {
    "interactive": 0,
    "normal": 1,
    "batch": 2,
}

HintsInput = Union[Mapping[str, str], Tuple[Tuple[str, str], ...], None]


def normalize_hints(hints: HintsInput) -> Optional[Tuple[Tuple[str, str], ...]]:
    """Hints as a canonical, hashable tuple of (table, strategy) pairs.

    Accepts a mapping or an already-normalized tuple; table names are
    lowercased and pairs sorted so equal hint sets compare (and hash)
    equal — the plan cache keys on this form.
    """
    if not hints:
        return None
    if isinstance(hints, Mapping):
        items = hints.items()
    else:
        items = hints
    return tuple(sorted((str(name).lower(), str(strategy))
                        for name, strategy in items))


@dataclass(frozen=True)
class ExecutionOptions:
    """Everything that shapes one compile-and-execute call.

    * ``executor`` — which execution backend runs step SQL on the
      nodes: ``"numpy"`` (typed ndarray kernels over a whole node
      group and a columnar DMS data plane, the default; ``None`` means
      it) or ``"reference"`` (the tree-walking oracle);
    * ``trace`` — whether a front door builds live default sinks
      (metrics registry, request registry, Query Store; the session
      also a tracer), read once at construction — a sink passed in
      wins, and the no-op forms cost nothing;
    * ``profile`` — collect per-node/per-operator actuals and transfer
      matrices during execution;
    * ``hints`` — §3.1 distributed-execution hints, normalized to a
      sorted tuple of (table, strategy) pairs (mappings accepted);
    * ``use_plan_cache`` — serve this query from the parameterized
      plan cache (``False`` compiles it privately), at either front
      door;
    * ``priority`` / ``tenant`` / ``timeout_seconds`` — admission
      class, accounting identity and queue-wait bound for every call.

    The slow-query threshold is not an option: it belongs to the
    :class:`~repro.obs.requests.RequestRegistry` a front door records
    into (``slow_threshold_seconds``).
    """

    #: Read-only leftover, not a field: pdwbench's workloads.py records
    #: ``options.parallel``.  Steps always run one at a time; this goes
    #: once that reader is updated (ROADMAP item 4).
    parallel: ClassVar[bool] = False

    executor: Optional[str] = None
    trace: bool = True
    profile: bool = False
    hints: Optional[Tuple[Tuple[str, str], ...]] = None
    use_plan_cache: bool = True
    priority: str = "normal"
    tenant: str = "default"
    timeout_seconds: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "executor",
                           resolve_executor(self.executor))
        if self.hints is not None and not isinstance(self.hints, tuple):
            object.__setattr__(self, "hints", normalize_hints(self.hints))
        if self.priority not in PRIORITY_CLASSES:
            raise ReproError(
                f"unknown priority class {self.priority!r} "
                f"(use one of {tuple(PRIORITY_CLASSES)})")
        if self.timeout_seconds is not None and self.timeout_seconds < 0:
            raise ReproError("timeout_seconds must be non-negative")

    # -- derived views ---------------------------------------------------------

    @property
    def hints_dict(self) -> Optional[dict]:
        """Hints in the mapping form the engine consumes."""
        return dict(self.hints) if self.hints else None

    @property
    def priority_rank(self) -> int:
        return PRIORITY_CLASSES[self.priority]

    # -- copies ----------------------------------------------------------------

    def with_hints(self, hints: HintsInput) -> "ExecutionOptions":
        """A copy carrying ``hints`` (normalized); ``None`` clears them."""
        return replace(self, hints=normalize_hints(hints))

    def override(self, **changes) -> "ExecutionOptions":
        """A copy with the given fields replaced (``hints`` normalized)."""
        if "hints" in changes:
            changes["hints"] = normalize_hints(changes["hints"])
        return replace(self, **changes)

