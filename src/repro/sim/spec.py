"""RunSpec: one value object answering "what exactly should run?".

``simulate`` takes its tracker as a spec string, a RunSpec or a
prebuilt instance, plus an optional ``engine``. :class:`RunSpec` is the
single immutable description of a run all of those normalize to:

- ``tracker`` — a registry spec string (``hydra``,
  ``hydra@trh=1000,rcc_kb=28``, ``baseline@engine=queued``, ...);
- ``engine`` — an explicit engine override, or ``None`` to defer to
  the spec string and then the config;
- ``instance`` — a prebuilt tracker object, for callers that
  construct trackers by hand (tests, the security harness). When set,
  ``tracker`` is just its display label and is never parsed.

Conflicts *raise* instead of resolving: naming a tracker two ways
(a spec and ``tracker=``) is an error, and an explicit
``engine=`` argument that contradicts an ``engine=`` parameter inside
the spec string is an error (matching values are fine). Engine
resolution otherwise keeps the established order: explicit argument,
then spec override, then ``config.engine``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.interfaces import ActivationTracker
from repro.memctrl import build_controller as _build_controller
from repro.memctrl import normalize_engine
from repro.memctrl.base import BaseMemoryController
from repro.sim.config import SystemConfig
from repro.trackers.registry import build_tracker, spec_engine, spec_stream_chunk

#: What ``simulate``/``simulate_workload`` run when told nothing else.
DEFAULT_TRACKER = "hydra"


@dataclass(frozen=True)
class RunSpec:
    """Immutable description of one simulation's tracker + engine."""

    tracker: str = DEFAULT_TRACKER
    engine: Optional[str] = None
    instance: Optional[ActivationTracker] = None
    #: Trace-streaming chunk override (requests per chunk; 0 =
    #: materialize). ``None`` defers to the spec string and then
    #: ``SystemConfig.stream_chunk`` — the same resolution order as
    #: ``engine``.
    stream_chunk: Optional[int] = None

    def __post_init__(self) -> None:
        if self.engine is not None:
            normalize_engine(self.engine)
            spec_override = self._spec_engine()
            if spec_override is not None and spec_override != self.engine:
                raise ValueError(
                    f"conflicting engines: engine={self.engine!r} but the"
                    f" spec {self.tracker!r} says engine={spec_override!r};"
                    " drop one (matching values are allowed)"
                )
        if self.stream_chunk is not None:
            if self.stream_chunk < 0:
                raise ValueError("stream_chunk must be >= 0")
            chunk_override = self._spec_stream_chunk()
            if chunk_override is not None and chunk_override != self.stream_chunk:
                raise ValueError(
                    f"conflicting stream chunks: stream_chunk="
                    f"{self.stream_chunk!r} but the spec {self.tracker!r}"
                    f" says stream_chunk={chunk_override!r}; drop one"
                    " (matching values are allowed)"
                )

    @classmethod
    def coerce(
        cls,
        spec: Union[None, str, "RunSpec"] = None,
        tracker: Optional[ActivationTracker] = None,
        engine: Optional[str] = None,
    ) -> "RunSpec":
        """Normalize the public keyword surface into one RunSpec.

        At most one way of naming the tracker is accepted: a
        ready-made ``spec`` (RunSpec or spec string) or a prebuilt
        ``tracker`` instance; with neither, :data:`DEFAULT_TRACKER`
        runs. Redundant or contradictory combinations raise
        ``ValueError`` — nothing is resolved silently.
        """
        if spec is not None:
            if tracker is not None:
                raise ValueError(
                    "pass a RunSpec/spec string alone, not together with"
                    " tracker="
                )
            if isinstance(spec, RunSpec):
                if engine is not None and spec.engine not in (None, engine):
                    raise ValueError(
                        f"conflicting engines: engine={engine!r} vs"
                        f" RunSpec.engine={spec.engine!r}"
                    )
                if engine is not None and spec.engine is None:
                    return cls(
                        tracker=spec.tracker,
                        engine=engine,
                        instance=spec.instance,
                        stream_chunk=spec.stream_chunk,
                    )
                return spec
            return cls(tracker=str(spec), engine=engine)
        if tracker is not None:
            label = getattr(tracker, "name", type(tracker).__name__)
            return cls(tracker=label, engine=engine, instance=tracker)
        return cls(tracker=DEFAULT_TRACKER, engine=engine)

    # ------------------------------------------------------------------

    def _spec_engine(self) -> Optional[str]:
        """The spec string's ``engine=`` override, if parseable.

        With a prebuilt ``instance`` the ``tracker`` field is a label,
        not a registry spec, so it is never parsed.
        """
        if self.instance is not None:
            return None
        return spec_engine(self.tracker)

    def resolved_engine(self, config: SystemConfig) -> str:
        """Engine for this run: explicit > spec override > config."""
        if self.engine is not None:
            return self.engine
        spec_override = self._spec_engine()
        if spec_override is not None:
            return spec_override
        return normalize_engine(config.engine)

    def _spec_stream_chunk(self) -> Optional[int]:
        """The spec string's ``stream_chunk=`` override, if parseable."""
        if self.instance is not None:
            return None
        return spec_stream_chunk(self.tracker)

    def resolved_stream_chunk(self, config: SystemConfig) -> int:
        """Streaming chunk for this run: explicit > spec > config."""
        if self.stream_chunk is not None:
            return self.stream_chunk
        chunk_override = self._spec_stream_chunk()
        if chunk_override is not None:
            return chunk_override
        return config.stream_chunk

    def apply_stream_chunk(self, config: SystemConfig) -> SystemConfig:
        """Config with this spec's streaming chunk resolved onto it.

        Used by ``simulate_workload`` before trace construction so a
        ``stream_chunk=`` spec parameter (or explicit RunSpec field)
        changes how the trace is *built*, not just how it is keyed.
        """
        resolved = self.resolved_stream_chunk(config)
        if resolved == config.stream_chunk:
            return config
        return config.with_stream_chunk(resolved)

    def build_tracker(self, config: SystemConfig) -> ActivationTracker:
        """The tracker instance this spec describes."""
        if self.instance is not None:
            return self.instance
        return build_tracker(self.tracker, config.tracker_context())

    def build_controller(
        self, config: SystemConfig, **engine_kwargs
    ) -> BaseMemoryController:
        """Construct the fully wired controller (tracker inside).

        The one construction path shared by ``simulate`` and any
        caller that wants a controller matching a spec; the built
        tracker rides on ``controller.tracker``.
        """
        return _build_controller(
            self.resolved_engine(config),
            geometry=config.geometry,
            timing=config.timing,
            tracker=self.build_tracker(config),
            blast_radius=config.blast_radius,
            **engine_kwargs,
        )

    def result_tracker_label(self, tracker: ActivationTracker) -> str:
        """Name recorded in ``RunResult.tracker``."""
        return getattr(tracker, "name", self.tracker)
