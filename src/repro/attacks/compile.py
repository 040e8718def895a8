"""Compiling resolved attack programs into activation streams.

A :class:`CompiledAttack` is the executable form both harnesses
consume:

- :meth:`CompiledAttack.rows` — the flat global-row activation
  sequence (bit-identical to what the hand-written generators the
  DSL replaced returned; golden tests pin this);
- :meth:`CompiledAttack.iter_rows` — the same sequence as a streaming
  iterator, never materializing unrolled loops;
- :meth:`CompiledAttack.iter_events` — the full event stream,
  interleaving ``(EVENT_ACT, row)`` with ``(EVENT_SYNC, 0)``
  window-boundary markers from ``sync_refresh`` ops. The security
  harness executes sync events as tracker + oracle window resets,
  which is how refresh-synchronized patterns become expressible.

Op counts (:attr:`CompiledAttack.activations` etc.) are computed
analytically from the loop structure, so inspecting a million-hammer
program costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.attacks.ops import Act, Loop, Nop, Op, Pre, SyncRefresh
from repro.attacks.resolve import ResolvedProgram

__all__ = [
    "EVENT_ACT",
    "EVENT_SYNC",
    "CompiledAttack",
    "compile_program",
    "exercised_within",
]

#: Event-stream discriminators (see :meth:`CompiledAttack.iter_events`).
EVENT_ACT = "act"
EVENT_SYNC = "sync"

Event = Tuple[str, int]


def _count_ops(ops: Tuple[Op, ...]) -> Tuple[int, int, int, int]:
    """(acts, pres, nops, syncs) for one op tuple, loops multiplied."""
    acts = pres = nops = syncs = 0
    for op in ops:
        if isinstance(op, Act):
            acts += 1
        elif isinstance(op, Pre):
            pres += 1
        elif isinstance(op, Nop):
            nops += int(op.count)
        elif isinstance(op, SyncRefresh):
            syncs += 1
        elif isinstance(op, Loop):
            a, p, n, s = _count_ops(op.body)
            count = int(op.count)
            acts += a * count
            pres += p * count
            nops += n * count
            syncs += s * count
    return acts, pres, nops, syncs


@dataclass
class CompiledAttack:
    """One executable attack: resolved program + derived statistics."""

    program: ResolvedProgram
    activations: int
    precharges: int
    nops: int
    syncs: int
    _rows: Optional[List[int]] = None

    @property
    def name(self) -> str:
        return self.program.name

    def iter_events(self) -> Iterator[Event]:
        """Stream ``(EVENT_ACT, row)`` / ``(EVENT_SYNC, 0)`` events.

        Loops are walked, not materialized: a ``loop 1000000`` costs
        iterator state, not memory.
        """

        def walk(ops: Tuple[Op, ...]) -> Iterator[Event]:
            for op in ops:
                if isinstance(op, Act):
                    yield (EVENT_ACT, op.row)  # type: ignore[misc]
                elif isinstance(op, SyncRefresh):
                    yield (EVENT_SYNC, 0)
                elif isinstance(op, Loop):
                    for _ in range(int(op.count)):
                        yield from walk(op.body)
                # Pre / Nop are structural: no activation, no event.

        return walk(self.program.ops)

    def iter_rows(self) -> Iterator[int]:
        """Stream the flat activation sequence (sync markers dropped)."""
        return (
            row for kind, row in self.iter_events() if kind == EVENT_ACT
        )

    def rows(self) -> List[int]:
        """The flat activation sequence, materialized and cached."""
        if self._rows is None:
            self._rows = list(self.iter_rows())
        return self._rows

    def __len__(self) -> int:
        return self.activations


def compile_program(resolved: ResolvedProgram) -> CompiledAttack:
    """Compile one resolved program (see module doc)."""
    acts, pres, nops, syncs = _count_ops(resolved.ops)
    return CompiledAttack(
        program=resolved,
        activations=acts,
        precharges=pres,
        nops=nops,
        syncs=syncs,
    )


def exercised_within(
    attack: Union[CompiledAttack, Iterable[int]],
    threshold: int,
    window_every: Optional[int],
) -> bool:
    """Can this attack drive some row past ``threshold`` in a window?

    Replays the activation stream against an exact counter, resetting
    at every ``sync_refresh`` event and every ``window_every`` demand
    activations — the same window discipline the security harness
    applies — and reports whether any single row's count ever exceeds
    the threshold. A "secure" oracle verdict on an attack that cannot
    exercise the threshold is vacuous; this flag keeps such cells
    honest (and gives the fuzzer its notion of a *real* probe).
    """
    if isinstance(attack, CompiledAttack):
        events: Iterable[Event] = attack.iter_events()
    else:
        events = ((EVENT_ACT, row) for row in attack)
    counts: Dict[int, int] = {}
    since_reset = 0
    for kind, row in events:
        if kind == EVENT_SYNC:
            counts.clear()
            since_reset = 0
            continue
        if window_every and since_reset and since_reset % window_every == 0:
            counts.clear()
            since_reset = 0
        count = counts.get(row, 0) + 1
        if count > threshold:
            return True
        counts[row] = count
        since_reset += 1
    return False
