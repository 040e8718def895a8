"""Flat activation sequences of explicit-argument attack programs."""

from typing import List, Optional

from repro.attacks import Program, compile_program, resolve
from repro.dram.timing import DramGeometry


def rows(
    program: Program,
    geometry: Optional[DramGeometry] = None,
    bounds: str = "raise",
) -> List[int]:
    """Resolve (bounds-checked when ``geometry`` is given), compile and
    unroll ``program`` into its global-row activation sequence."""
    resolved = resolve(program, geometry=geometry, bounds=bounds)
    return compile_program(resolved).rows()
