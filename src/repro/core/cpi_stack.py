"""CPI stacks (Fig. 5): cycle attribution per first-order mechanism.

A :class:`CPIStack` holds *cycles* per component; dividing by the
instruction count yields the classic CPI stack.  Both RPPM and the
reference simulator produce these with identical component names so
they can be compared bar-for-bar as in the paper's Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Dict, Iterable

#: Component order used in reports (matches the paper's stacking).
COMPONENTS = ("base", "branch", "icache", "mem", "sync")


@dataclass
class CPIStack:
    """Cycle counts per CPI component for one thread (or aggregate)."""

    base: float = 0.0
    branch: float = 0.0
    icache: float = 0.0
    mem: float = 0.0
    sync: float = 0.0
    instructions: int = 0

    def __post_init__(self) -> None:
        for name in COMPONENTS:
            if getattr(self, name) < -1e-9:
                raise ValueError(f"negative {name} component")

    @property
    def total_cycles(self) -> float:
        # Left to right, not ``sum()``: see Timeline.active_time.
        return reduce(add, (getattr(self, name) for name in COMPONENTS), 0)

    @property
    def active_cycles(self) -> float:
        """Cycles excluding synchronization idle time."""
        return self.total_cycles - self.sync

    def cpi(self) -> Dict[str, float]:
        """Per-component CPI (cycles per instruction)."""
        n = max(1, self.instructions)
        return {name: getattr(self, name) / n for name in COMPONENTS}

    def total_cpi(self) -> float:
        return self.total_cycles / max(1, self.instructions)

    def add(self, other: "CPIStack") -> None:
        """Accumulate ``other`` into this stack (in place)."""
        for name in COMPONENTS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.instructions += other.instructions

    @classmethod
    def merged(cls, stacks: Iterable["CPIStack"]) -> "CPIStack":
        out = cls()
        for stack in stacks:
            out.add(stack)
        return out

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in COMPONENTS}
        out["instructions"] = self.instructions
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CPIStack":
        return cls(**data)
