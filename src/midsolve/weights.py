"""The degree weights the analysis optimizer returns.

Kept apart from ``analysis`` so that a kept optimizer result refers to
this small module only, not to the analysis layer and its catalog, and
apart from ``solution`` so that a kept solver result does not refer to it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WeightVector:
    """Degree weights (w1, w2); w0 = 0 and w_i = 1 for i >= 3 are fixed."""

    w1: float
    w2: float

    def is_admissible(self) -> bool:
        # 0 <= w1 <= w2 <= 1 and decreasing increments:
        # w1 - w0 >= w2 - w1 >= 1 - w2
        return (0.0 <= self.w1 <= self.w2 <= 1.0
                and self.w1 >= self.w2 - self.w1 >= 1.0 - self.w2)

    def for_degree(self, d: int) -> float:
        if d <= 0:
            return 0.0
        if d == 1:
            return self.w1
        if d == 2:
            return self.w2
        return 1.0
