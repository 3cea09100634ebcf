"""SLO/sampling sins: an unseeded retention coin, a half-declared SLO."""

import random


class SamplingPolicy:
    """Stand-in for the tail-sampling base (matched by name)."""

    name = ""

    def decide(self, trace):
        raise NotImplementedError


class CoinFlipPolicy(SamplingPolicy):
    name = "coin-flip"

    def decide(self, trace):
        # expected: REP103 (an unseeded draw in a retention decision: the
        # kept-trace set would differ between same-seed runs)
        return self.name if random.random() < 0.5 else None


class SLO:
    """Stand-in for the objective dataclass (matched by name)."""

    def __init__(self, name, **kwargs):
        self.name = name


VAGUE_OBJECTIVE = SLO(  # expected: REP702 (no window=, no budget=)
    "submit-availability", service="Job", method="submit",
)
