"""Simtest-oracle sins: an unregistered oracle, a wall-clock oracle."""

import random
import time


class Oracle:
    """Stand-in for the simtest base (matched by name, like the real one)."""

    name = ""

    def check(self, world):
        raise NotImplementedError


class ForgottenOracle(Oracle):  # expected: REP601 (never registered)
    name = "forgotten"

    def check(self, world):
        return []


class WallClockOracle(Oracle):  # expected: REP601 (also unregistered)
    name = "wall-clock"

    def check(self, world):
        deadline = time.time() + 5  # expected: REP101 (wall clock)
        jitter = random.random()  # expected: REP103 (unseeded randomness)
        return [] if world.clock.now() < deadline + jitter else ["late"]
