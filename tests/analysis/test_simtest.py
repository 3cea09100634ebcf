"""SimtestOracleChecker: REP601."""

from repro.analysis.checkers.simtest import SimtestOracleChecker

from tests.analysis.conftest import codes

CHECKER = [SimtestOracleChecker()]

ORACLE_BASE = """\
    class Oracle:
        name = ""

        def check(self, world):
            raise NotImplementedError
"""


def test_unregistered_concrete_oracle(analyze):
    result = analyze({
        "mod.py": ORACLE_BASE + """\

    class QuietOracle(Oracle):
        def check(self, world):
            return []
        """
    }, checkers=CHECKER)
    assert codes(result) == ["REP601"]


def test_registered_oracle_is_clean(analyze):
    result = analyze({
        "mod.py": ORACLE_BASE + """\

    def register_oracle(cls):
        return cls


    @register_oracle
    class QuietOracle(Oracle):
        def check(self, world):
            return []
        """
    }, checkers=CHECKER)
    assert codes(result) == []


def test_attribute_form_decorator_counts(analyze):
    result = analyze({
        "mod.py": ORACLE_BASE + """\

    import registry


    @registry.register_oracle
    class QuietOracle(Oracle):
        def check(self, world):
            return []
        """
    }, checkers=CHECKER)
    assert codes(result) == []


def test_abstract_stem_with_registered_leaves_is_not_flagged(analyze):
    result = analyze({
        "mod.py": ORACLE_BASE + """\

    def register_oracle(cls):
        return cls


    class StoreOracle(Oracle):
        def store(self, world):
            return world.store


    @register_oracle
    class SeqOracle(StoreOracle):
        def check(self, world):
            return [self.store(world).seq]
        """
    }, checkers=CHECKER)
    assert codes(result) == []
