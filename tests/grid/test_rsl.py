import pytest
from hypothesis import given, strategies as st

from repro.faults import InvalidRequestError
from repro.grid.gram import parse_rsl, rsl_for
from repro.grid.jobs import JobSpec


def test_roundtrip_full_spec():
    spec = JobSpec(
        name="run1",
        executable="/apps/mm5",
        arguments=["24", "fine"],
        queue="workq",
        cpus=8,
        wallclock_limit=7200.0,
        directory="/scratch",
        account="TG-ATM",
        environment={"A": "1", "B": "2"},
    )
    parsed = parse_rsl(rsl_for(spec))
    assert parsed.name == spec.name
    assert parsed.executable == spec.executable
    assert parsed.arguments == spec.arguments
    assert parsed.queue == spec.queue
    assert parsed.cpus == spec.cpus
    assert parsed.wallclock_limit == spec.wallclock_limit
    assert parsed.directory == spec.directory
    assert parsed.account == spec.account
    assert parsed.environment == spec.environment


def test_minimal_rsl():
    spec = parse_rsl("&(executable=/bin/date)")
    assert spec.executable == "/bin/date"
    assert spec.cpus == 1


@pytest.mark.parametrize(
    "bad",
    [
        "(executable=/bin/x)",       # missing &
        "&(executable=/bin/x",       # unbalanced
        "&(noequals)",
        "&(mystery=1)(executable=/bin/x)",
        "&(arguments=a b)",          # no executable
        "&(executable=x)(count=abc)",         # non-numeric count
        "&(executable=x)(maxWallTime=soon)",  # non-numeric wall time
    ],
)
def test_malformed_rsl_rejected(bad):
    with pytest.raises(InvalidRequestError):
        parse_rsl(bad)


def test_environment_clause_parsing():
    spec = parse_rsl("&(executable=x)(environment=(PATH /bin)(HOME /root))")
    assert spec.environment == {"PATH": "/bin", "HOME": "/root"}


def test_environment_clause_nested_parens_balance_at_clause_level():
    # the (environment=...) clause itself contains parens; the clause
    # splitter must track depth rather than cut at the first ')'
    spec = parse_rsl(
        "&(executable=x)(environment=(A 1)(B 2)(C 3))(queue=workq)"
    )
    assert spec.environment == {"A": "1", "B": "2", "C": "3"}
    assert spec.queue == "workq"


def test_whitespace_between_clauses_is_tolerated():
    spec = parse_rsl("&  (executable=/bin/x)   (count=4)\n(queue=q)")
    assert spec.executable == "/bin/x"
    assert spec.cpus == 4
    assert spec.queue == "q"


def test_unknown_attribute_names_the_offender():
    with pytest.raises(InvalidRequestError) as exc_info:
        parse_rsl("&(executable=/bin/x)(hostCount=2)")
    assert "hostCount" in exc_info.value.message


@pytest.mark.parametrize(
    "bad",
    [
        "&(executable=x)(environment=PATH /bin)",   # pairs must be parenthesised
        "&(executable=x)(environment=(PATH /bin)",  # unbalanced env clause
        "&(executable=x))(count=2)",                # stray closing paren
    ],
)
def test_malformed_environment_and_parens_rejected(bad):
    with pytest.raises(InvalidRequestError):
        parse_rsl(bad)


_TOKEN = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
             "0123456789_./-",
    min_size=1,
    max_size=12,
)


@given(
    executable=_TOKEN,
    arguments=st.lists(_TOKEN, max_size=4),
    name=_TOKEN,
    queue=_TOKEN | st.just(""),
    cpus=st.integers(min_value=1, max_value=4096),
    walltime=st.integers(min_value=1, max_value=10**6),
    directory=_TOKEN | st.just(""),
    account=_TOKEN | st.just(""),
    environment=st.dictionaries(_TOKEN, _TOKEN, max_size=4),
)
def test_rsl_roundtrip_property(executable, arguments, name, queue, cpus,
                                walltime, directory, account, environment):
    """parse_rsl(rsl_for(spec)) == spec for paren/whitespace-free tokens."""
    spec = JobSpec(
        name=name,
        executable=executable,
        arguments=arguments,
        queue=queue,
        cpus=cpus,
        wallclock_limit=float(walltime),
        directory=directory,
        account=account,
        environment=environment,
    )
    parsed = parse_rsl(rsl_for(spec))
    assert parsed.executable == spec.executable
    assert parsed.arguments == spec.arguments
    assert parsed.name == spec.name
    assert parsed.queue == spec.queue
    assert parsed.cpus == spec.cpus
    assert parsed.wallclock_limit == spec.wallclock_limit
    assert parsed.directory == spec.directory
    assert parsed.account == spec.account
    assert parsed.environment == spec.environment
