"""The restart policy on its own: the schedule, the cap, the budget and
the reset are asserted here once, not once per supervisor."""

import random

from repro.observatory.restart import STATES, RestartPolicy


def policy(**overrides):
    config = dict(backoff=1.0, backoff_cap=2.5, jitter=0.0, max_restarts=3,
                  rng=random.Random(0))
    config.update(overrides)
    return RestartPolicy(**config)


def test_schedule_doubles_up_to_the_cap_then_the_budget_runs_out():
    p = policy()
    assert [p.failed() for _ in range(3)] == [1.0, 2.0, 2.5]
    assert not p.gave_up
    assert p.failed() is None  # the fourth consecutive failure
    assert p.gave_up
    assert p.state(degraded=False) == "stalled"


def test_jitter_is_seeded():
    draws = random.Random(7)
    p = policy(jitter=0.5, rng=random.Random(7))
    assert [p.failed() for _ in range(3)] == [
        base + 0.5 * draws.random() for base in (1.0, 2.0, 2.5)]


def test_policies_sharing_one_rng_share_one_jitter_stream():
    rng, draws = random.Random(3), random.Random(3)
    a, b = policy(jitter=1.0, rng=rng), policy(jitter=1.0, rng=rng)
    assert a.failed() == 1.0 + draws.random()
    assert b.failed() == 1.0 + draws.random()


def test_forward_progress_ends_the_streak():
    p = policy()
    p.failed()
    p.failed()
    p.progressed()
    assert p.consecutive_failures == 0
    assert p.failed() == 1.0  # back to the base delay, full budget


def test_restart_is_due_once_when_its_time_comes():
    p = policy()
    assert not p.due(100.0)  # nothing scheduled
    assert p.failed(now=10.0) == 1.0
    assert p.restart_at == 11.0
    assert not p.due(10.9)
    assert p.due(11.0)
    assert not p.due(12.0)  # consumed


def test_reset_forgives_a_given_up_policy():
    p = policy(max_restarts=0)
    assert p.failed() is None and p.gave_up
    p.reset()
    assert not p.gave_up and p.consecutive_failures == 0
    assert p.state(degraded=False) == "healthy"


def test_state_vocabulary_worst_last():
    p = policy()
    assert STATES == ("healthy", "degraded", "stalled")
    assert p.state(degraded=False) == "healthy"
    assert p.state(degraded=True) == "degraded"
    assert p.state(degraded=True, stalled=True) == "stalled"
    assert max(["degraded", "healthy", "stalled"], key=STATES.index) \
        == "stalled"
