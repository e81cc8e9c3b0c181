"""CI guard: one payload serialization per message, counted, not timed.

Every Sync HotStuff proposal carries the dict ``{"block": ..., "cert": ...}``
and is verified by every replica.  The message flyweight must serialize
such a payload once when the message is created and share that digest,
wire size and verdict with all n receivers.  This test runs a small
deployment, counts top-level :func:`message_data_digest` calls on dict
payloads with a spy, and fails if any dict-payload message is serialized
more than once — a regression to per-verifier serialization trips it
without any timing.  The per-node verification counts (Table 3) must
still equal those of the same run with the flyweight switched off, where
every replica really checks every signature.
"""

from collections import Counter

import pytest

from repro.core import messages, replica_base
from repro.core.messages import set_flyweight_enabled
from repro.eval.runner import DeploymentSpec
from repro.session.builder import SessionBuilder

SPEC = DeploymentSpec(protocol="sync-hotstuff", n=21, f=10, k=3, target_height=4, seed=5)


def run_counting(monkeypatch, flyweight):
    """Run :data:`SPEC`; return (per-node verify counts, dict messages, dict digests)."""
    counts = Counter()
    digest = messages.message_data_digest
    make_message = replica_base.make_message

    def counting_digest(data):
        if type(data) is dict:
            counts["digests"] += 1
        return digest(data)

    def counting_make_message(scheme, sender, msg_type, view, data, round_number=0):
        if type(data) is dict:
            counts["messages"] += 1
        return make_message(scheme, sender, msg_type, view, data, round_number=round_number)

    monkeypatch.setattr(messages, "message_data_digest", counting_digest)
    monkeypatch.setattr(replica_base, "make_message", counting_make_message)
    set_flyweight_enabled(flyweight)
    try:
        session = SessionBuilder(SPEC).build()
        session.run_to_quiescence()
        result = session.finish()
    finally:
        set_flyweight_enabled(True)
    assert result.min_committed_height == SPEC.target_height
    return dict(session.scheme.verify_counts), counts["messages"], counts["digests"]


@pytest.fixture(scope="module")
def runs():
    with pytest.MonkeyPatch.context() as monkeypatch:
        shared = run_counting(monkeypatch, flyweight=True)
    with pytest.MonkeyPatch.context() as monkeypatch:
        per_verifier = run_counting(monkeypatch, flyweight=False)
    return shared, per_verifier


def test_each_dict_payload_is_serialized_at_most_once(runs):
    (_, messages_created, digests), _ = runs
    assert messages_created >= SPEC.target_height  # one proposal per height at least
    assert digests <= messages_created


def test_verify_counts_equal_the_logical_count(runs):
    (shared_counts, _, _), (logical_counts, _, _) = runs
    assert shared_counts == logical_counts
    assert set(shared_counts) == set(range(SPEC.n))


def test_guard_sees_per_verifier_serialization(runs):
    """Without the flyweight every receiver re-serializes the payload, so
    the guard above is not vacuous."""
    (_, messages_created, _), (_, legacy_messages, legacy_digests) = runs
    assert legacy_messages == messages_created
    assert legacy_digests > 2 * legacy_messages
