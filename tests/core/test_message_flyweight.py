"""The per-message memo contract of :class:`ProtocolMessage`.

A message memoizes its payload digest, its wire size and its verification
verdict (per scheme) so the n receivers of a flooded message share one
serialization and one signature check.  Each memo is stored under a
validity token and re-checked on every read:

* deeply immutable payloads are memoized unconditionally;
* exact ``dict`` payloads with ``str`` keys and deeply immutable values are
  memoized while the dict has the same length and every key is bound to
  the very same object (``is``) as when the memo was taken;
* anything else (lists, dicts holding lists, dict subclasses, non-``str``
  keys) is never memoized.

These tests pin that contract: a dict payload mutated after signing is
re-serialized and fails verification, and a memoized value always equals
a fresh computation.
"""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import messages
from repro.core.blocks import GENESIS, make_block
from repro.core.messages import (
    MESSAGE_HEADER_BYTES,
    MessageType,
    make_message,
    message_data_digest,
    payload_wire_size,
    set_flyweight_enabled,
    verify_message,
)
from repro.core.types import Command
from repro.crypto.keys import KeyStore
from repro.crypto.signatures import make_scheme

MEMO_SLOTS = ("_memo_data_digest", "_memo_wire_size", "_verified_by", "_payload_token")

BLOCK = make_block(GENESIS, 0, 1, 1, [Command(command_id="c0-0", client_id=0)])
OTHER_BLOCK = make_block(GENESIS, 1, 1, 1)


@dataclass(frozen=True)
class Frozen:
    name: str
    value: int


def fresh_scheme():
    store = KeyStore(seed=3)
    store.generate(range(4))
    scheme = make_scheme("hmac-sha256", keystore=store)
    # Without the scheme's own (signer, tag, payload) memo, every verdict
    # the message memo fails to share shows up as a keystore call.
    scheme.cache_operations = False
    return scheme


def proposal(scheme, data):
    return make_message(scheme, 0, MessageType.SHS_PROPOSE, 1, data, round_number=1)


def expected_wire_size(message):
    size = MESSAGE_HEADER_BYTES + payload_wire_size(message.data)
    return size + message.view_sig.size_bytes + message.data_sig.size_bytes


@pytest.fixture
def spies(monkeypatch):
    """Count top-level payload digests and keystore tag checks."""
    counts = {"digest": 0, "tags": 0}
    digest = messages.message_data_digest

    def counting_digest(data):
        counts["digest"] += 1
        return digest(data)

    monkeypatch.setattr(messages, "message_data_digest", counting_digest)
    original_verify_tag = KeyStore.verify_tag

    def counting_verify_tag(store, node_id, payload, tag):
        counts["tags"] += 1
        return original_verify_tag(store, node_id, payload, tag)

    monkeypatch.setattr(KeyStore, "verify_tag", counting_verify_tag)
    return counts


@pytest.fixture
def flyweight_off():
    set_flyweight_enabled(False)
    yield
    set_flyweight_enabled(True)


# --------------------------------------------------------- shared verdicts
def test_dict_payload_is_serialized_once_at_creation(spies):
    scheme = fresh_scheme()
    message = proposal(scheme, {"block": BLOCK, "cert": None})
    assert spies["digest"] == 1
    for _ in range(3):
        message.data_digest  # noqa: B018
        message.wire_size_bytes  # noqa: B018
    assert spies["digest"] == 1


def test_dict_payload_verdict_is_shared_across_verifiers(spies):
    scheme = fresh_scheme()
    message = proposal(scheme, {"block": BLOCK, "cert": None})
    assert verify_message(scheme, 1, message)
    tags, digests = spies["tags"], spies["digest"]
    before = scheme.verify_counts[2]
    assert verify_message(scheme, 2, message)
    assert spies["tags"] == tags
    assert spies["digest"] == digests
    assert scheme.verify_counts[2] == before + 2


# ------------------------------------------------------- mutation after sign
def rebind(data):
    data["height"] = 10


def add_key(data):
    data["extra"] = 1


def delete_key(data):
    del data["height"]


def swap_none_keys(data):
    # Same length, and the new key is bound to the same object (None) as
    # the deleted one: only a key-presence-aware check notices.
    del data["cert"]
    data["other"] = None


def rebind_block(data):
    data["block"] = OTHER_BLOCK


@pytest.mark.parametrize("mutate", [rebind, add_key, delete_key, swap_none_keys, rebind_block])
def test_dict_mutated_after_verification_recomputes_and_fails(mutate, spies):
    scheme = fresh_scheme()
    data = {"block": BLOCK, "cert": None, "height": 9}
    message = proposal(scheme, data)
    assert verify_message(scheme, 1, message)
    digest_before = message.data_digest
    digests = spies["digest"]
    mutate(data)
    assert message.data_digest != digest_before
    assert spies["digest"] == digests + 1
    assert message.data_digest == message_data_digest(data)
    assert message.wire_size_bytes == expected_wire_size(message)
    assert not verify_message(scheme, 2, message)
    assert not verify_message(scheme, 3, message)


def test_rebinding_to_an_equal_value_recomputes_but_still_verifies(spies):
    scheme = fresh_scheme()
    data = {"block": BLOCK, "h": 2.5}
    message = proposal(scheme, data)
    assert verify_message(scheme, 1, message)
    digests = spies["digest"]
    data["h"] = float("2.5")  # an equal value, but another object
    assert verify_message(scheme, 2, message)
    assert spies["digest"] == digests + 1


def stale_after_rebind():
    """Whether a rebound key leaves a stale memo or a passing verdict."""
    scheme = fresh_scheme()
    data = {"height": 9, "cert": None}
    message = proposal(scheme, data)
    assert verify_message(scheme, 1, message)
    data["height"] = 10
    return message.data_digest != message_data_digest(data) or verify_message(
        scheme, 2, message
    )


def test_rebound_key_never_leaves_a_stale_memo():
    assert not stale_after_rebind()


def test_token_without_identity_check_would_be_caught(monkeypatch):
    """A token check reduced to "same length" must fail the test above."""

    def length_only(token, data):
        return token is messages._IMMUTABLE_TOKEN or len(data) == len(token)

    monkeypatch.setattr(messages, "_token_holds", length_only)
    assert stale_after_rebind()


# ------------------------------------------------------------ never memoized
class PayloadDict(dict):
    pass


@pytest.mark.parametrize(
    "data",
    [
        [BLOCK, 1],
        {"blocks": [BLOCK], "height": 1},
        {"outer": {"inner": 1}},
        PayloadDict(block=BLOCK),
        {1: "int key"},
    ],
    ids=["list", "dict-holding-list", "nested-dict", "dict-subclass", "int-key"],
)
def test_mutable_payloads_are_never_memoized(data):
    scheme = fresh_scheme()
    message = proposal(scheme, data)
    assert verify_message(scheme, 1, message)
    assert verify_message(scheme, 2, message)
    message.wire_size_bytes  # noqa: B018
    assert not set(MEMO_SLOTS) & set(message.__dict__)


def test_mutating_a_list_inside_a_dict_fails_verification():
    scheme = fresh_scheme()
    data = {"blocks": [BLOCK], "height": 1}
    message = proposal(scheme, data)
    assert verify_message(scheme, 1, message)
    data["blocks"].append(OTHER_BLOCK)
    assert message.data_digest == message_data_digest(data)
    assert message.wire_size_bytes == expected_wire_size(message)
    assert not verify_message(scheme, 2, message)


# ------------------------------------------------------- flyweight switch off
def test_flyweight_off_recomputes_on_every_access(flyweight_off, spies):
    scheme = fresh_scheme()
    message = proposal(scheme, {"block": BLOCK, "cert": None})
    assert spies["digest"] == 1
    message.data_digest  # noqa: B018
    message.data_digest  # noqa: B018
    assert spies["digest"] == 3
    assert verify_message(scheme, 1, message)
    assert verify_message(scheme, 2, message)
    assert spies["digest"] == 5
    assert spies["tags"] == 4
    assert not set(MEMO_SLOTS) & set(message.__dict__)


# ----------------------------------------------------- memo == fresh values
KEYS = st.sampled_from(["block", "cert", "height", "extra"])

immutable_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.floats(allow_nan=False)
    | st.text(max_size=6)
    | st.binary(max_size=6)
    | st.sampled_from([BLOCK, OTHER_BLOCK, Frozen("x", 1)]),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)
values = immutable_values | st.lists(st.integers(), max_size=3)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("set"), KEYS, values),
        st.tuples(st.just("delete"), KEYS, st.none()),
        st.tuples(st.just("append"), KEYS, st.integers()),
    ),
    max_size=6,
)


@given(initial=st.dictionaries(KEYS, immutable_values, max_size=4), ops=operations)
@settings(max_examples=80, deadline=None)
def test_memoized_values_equal_fresh_computation(initial, ops):
    scheme = fresh_scheme()
    data = dict(initial)
    message = proposal(scheme, data)
    signed_digest = message_data_digest(data)
    for verifier, (op, key, value) in enumerate([(None, None, None), *ops]):
        if op == "set":
            data[key] = value
        elif op == "delete":
            data.pop(key, None)
        elif op == "append" and isinstance(data.get(key), list):
            data[key].append(value)
        fresh = message_data_digest(data)
        assert message.data_digest == fresh
        assert message.wire_size_bytes == expected_wire_size(message)
        assert verify_message(scheme, 1 + verifier % 3, message) == (fresh == signed_digest)
