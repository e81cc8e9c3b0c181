"""Protocol messages and quorum certificates (Algorithm 1 of the paper).

Every protocol message carries its type, the view it belongs to, a payload,
and two signatures by the sender: ``view_sig`` over (type, view) and
``data_sig`` over (data, view), mirroring the ``Msg`` helper of
Algorithm 1.  ``n/2 + 1`` (= f + 1) matching signed messages of the same
type and view combine into a :class:`QuorumCertificate` via :func:`make_qc`.

Wire sizes are tracked explicitly because the energy model charges radio
energy per byte: a message's size is its header, its payload and its
signatures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Optional, Tuple

from repro.core.blocks import Block
from repro.core.types import NodeId, Round, View
from repro.crypto.hashing import is_deeply_immutable, sha256_hex
from repro.crypto.signatures import Signature, SignatureScheme

#: Fixed per-message header bytes (type, view, round, sender).
MESSAGE_HEADER_BYTES = 16

#: Flyweight switch: when ``False`` the per-instance digest / wire-size
#: memos below recompute on every access (the ``repro.perf`` legacy mode
#: uses this to measure the seed's per-hop serialization cost).
_FLYWEIGHT_ENABLED = True


def set_flyweight_enabled(enabled: bool) -> None:
    """Toggle per-message memoization (perf harness / tests only)."""
    global _FLYWEIGHT_ENABLED
    _FLYWEIGHT_ENABLED = enabled


def flyweight_enabled() -> bool:
    """Whether per-message memoization is currently on."""
    return _FLYWEIGHT_ENABLED


#: Validity token of a deeply immutable payload: the memos never expire.
#: (``True`` rather than a fresh ``object()`` so it survives pickling.)
_IMMUTABLE_TOKEN = True

_ABSENT = object()


def _payload_token(data: Any) -> Any:
    """The token under which memos of ``data`` may be stored, or ``None``.

    * a deeply immutable payload gets :data:`_IMMUTABLE_TOKEN`;
    * an exact ``dict`` with ``str`` keys whose every value is deeply
      immutable gets ``tuple(data.items())`` — a snapshot of which object
      each key is bound to, holding strong references so no ``id`` can be
      reused behind it;
    * anything else (lists, dicts holding lists, dict subclasses) gets
      ``None``: it is never memoized.
    """
    if is_deeply_immutable(data):
        return _IMMUTABLE_TOKEN
    if type(data) is dict and all(
        type(key) is str and is_deeply_immutable(value) for key, value in data.items()
    ):
        return tuple(data.items())
    return None


def _token_holds(token: Any, data: Any) -> bool:
    """Whether a memo stored under ``token`` still describes ``data``.

    A dict token holds while the dict has the same length and every key
    is still bound to the very same (immutable) object, so any rebinding,
    insertion or deletion since the memo was taken invalidates it.
    """
    if token is _IMMUTABLE_TOKEN:
        return True
    if len(data) != len(token):
        return False
    get = data.get
    for key, value in token:
        if get(key, _ABSENT) is not value:
            return False
    return True


class _frozen_memo:
    """A ``cached_property`` for frozen messages that honours the flyweight switch.

    Safe only on immutable (frozen dataclass) owners: the memoized value is
    a pure function of construction-time fields.
    """

    def __init__(self, func):
        self._func = func
        self._slot = f"_memo_{func.__name__}"
        self.__doc__ = func.__doc__

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        if not _FLYWEIGHT_ENABLED:
            return self._func(obj)
        d = obj.__dict__
        if self._slot not in d:
            d[self._slot] = self._func(obj)  # frozen dataclasses allow direct __dict__ writes
        return d[self._slot]


class MessageType(str, Enum):
    """All message types used by EESMR and the baseline protocols."""

    # EESMR steady state.
    PROPOSE = "propose"
    # EESMR view change.
    BLAME = "blame"
    BLAME_QC = "blame_qc"
    COMMIT_UPDATE = "commit_update"
    CERTIFY = "certify"
    COMMIT_QC = "commit_qc"
    NEW_VIEW_PROPOSAL = "new_view_proposal"
    VOTE = "vote"
    # Sync HotStuff / OptSync specific.
    SHS_PROPOSE = "shs_propose"
    SHS_VOTE = "shs_vote"
    SHS_STATUS = "shs_status"
    SHS_NEW_VIEW = "shs_new_view"
    # Trusted baseline.
    TB_REQUEST = "tb_request"
    TB_ORDER = "tb_order"
    # Catch-up state transfer (all protocol families, repro.recovery).
    SYNC_REQUEST = "sync_request"
    SYNC_RESPONSE = "sync_response"


def payload_wire_size(payload: Any) -> int:
    """Estimate the wire size of a message payload in bytes."""
    if payload is None:
        return 0
    if isinstance(payload, Block):
        return payload.wire_size_bytes
    if isinstance(payload, QuorumCertificate):
        return payload.wire_size_bytes
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, (list, tuple)):
        return sum(payload_wire_size(item) for item in payload)
    if isinstance(payload, dict):
        return sum(payload_wire_size(v) + 8 for v in payload.values())
    size = getattr(payload, "wire_size_bytes", None)
    if size is not None:
        return int(size)
    return 32


@dataclass(frozen=True)
class ProtocolMessage:
    """A signed protocol message.

    Attributes:
        msg_type: The message type (Algorithm 1's ``m.type``).
        view: The view the message belongs to (``m.view``).
        round: The round the message refers to (0 when not applicable).
        sender: Node id of the signer.
        data: Arbitrary payload (block, block hash, QC, proof, ...).
        view_sig: Signature over (type, view) — ``m.viewSig``.
        data_sig: Signature over (data digest, view) — ``m.dataSig``.

    Three per-message memos — :attr:`data_digest`, :attr:`wire_size_bytes`
    and the :func:`verify_message` verdict — let the n receivers of a
    flooded message share one serialization and one signature check.  Each
    memo is stored beside a validity token (:func:`_payload_token`) and
    re-checked against ``data`` on every read (:func:`_token_holds`):

    * a deeply immutable payload (primitives, tuples, frozen dataclasses
      of immutables) is memoized unconditionally;
    * an exact ``dict`` with ``str`` keys and deeply immutable values
      (Sync HotStuff proposals and status, the EESMR round-2 new-view
      proposal, sync request/response) is memoized while it has the same
      length and each key is bound to the very same object as when the
      memo was taken;
    * any other payload (lists, dicts holding lists, dict subclasses) is
      never memoized.

    So a payload mutated or rebound after signing is re-serialized and
    fails verification.  With the flyweight switch off
    (:func:`set_flyweight_enabled`) nothing is read from or written to
    the memos.
    """

    msg_type: MessageType
    view: View
    round: Round
    sender: NodeId
    data: Any
    view_sig: Optional[Signature] = None
    data_sig: Optional[Signature] = None

    def _memo_token(self) -> Any:
        """The validity token to store beside a fresh memo, or ``None``.

        Reuses the message's last token while it still holds, so a dict
        payload is walked by :func:`is_deeply_immutable` once per message
        rather than once per memo.
        """
        token = self.__dict__.get("_payload_token")
        if token is not None and _token_holds(token, self.data):
            return token
        token = _payload_token(self.data)
        if token is not None:
            self.__dict__["_payload_token"] = token
        return token

    def _memoized(self, slot: str, compute: Callable[[], Any]) -> Any:
        """``compute()``, memoized in ``slot`` under the payload's token."""
        if not _FLYWEIGHT_ENABLED:
            return compute()
        memo = self.__dict__.get(slot)
        if memo is not None and _token_holds(memo[0], self.data):
            return memo[1]
        token = self._memo_token()
        value = compute()
        if token is not None:
            self.__dict__[slot] = (token, value)
        return value

    @property
    def data_digest(self) -> str:
        """Digest of the payload used for signing and vote matching."""
        return self._memoized("_memo_data_digest", lambda: message_data_digest(self.data))

    @property
    def wire_size_bytes(self) -> int:
        """Bytes on the wire: header + payload + signatures."""
        return self._memoized("_memo_wire_size", self._wire_size)

    def _wire_size(self) -> int:
        size = MESSAGE_HEADER_BYTES + payload_wire_size(self.data)
        for signature in (self.view_sig, self.data_sig):
            if signature is not None:
                size += signature.size_bytes
        return size

    def precompute(self) -> "ProtocolMessage":
        """Warm every per-message flyweight before the message hits the wire.

        Touches the digest and wire-size memos so the O(n·d) hops of a flood
        and the n verifications all reuse one computation.  Raw application
        payloads without a ``wire_size_bytes`` attribute are instead sized
        through :data:`~repro.crypto.hashing.canonical_cache` by the network
        layer, which memoizes them on first touch.

        A no-op when the flyweight is disabled: warming nothing is work
        the seed never did, and the legacy-mode benchmark baseline must
        not pay for it.
        """
        if _FLYWEIGHT_ENABLED:
            self.data_digest  # noqa: B018  # property read warms the memo
            self.wire_size_bytes  # noqa: B018  # property read warms the memo
        return self

    def matches(self, msg_type: MessageType, view: View) -> bool:
        """The ``MatchingMsg`` helper of Algorithm 1."""
        return self.msg_type == msg_type and self.view == view


def message_data_digest(data: Any) -> str:
    """Canonical digest of a message payload."""
    if isinstance(data, Block):
        return data.block_hash
    if isinstance(data, QuorumCertificate):
        return data.digest
    if isinstance(data, ProtocolMessage):
        return sha256_hex((data.msg_type.value, data.view, data.round, data.data_digest))
    if isinstance(data, (list, tuple)):
        return sha256_hex([message_data_digest(item) for item in data])
    return sha256_hex(data)


def make_message(
    scheme: SignatureScheme,
    sender: NodeId,
    msg_type: MessageType,
    view: View,
    data: Any,
    round_number: Round = 0,
) -> ProtocolMessage:
    """Create and sign a protocol message (Algorithm 1's ``Msg`` function).

    The payload digest signed into ``data_sig`` also seeds the message's
    digest memo, so the payload is serialized once per message.
    """
    view_sig = scheme.sign(sender, ("view", msg_type.value, view))
    token = _payload_token(data) if _FLYWEIGHT_ENABLED else None
    digest = message_data_digest(data)
    data_sig = scheme.sign(sender, ("data", digest, view))
    message = ProtocolMessage(
        msg_type=msg_type,
        view=view,
        round=round_number,
        sender=sender,
        data=data,
        view_sig=view_sig,
        data_sig=data_sig,
    )
    if token is not None:
        message.__dict__["_payload_token"] = token
        message.__dict__["_memo_data_digest"] = (token, digest)
    return message.precompute()


def verify_message(scheme: SignatureScheme, verifier: NodeId, message: ProtocolMessage) -> bool:
    """Verify both signatures of a protocol message.

    The outcome is verifier-independent, so it is memoized per (message,
    scheme) under the payload's validity token (see
    :class:`ProtocolMessage`): after the first replica checks a flooded
    message, the other n-1 replicas reuse the verdict.  Their per-verifier
    operation counts (Table 3) are still recorded via
    :meth:`SignatureScheme.note_verify`, and verification *energy* is
    charged by the replica layer either way — only the redundant HMAC work
    is skipped.
    """
    if message.view_sig is None or message.data_sig is None:
        return False
    if message.view_sig.signer != message.sender or message.data_sig.signer != message.sender:
        return False
    token = None
    if _FLYWEIGHT_ENABLED:
        memo = message.__dict__.get("_verified_by")
        if memo is not None and memo[0] is scheme and _token_holds(memo[1], message.data):
            scheme.note_verify(verifier, 2)
            return memo[2]
        token = message._memo_token()
    view_ok = scheme.verify(
        verifier, ("view", message.msg_type.value, message.view), message.view_sig
    )
    data_ok = scheme.verify(
        verifier, ("data", message.data_digest, message.view), message.data_sig
    )
    result = view_ok and data_ok
    if token is not None:
        message.__dict__["_verified_by"] = (scheme, token, result)
    return result


@dataclass(frozen=True)
class QuorumCertificate:
    """A certificate of f+1 matching signed messages (Algorithm 1's ``QC``)."""

    cert_type: MessageType
    view: View
    digest: str
    signers: Tuple[NodeId, ...]
    signatures: Tuple[Signature, ...] = field(default_factory=tuple)
    block: Optional[Block] = None

    @_frozen_memo
    def wire_size_bytes(self) -> int:
        """Bytes of the certificate: digest + all contained signatures."""
        signature_bytes = sum(sig.size_bytes for sig in self.signatures)
        block_bytes = self.block.wire_size_bytes if self.block is not None else 0
        return 32 + signature_bytes + block_bytes

    def matches(self, cert_type: MessageType, view: View) -> bool:
        """The ``MatchingQC`` helper of Algorithm 1."""
        return self.cert_type == cert_type and self.view == view

    @property
    def size(self) -> int:
        """Number of signatures aggregated."""
        return len(self.signatures)


def make_qc(messages: list[ProtocolMessage], block: Optional[Block] = None) -> QuorumCertificate:
    """Combine matching signed messages into a quorum certificate.

    All messages must share the same type, view and data digest; duplicate
    signers are collapsed.
    """
    if not messages:
        raise ValueError("cannot build a QC from zero messages")
    first = messages[0]
    for message in messages[1:]:
        if message.msg_type != first.msg_type or message.view != first.view:
            raise ValueError("QC messages must share type and view")
        if message.data_digest != first.data_digest:
            raise ValueError("QC messages must share the same data digest")
    seen: dict[NodeId, Signature] = {}
    for message in messages:
        if message.data_sig is not None and message.sender not in seen:
            seen[message.sender] = message.data_sig
    return QuorumCertificate(
        cert_type=first.msg_type,
        view=first.view,
        digest=first.data_digest,
        signers=tuple(sorted(seen)),
        signatures=tuple(seen[s] for s in sorted(seen)),
        block=block,
    )


def make_view_qc(messages: list[ProtocolMessage]) -> QuorumCertificate:
    """Combine messages into a QC over their *view signatures*.

    Blame certificates do not care about the payload (a blame may carry an
    equivocation proof or nothing at all); Algorithm 1's ``QC`` function
    aggregates the ``viewSig`` fields — signatures over (type, view) — which
    is what this constructor does.
    """
    if not messages:
        raise ValueError("cannot build a QC from zero messages")
    first = messages[0]
    for message in messages[1:]:
        if message.msg_type != first.msg_type or message.view != first.view:
            raise ValueError("QC messages must share type and view")
    seen: dict[NodeId, Signature] = {}
    for message in messages:
        if message.view_sig is not None and message.sender not in seen:
            seen[message.sender] = message.view_sig
    return QuorumCertificate(
        cert_type=first.msg_type,
        view=first.view,
        digest=sha256_hex(("view", first.msg_type.value, first.view)),
        signers=tuple(sorted(seen)),
        signatures=tuple(seen[s] for s in sorted(seen)),
    )


def _memoized_valid_count(
    scheme: SignatureScheme,
    verifier: NodeId,
    qc: "QuorumCertificate",
    slot: str,
    payload: Tuple[Any, ...],
) -> Optional[int]:
    """Count valid signatures on a QC, memoized per (certificate, scheme).

    Returns ``None`` when a signature's declared signer does not match the
    certificate's signer list (the caller must reject the QC outright; that
    adversarial shape is never memoized).  Replicas after the first reuse
    the count but still book their verification operations via
    :meth:`SignatureScheme.note_verify`.
    """
    if _FLYWEIGHT_ENABLED:
        memo = qc.__dict__.get(slot)
        if memo is not None and memo[0] is scheme:
            scheme.note_verify(verifier, len(qc.signatures))
            return memo[1]
    valid = 0
    for signer, signature in zip(qc.signers, qc.signatures):
        if signature.signer != signer:
            return None
        if scheme.verify(verifier, payload, signature):
            valid += 1
    if _FLYWEIGHT_ENABLED:
        qc.__dict__[slot] = (scheme, valid)
    return valid


def verify_view_qc(
    scheme: SignatureScheme,
    verifier: NodeId,
    qc: QuorumCertificate,
    threshold: int,
) -> bool:
    """Verify a view-signature QC (e.g. a blame certificate)."""
    if len(set(qc.signers)) < threshold:
        return False
    if len(qc.signers) != len(qc.signatures):
        return False
    valid = _memoized_valid_count(
        scheme, verifier, qc, "_view_valid_by", ("view", qc.cert_type.value, qc.view)
    )
    if valid is None:
        return False
    return valid >= threshold


def verify_qc(
    scheme: SignatureScheme,
    verifier: NodeId,
    qc: QuorumCertificate,
    threshold: int,
) -> bool:
    """Verify a quorum certificate: enough distinct valid signatures over the digest."""
    if len(set(qc.signers)) < threshold:
        return False
    if len(qc.signers) != len(qc.signatures):
        return False
    valid = _memoized_valid_count(
        scheme, verifier, qc, "_data_valid_by", ("data", qc.digest, qc.view)
    )
    if valid is None:
        return False
    return valid >= threshold
