"""Message formatting and decoding.

The system programmer's VM operations include "format and send message
(one of the 7 types above)" and "decode and execute message".  The
codec is the *format* half: it validates a message, computes its wire
size in words from the payload via :func:`~repro.sysvm.storage.words_of`,
and stamps routing information.  Execution of decoded messages is the
kernel's job (:mod:`repro.sysvm.kernel`).
"""

from __future__ import annotations

from typing import Any, Dict

from ..errors import MessageError
from .messages import Message, MsgKind
from .storage import MESSAGE_HEADER_WORDS, words_of


#: sizes of the payload field names seen so far (the same few ride every
#: message).  Exact ``str`` keys only: equal keys of other types can differ.
_KEY_WORDS: Dict[str, int] = {}

def encode(msg: Message, src_cluster: int, dst_cluster: int) -> Message:
    """Validate, route-stamp, and size a message for transmission."""
    msg.validate()
    msg.src_cluster = src_cluster
    msg.dst_cluster = dst_cluster
    size = MESSAGE_HEADER_WORDS
    for key, value in msg.payload.items():
        try:
            size += _KEY_WORDS[key]
        except KeyError:
            key_words = words_of(key)
            if type(key) is str:
                _KEY_WORDS[key] = key_words
            size += key_words
        size += words_of(value)
    msg.size_words = size
    return msg


def decode(msg: Message) -> Dict[str, Any]:
    """Check a received message and return its payload.

    Models the kernel's "decode" step: a malformed or truncated message
    raises :class:`MessageError` rather than corrupting the receiver.
    """
    if msg.size_words < MESSAGE_HEADER_WORDS:
        raise MessageError(f"message #{msg.msg_id} was never encoded")
    msg.validate()
    return dict(msg.payload)


def traffic_class(kind: MsgKind) -> str:
    """Coarse classification used by the E3 traffic tables."""
    if kind in (MsgKind.INITIATE_TASK, MsgKind.LOAD_CODE):
        return "task_management"
    if kind in (MsgKind.PAUSE_NOTIFY, MsgKind.RESUME_TASK, MsgKind.TERMINATE_NOTIFY):
        return "task_control"
    return "data_access"
