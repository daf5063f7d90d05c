"""Unit tests for the seven message types, codec, and sizing rules."""

import numpy as np
import pytest

from repro.errors import MessageError, SysVMError
from repro.hardware import Machine, MachineConfig
from repro.sysvm import (
    MESSAGE_HEADER_WORDS,
    Message,
    MsgKind,
    Runtime,
    decode,
    encode,
    initiate_task,
    load_code,
    pause_notify,
    remote_call,
    remote_return,
    resume_task,
    terminate_notify,
    traffic_class,
    words_of,
)


class TestSevenKinds:
    def test_exactly_seven_kinds(self):
        """The paper enumerates exactly seven message types."""
        assert len(MsgKind) == 7

    def test_constructors_cover_all_kinds(self):
        msgs = [
            initiate_task("t", 3, (1,), parent=1),
            pause_notify(2, 1),
            resume_task(2, 1),
            terminate_notify(2, 1, result=42),
            remote_call("window_read", 7, 1),
            remote_return(7, None, 1),
            load_code("t", 256),
        ]
        assert {m.kind for m in msgs} == set(MsgKind)
        for m in msgs:
            m.validate()

    def test_initiate_requires_positive_count(self):
        with pytest.raises(MessageError):
            initiate_task("t", 0, (), parent=None)

    def test_missing_fields_rejected(self):
        msg = Message(MsgKind.INITIATE_TASK, {"task_type": "t"})
        with pytest.raises(MessageError, match="missing"):
            msg.validate()

    def test_msg_ids_stamped_at_send(self):
        """An unsent message carries the "unstamped" id 0 whatever the
        host process built before it; the OS stamps wire ids from its
        own counter, so they count up from 1 in every run."""
        a, b = pause_notify(1, 2), pause_notify(1, 2)
        assert a.msg_id == b.msg_id == 0
        for _ in range(2):  # a second runtime in the same process
            rt = Runtime(Machine(MachineConfig.small()))
            first, second = resume_task(1, None), resume_task(1, None)
            rt._send(0, 1, first)
            rt._send(0, 0, second)
            assert (first.msg_id, second.msg_id) == (1, 2)


class TestWordsOf:
    def test_scalars(self):
        assert words_of(5) == 1
        assert words_of(2.5) == 1
        assert words_of(True) == 1
        assert words_of(None) == 1
        assert words_of(1 + 2j) == 2

    def test_strings_pack_four_chars_per_word(self):
        assert words_of("") == 1
        assert words_of("abcd") == 2
        assert words_of("abcde") == 3

    def test_arrays_cost_descriptor_plus_elements(self):
        a = np.zeros((3, 4))
        assert words_of(a) == 6 + 12

    def test_containers(self):
        assert words_of([1, 2, 3]) == 4
        assert words_of({"a": 1}) == 1 + words_of("a") + 1

    def test_numpy_scalar(self):
        assert words_of(np.float64(1.5)) == 1

    def test_object_with_size_words(self):
        class Desc:
            def size_words(self):
                return 8

        assert words_of(Desc()) == 8

    def test_unsizable_rejected(self):
        with pytest.raises(SysVMError):
            words_of(object())


class TestCodec:
    def test_encode_stamps_route_and_size(self):
        msg = terminate_notify(5, 1, result=np.ones(10))
        encode(msg, src_cluster=2, dst_cluster=0)
        assert msg.src_cluster == 2 and msg.dst_cluster == 0
        assert msg.size_words > MESSAGE_HEADER_WORDS + 10

    def test_larger_payload_larger_message(self):
        small = encode(terminate_notify(1, 2, result=np.ones(4)), 0, 1)
        big = encode(terminate_notify(1, 2, result=np.ones(400)), 0, 1)
        assert big.size_words - small.size_words == 396

    def test_decode_returns_payload_copy(self):
        msg = encode(resume_task(3, 1), 0, 1)
        payload = decode(msg)
        assert payload["child"] == 3
        payload["child"] = 99
        assert msg.payload["child"] == 3

    def test_decode_unencoded_rejected(self):
        with pytest.raises(MessageError, match="never encoded"):
            decode(resume_task(3, 1))

    def test_encode_validates(self):
        bad = Message(MsgKind.REMOTE_CALL, {"service": "x"})  # no call_id
        with pytest.raises(MessageError):
            encode(bad, 0, 1)


class TestTrafficClass:
    def test_classes(self):
        assert traffic_class(MsgKind.INITIATE_TASK) == "task_management"
        assert traffic_class(MsgKind.LOAD_CODE) == "task_management"
        assert traffic_class(MsgKind.PAUSE_NOTIFY) == "task_control"
        assert traffic_class(MsgKind.RESUME_TASK) == "task_control"
        assert traffic_class(MsgKind.TERMINATE_NOTIFY) == "task_control"
        assert traffic_class(MsgKind.REMOTE_CALL) == "data_access"
        assert traffic_class(MsgKind.REMOTE_RETURN) == "data_access"
