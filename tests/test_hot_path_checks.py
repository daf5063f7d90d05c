"""The checks on the event and message path survived the call diet.

The diet (DESIGN "hot path" record) made every per-event and
per-message validation cheaper without removing one.  These tests pin
each check where it runs, and size payloads against the sizing rule as
it was before the exact-type fast path.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import (
    FaultError,
    MessageError,
    SchedulingError,
    SimulationError,
    SysVMError,
)
from repro.hardware import (
    EventEngine,
    Machine,
    MachineConfig,
    MetricsRegistry,
    ProcessingElement,
)
from repro.sysvm import (
    ARRAY_DESCRIPTOR_WORDS,
    MESSAGE_HEADER_WORDS,
    ArrayHandle,
    Message,
    MsgKind,
    Runtime,
    TaskState,
    decode,
    encode,
    remote_call,
    terminate_notify,
    words_of,
)
from repro.sysvm.messages import REQUIRED_FIELDS


# -- messages: both validations, and the "never encoded" check ------------------


class TestMessageChecks:
    @pytest.mark.parametrize("kind", list(MsgKind))
    def test_encode_rejects_each_missing_field(self, kind):
        full = {name: 1 for name in REQUIRED_FIELDS[kind]}
        encode(Message(kind, dict(full)), 0, 1)  # complete: accepted
        for name in full:
            payload = {k: v for k, v in full.items() if k != name}
            with pytest.raises(MessageError, match=f"missing fields.*{name}"):
                encode(Message(kind, payload), 0, 1)

    @pytest.mark.parametrize("kind", list(MsgKind))
    def test_decode_rejects_each_missing_field(self, kind):
        for name in REQUIRED_FIELDS[kind]:
            msg = encode(Message(kind, {n: 1 for n in REQUIRED_FIELDS[kind]}), 0, 1)
            del msg.payload[name]  # truncated after it was formatted
            with pytest.raises(MessageError, match=f"missing fields.*{name}"):
                decode(msg)

    def test_missing_fields_named_in_declared_order(self):
        with pytest.raises(MessageError, match=r"\['task_type', 'args'\]"):
            Message(MsgKind.INITIATE_TASK, {"count": 1}).validate()

    def test_unencoded_message_fails_decode(self):
        msg = terminate_notify(3, 1, None)
        assert msg.size_words == 0 and msg.msg_id == 0
        with pytest.raises(MessageError, match="never encoded"):
            decode(msg)
        assert decode(encode(msg, 0, 1)) == {"child": 3, "result": None}

    @pytest.mark.parametrize("kind", ["remote_call", None, 4])
    def test_unknown_kind_rejected_by_encode_and_decode(self, kind):
        with pytest.raises(MessageError, match="unknown message kind"):
            encode(Message(kind, {"service": "s", "call_id": 1}), 0, 1)
        msg = encode(remote_call("s", 1, None), 0, 1)
        msg.kind = kind
        with pytest.raises(MessageError, match="unknown message kind"):
            decode(msg)

    def test_runtime_validates_on_send_and_on_receipt(self):
        rt = Runtime(Machine(MachineConfig.small()))
        with pytest.raises(MessageError, match="missing"):
            rt._send(0, 1, Message(MsgKind.RESUME_TASK, {}))
        msg = remote_call("deliver_value", 1, None, target=99, value=0)
        rt._send(0, 1, msg)
        del msg.payload["call_id"]  # corrupted in flight
        with pytest.raises(MessageError, match="missing"):
            rt.machine.run_to_completion()


# -- engines and PEs ---------------------------------------------------------------


class TestEngineAndPEChecks:
    def pe(self):
        eng = EventEngine()
        return eng, ProcessingElement(eng, MetricsRegistry(), cluster_id=0, index=1)

    def test_schedule_into_the_past(self):
        eng = EventEngine()
        with pytest.raises(SimulationError, match="past"):
            eng.schedule(-1, lambda: None)
        eng.schedule(5, lambda: None)
        eng.run()
        with pytest.raises(SimulationError, match="current time is 5"):
            eng.schedule_at(4, lambda: None)

    def test_schedule_and_schedule_at_share_one_order(self):
        eng, seen = EventEngine(), []
        eng.schedule(3, seen.append, "a")
        eng.schedule_at(3, seen.append, "b")
        eng.schedule(3.0, seen.append, "c")  # delays are truncated to int
        eng.schedule_at(1, seen.append, "first")
        assert eng.run() == 4
        assert seen == ["first", "a", "b", "c"] and eng.now == 3

    def test_busy_pe(self):
        _, pe = self.pe()
        pe.execute(10, lambda: None)
        with pytest.raises(SchedulingError, match="already busy"):
            pe.execute(1, lambda: None)

    def test_faulty_pe(self):
        _, pe = self.pe()
        pe.fail()
        with pytest.raises(FaultError, match="faulty"):
            pe.execute(1, lambda: None)

    def test_negative_burst(self):
        _, pe = self.pe()
        with pytest.raises(SchedulingError, match="negative burst"):
            pe.execute(-1, lambda: None)

    def test_busy_tracker_errors_survive_the_fold(self):
        eng, pe = self.pe()
        pe.busy.busy_since = 0  # tracker and PE state disagree
        with pytest.raises(ValueError, match="already busy"):
            pe.execute(1, lambda: None)
        eng, pe = self.pe()
        pe.execute(4, lambda: None)
        pe.busy.end(0)
        with pytest.raises(ValueError, match="not busy"):
            eng.run()

    def test_busy_cycles_accounted(self):
        eng, pe = self.pe()
        pe.execute(4, pe.execute, 6, lambda: None)
        eng.run()
        assert (pe.busy.busy_cycles, pe.cycles_executed, eng.now) == (10, 10, 10)
        assert pe.busy.busy_since is None and pe.utilization() == 1.0


# -- task state machine --------------------------------------------------------------

LEGAL = {
    ("ready", "running"),
    ("running", "blocked"), ("running", "paused"), ("running", "done"),
    ("running", "failed"), ("running", "ready"),
    ("blocked", "ready"), ("blocked", "failed"),
    ("paused", "ready"), ("paused", "failed"),
}


def test_every_transition_is_checked():
    rt = Runtime(Machine(MachineConfig.small()))

    def body(ctx):
        yield

    rt.define_task("t", body)
    rt.spawn("t", cluster=0)
    tcb = rt.tasks[1]
    for old in TaskState:
        for new in TaskState:
            tcb.state = old
            if (old.value, new.value) in LEGAL:
                tcb.transition(new)
                assert tcb.state is new
            else:
                with pytest.raises(SchedulingError, match="illegal transition"):
                    tcb.transition(new)
                assert tcb.state is old


def test_non_effect_still_rejected():
    rt = Runtime(Machine(MachineConfig.small()))

    def body(ctx):
        yield "not an effect"

    rt.define_task("t", body)
    rt.spawn("t", cluster=0)
    with pytest.raises(SysVMError):
        rt.run()


# -- sizing: the fast path against the ladder it fronts -----------------------------


def ladder_words_of(value):
    """``words_of`` as it was before the exact-type fast path (the
    oracle: vendored, not imported)."""
    if value is None:
        return 1
    if isinstance(value, (bool, int, float, complex)):
        return 2 if isinstance(value, complex) else 1
    if isinstance(value, str):
        return 1 + (len(value) + 3) // 4
    if isinstance(value, np.ndarray):
        return ARRAY_DESCRIPTOR_WORDS + int(value.size)
    if isinstance(value, np.generic):
        return 1
    if isinstance(value, (list, tuple)):
        return 1 + sum(ladder_words_of(v) for v in value)
    if isinstance(value, dict):
        return 1 + sum(ladder_words_of(k) + ladder_words_of(v) for k, v in value.items())
    if hasattr(value, "size_words"):
        return int(value.size_words())
    raise SysVMError(f"cannot size value of type {type(value).__name__}")


class IntSub(int):
    pass


class StrSub(str):
    pass


class ArraySub(np.ndarray):
    pass


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=True),
    st.complex_numbers(allow_nan=False), st.text(max_size=12),
    st.integers(-5, 5).map(IntSub), st.text(max_size=6).map(StrSub),
    st.sampled_from([
        np.bool_(True), np.int8(3), np.int64(-2), np.float32(1.5),
        np.float64(2.5), np.complex128(1 + 2j), np.str_("abcde"),
    ]),
    st.integers(0, 9).map(lambda n: np.zeros(n)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).map(np.ones),
    st.integers(0, 5).map(lambda n: np.zeros(n).view(ArraySub)),
    st.integers(1, 4).map(lambda n: ArrayHandle(n, (n, 2), "float64", 0, None)),
)
hashables = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-2, 2),
    st.complex_numbers(max_magnitude=2, allow_nan=False), st.text(max_size=6),
    st.text(max_size=4).map(StrSub),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(hashables, inner, max_size=4),
    ),
    max_leaves=12,
)
SETTINGS = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@SETTINGS
@given(values)
def test_words_of_equals_the_ladder(value):
    assert words_of(value) == ladder_words_of(value)


@SETTINGS
@given(st.dictionaries(hashables, values, max_size=5))
def test_encode_sizes_keys_and_values_by_the_ladder(extra):
    """The remembered key sizes never leak between keys that compare
    equal but size differently (1 / 1.0 / True / 1+0j), across messages."""
    payload = {"child": 7, **extra}
    msg = encode(Message(MsgKind.PAUSE_NOTIFY, payload), 0, 1)
    assert msg.size_words == MESSAGE_HEADER_WORDS + sum(
        ladder_words_of(k) + ladder_words_of(v) for k, v in payload.items()
    )


def test_key_memo_keeps_equal_keys_of_other_types_apart():
    sizes = [
        encode(Message(MsgKind.PAUSE_NOTIFY, {"child": 1, key: None}), 0, 1).size_words
        for key in (1, 1 + 0j, True, 1.0, 1 + 0j)
    ]
    base = MESSAGE_HEADER_WORDS + (words_of("child") + 1) + (1 + 1)
    assert sizes == [base, base + 1, base, base, base + 1]


def test_unsizable_value_still_rejected():
    with pytest.raises(SysVMError, match="cannot size"):
        words_of(object())
    with pytest.raises(SysVMError, match="cannot size"):
        encode(Message(MsgKind.PAUSE_NOTIFY, {"child": object()}), 0, 1)
