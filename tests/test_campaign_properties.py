"""Property-based tests (hypothesis) for the campaign scheduler.

Three contracts from the campaign spec:

* any generated space drives a full multi-wave campaign without
  crashing (stub runner — the scheduler is under test, not the
  simulated machine), and the report round-trips through its codec;
* refinement never schedules a point outside the declared space;
* every scheduled point appears in the report exactly once, indexed in
  schedule order.

Runs use ``workers=0`` (in-process) with injected runners so the suite
stays fast; the cross-process half of the contract lives in
``tests/test_campaign_determinism.py``.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign import (
    Campaign,
    CampaignReport,
    ParamSpace,
    point_key,
    refine_candidates,
)

SETTINGS = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# axis values: small ints (refinable), floats, and categorical strings
INT_VALUES = st.lists(st.integers(min_value=1, max_value=32),
                      min_size=1, max_size=4, unique=True)
FLOAT_VALUES = st.lists(
    st.floats(min_value=0.5, max_value=64.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=4, unique=True)
CAT_VALUES = st.lists(st.sampled_from(["ring", "complete", "star", "mesh"]),
                      min_size=1, max_size=3, unique=True)

AXIS_NAMES = st.sampled_from(["ax_a", "ax_b", "ax_c", "ax_d"])

SPACES = st.dictionaries(
    AXIS_NAMES,
    st.one_of(INT_VALUES, FLOAT_VALUES, CAT_VALUES),
    min_size=1, max_size=3,
).map(ParamSpace)


def surface_runner(point, options):
    """A deterministic synthetic response surface with numeric slopes
    steep enough that refinement always has pairs to score."""
    cycles = 100.0
    messages = 10.0
    for name, value in sorted(point.items()):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            cycles += float(value) * float(value) * 17.0
            messages += float(value) * 3.0
        else:
            cycles += 101.0 * (1 + len(str(value)))
    return {"metrics": {"cycles": cycles, "messages": messages}}


@given(space=SPACES, waves=st.integers(1, 4), refine=st.integers(0, 4))
@SETTINGS
def test_generated_spaces_never_crash_the_scheduler(space, waves, refine):
    report = Campaign(space, runner=surface_runner, waves=waves,
                          refine_per_wave=refine).run()
    # well-formed: codec round-trip preserves canonical bytes
    again = CampaignReport.from_json(report.to_json())
    assert again.canonical_bytes() == report.canonical_bytes()
    assert report.aggregate()["points"] == len(report.points)


@given(space=SPACES, waves=st.integers(2, 4), refine=st.integers(1, 4))
@SETTINGS
def test_refinement_never_leaves_the_declared_space(space, waves, refine):
    report = Campaign(space, runner=surface_runner, waves=waves,
                          refine_per_wave=refine).run()
    for record in report.points:
        assert space.contains(record["point"])
        if record["wave"] > 0:
            # refined points are genuinely new, not re-runs
            assert record["point"] not in space.expand()


@given(space=SPACES, waves=st.integers(1, 4), refine=st.integers(0, 4))
@SETTINGS
def test_every_scheduled_point_appears_exactly_once(space, waves, refine):
    report = Campaign(space, runner=surface_runner, waves=waves,
                          refine_per_wave=refine).run()
    keys = [point_key(p["point"]) for p in report.points]
    assert len(keys) == len(set(keys))
    # wave 0 is the full expansion, in expansion order
    expansion = space.expand()
    assert [p["point"] for p in report.points[:len(expansion)]] == expansion
    # indices are the schedule order, gap-free
    assert [p["index"] for p in report.points] == list(range(len(keys)))
    # waves are monotonically non-decreasing along the schedule
    waves_seen = [p["wave"] for p in report.points]
    assert waves_seen == sorted(waves_seen)


@given(space=SPACES, limit=st.integers(0, 6))
@SETTINGS
def test_refine_candidates_dedup_and_containment(space, limit):
    """The refinement primitive itself: candidates are unique, inside
    the space, never among the already-scheduled keys, and capped."""
    records = [{"point": p, **surface_runner(p, None)}
               for p in space.expand()]
    scheduled = {point_key(r["point"]) for r in records}
    got = refine_candidates(space, records, limit, scheduled)
    keys = [point_key(p) for p in got]
    assert len(got) <= limit
    assert len(keys) == len(set(keys))
    for candidate, key in zip(got, keys):
        assert space.contains(candidate)
        assert key not in scheduled


@given(space=SPACES, waves=st.integers(1, 3), refine=st.integers(0, 3))
@SETTINGS
def test_reports_are_deterministic_functions_of_the_space(space, waves,
                                                          refine):
    first = Campaign(space, runner=surface_runner, waves=waves,
                         refine_per_wave=refine).run()
    second = Campaign(space, runner=surface_runner, waves=waves,
                          refine_per_wave=refine).run()
    assert first.canonical_bytes() == second.canonical_bytes()
