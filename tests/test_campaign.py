"""Tests for the campaign layer: spaces, waves, refinement, report codec.

The cheap parts (space algebra, refinement scoring, report round-trip)
run against synthetic records and stub runners; a handful of tests run
real single points through the simulated machine to pin the payload
shape the rest of the suite builds on.
"""

import json

import pytest

from repro.campaign import (
    CAMPAIGN_SCHEMA,
    Axis,
    Campaign,
    CampaignReport,
    ParamSpace,
    RunOptions,
    build_config,
    build_model,
    midpoint,
    pair_score,
    point_key,
    refine_candidates,
    run_point,
    validate_axes,
)
from repro.errors import CampaignError


# ---------------------------------------------------------------------------
# axes and spaces


class TestAxis:
    def test_values_in_declared_order(self):
        ax = Axis("nx", [4, 2, 8])
        assert ax.values == [4, 2, 8]
        assert ax.numeric and ax.lo == 2 and ax.hi == 8

    def test_categorical_axis(self):
        ax = Axis("topology", ["ring", "complete"])
        assert not ax.numeric
        assert ax.lo is None and ax.hi is None
        assert ax.admits("ring") and not ax.admits("mesh")

    def test_numeric_span_is_closed(self):
        ax = Axis("hop_latency", [5, 20])
        assert ax.admits(5) and ax.admits(20) and ax.admits(12)
        assert not ax.admits(4) and not ax.admits(21)

    def test_empty_axis_rejected(self):
        with pytest.raises(CampaignError):
            Axis("nx", [])

    def test_bad_name_rejected(self):
        with pytest.raises(CampaignError):
            Axis("not an identifier", [1])

    def test_mixed_kinds_rejected(self):
        with pytest.raises(CampaignError):
            Axis("nx", [2, "ring"])

    def test_bool_is_categorical(self):
        ax = Axis("flag", [True, False])
        assert not ax.numeric

    def test_non_scalar_rejected(self):
        with pytest.raises(CampaignError):
            Axis("nx", [[1, 2]])


class TestSpaceExpansion:
    def test_cartesian_cross_product(self):
        space = ParamSpace({"nx": [2, 4], "workers": [1, 2]})
        points = space.expand()
        assert len(points) == 4 == space.size()
        assert {"nx": 2, "workers": 1} in points
        assert {"nx": 4, "workers": 2} in points

    def test_expansion_order_is_sorted_axis_major(self):
        # axes iterate in sorted-name order regardless of declaration
        a = ParamSpace({"b": [1, 2], "a": [1, 2]}).expand()
        b = ParamSpace({"a": [1, 2], "b": [1, 2]}).expand()
        assert a == b

    def test_single_point_space(self):
        space = ParamSpace({"nx": [3]})
        assert space.expand() == [{"nx": 3}]
        assert space.size() == 1

    def test_empty_axes_rejected(self):
        with pytest.raises(CampaignError):
            ParamSpace({})

    def test_explicit_points(self):
        pts = [{"nx": 2, "workers": 1}, {"nx": 4, "workers": 2}]
        space = ParamSpace.explicit(pts)
        assert space.kind == "explicit"
        assert space.expand() == pts

    def test_explicit_duplicates_dedup_to_first(self):
        pts = [{"nx": 2}, {"nx": 4}, {"nx": 2}]
        space = ParamSpace.explicit(pts)
        assert space.expand() == [{"nx": 2}, {"nx": 4}]
        assert space.size() == 2

    def test_explicit_empty_rejected(self):
        with pytest.raises(CampaignError):
            ParamSpace.explicit([])

    def test_explicit_mismatched_axes_rejected(self):
        with pytest.raises(CampaignError):
            ParamSpace.explicit([{"nx": 2}, {"ny": 2}])

    @pytest.mark.parametrize("text, complaint", [
        ("[{", "cannot read"),                          # malformed JSON
        (None, "cannot read"),                          # no such file
        ('{"a": 1}', "must be a list"),                 # not a point list
        ("[1, 2]", "must be an {axis: value} mapping"),  # not points
    ])
    def test_cli_points_file_fails_typed(self, tmp_path, capsys, text,
                                         complaint):
        from repro.campaign.__main__ import main
        path = tmp_path / "points.json"
        if text is not None:
            path.write_text(text)
        assert main(["--points-file", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("campaign failed: ")
        assert complaint in err

    def test_contains_midpoints_of_numeric_axes(self):
        space = ParamSpace({"nx": [2, 8], "topology": ["ring"]})
        assert space.contains({"nx": 5, "topology": "ring"})
        assert not space.contains({"nx": 9, "topology": "ring"})
        assert not space.contains({"nx": 5, "topology": "complete"})
        assert not space.contains({"nx": 5})  # missing axis

    def test_describe_round_trip(self):
        space = ParamSpace({"nx": [2, 4], "topology": ["ring", "complete"]})
        again = ParamSpace.from_record(space.describe())
        assert again.expand() == space.expand()
        assert again.describe() == space.describe()

    def test_describe_round_trip_explicit(self):
        space = ParamSpace.explicit([{"nx": 2}, {"nx": 4}, {"nx": 2}])
        again = ParamSpace.from_record(space.describe())
        assert again.expand() == space.expand()

    def test_point_key_is_order_insensitive(self):
        assert point_key({"a": 1, "b": 2}) == point_key({"b": 2, "a": 1})


# ---------------------------------------------------------------------------
# refinement


def rec(point, cycles, messages=100):
    return {"point": dict(point),
            "metrics": {"cycles": cycles, "messages": messages}}


class TestRefinement:
    def test_midpoint_int_floor(self):
        assert midpoint(2, 8) == 5
        assert midpoint(2, 3) is None  # adjacent ints: nothing between
        assert midpoint(4, 4) is None

    def test_midpoint_float(self):
        assert midpoint(1.0, 2.0) == 1.5

    def test_pair_score_relative_variation(self):
        a, b = rec({"nx": 2}, 100, 100), rec({"nx": 8}, 300, 100)
        # |100-300|/400 + |100-100|/200 = 0.5
        assert pair_score(a, b) == pytest.approx(0.5)

    def test_pair_score_zero_metrics(self):
        assert pair_score(rec({"nx": 2}, 0, 0), rec({"nx": 8}, 0, 0)) == 0.0

    def test_steepest_pair_wins(self):
        space = ParamSpace({"nx": [2, 8, 14]})
        records = [rec({"nx": 2}, 100), rec({"nx": 8}, 110),
                   rec({"nx": 14}, 500)]
        got = refine_candidates(space, records, 1,
                                {point_key(r["point"]) for r in records})
        assert got == [{"nx": 11}]  # midpoint of the steep (8, 14) pair

    def test_scheduled_points_never_reproposed(self):
        space = ParamSpace({"nx": [2, 8]})
        records = [rec({"nx": 2}, 100), rec({"nx": 8}, 500)]
        taken = {point_key(r["point"]) for r in records}
        first = refine_candidates(space, records, 4, taken)
        assert first == [{"nx": 5}]
        taken.update(point_key(p) for p in first)
        records.append(rec({"nx": 5}, 300))
        second = refine_candidates(space, records, 4, taken)
        assert {"nx": 5} not in second
        assert second == [{"nx": 3}, {"nx": 6}]

    def test_categorical_axes_not_refined(self):
        space = ParamSpace({"topology": ["ring", "complete"]})
        records = [rec({"topology": "ring"}, 100),
                   rec({"topology": "complete"}, 500)]
        assert refine_candidates(space, records, 4, set()) == []

    def test_lines_require_other_axes_to_agree(self):
        space = ParamSpace({"nx": [2, 8], "workers": [1, 2]})
        # only the workers=1 line has both endpoints
        records = [rec({"nx": 2, "workers": 1}, 100),
                   rec({"nx": 8, "workers": 1}, 500),
                   rec({"nx": 2, "workers": 2}, 100)]
        got = refine_candidates(space, records, 4, set())
        assert got == [{"nx": 5, "workers": 1}]

    def test_limit_zero_or_single_record(self):
        space = ParamSpace({"nx": [2, 8]})
        records = [rec({"nx": 2}, 100), rec({"nx": 8}, 500)]
        assert refine_candidates(space, records, 0, set()) == []
        assert refine_candidates(space, records[:1], 4, set()) == []


# ---------------------------------------------------------------------------
# wave scheduling (stub runner: no simulated machine, just the shape)


def stub_runner(point, options):
    # a synthetic response surface with one steep edge along nx
    cycles = 1000 * point["nx"] * point["nx"]
    return {"metrics": {"cycles": cycles, "messages": 10 * point["nx"]},
            "spans": None, "restart": None}


class TestWaveScheduling:
    def test_wave_zero_is_the_expansion(self):
        space = ParamSpace({"nx": [2, 4]})
        report = Campaign(space, runner=stub_runner).run()
        assert [p["point"] for p in report.points] == space.expand()
        assert [p["wave"] for p in report.points] == [0, 0]
        assert [p["index"] for p in report.points] == [0, 1]

    def test_refinement_waves_add_midpoints(self):
        space = ParamSpace({"nx": [2, 8]})
        report = Campaign(space, runner=stub_runner, waves=2,
                              refine_per_wave=1).run()
        assert [p["point"] for p in report.points] == [
            {"nx": 2}, {"nx": 8}, {"nx": 5}]
        assert report.points[-1]["wave"] == 1
        assert report.waves == [{"wave": 0, "points": 2, "warm": False},
                                {"wave": 1, "points": 1, "warm": False}]

    def test_waves_stop_when_refinement_dries_up(self):
        space = ParamSpace({"nx": [2, 3]})  # adjacent ints: no midpoints
        report = Campaign(space, runner=stub_runner, waves=5,
                              refine_per_wave=4).run()
        assert len(report.waves) == 1
        assert len(report.points) == 2

    def test_every_scheduled_point_recorded_once(self):
        space = ParamSpace({"nx": [2, 8], "workers": [1, 2]})
        report = Campaign(space, runner=stub_runner, waves=3,
                              refine_per_wave=2).run()
        keys = [point_key(p["point"]) for p in report.points]
        assert len(keys) == len(set(keys))
        assert [p["index"] for p in report.points] == list(range(len(keys)))

    def test_constructor_validation(self):
        space = ParamSpace({"nx": [2]})
        with pytest.raises(CampaignError):
            Campaign(space, workers=-1)
        with pytest.raises(CampaignError):
            Campaign(space, waves=0)
        with pytest.raises(CampaignError):
            Campaign(space, refine_per_wave=-1)
        with pytest.raises(CampaignError):
            Campaign(space, restart_events=0)

    def test_unknown_axis_rejected_without_custom_runner(self):
        with pytest.raises(CampaignError):
            Campaign(ParamSpace({"bogus_axis": [1, 2]}))

    def test_unknown_axis_fine_with_custom_runner(self):
        report = Campaign(ParamSpace({"bogus_axis": [1, 2]}),
                              runner=lambda p, o: {"metrics": {}}).run()
        assert len(report.points) == 2


# ---------------------------------------------------------------------------
# report codec


def small_report():
    space = ParamSpace({"nx": [2, 8]})
    return Campaign(space, runner=stub_runner, waves=2, refine_per_wave=1).run()


class TestReportCodec:
    def test_schema_stamped(self):
        record = small_report().to_record()
        assert record["schema"] == CAMPAIGN_SCHEMA

    def test_json_round_trip(self):
        report = small_report()
        again = CampaignReport.from_json(report.to_json())
        assert again.to_record() == report.to_record()
        assert again.canonical_bytes() == report.canonical_bytes()

    def test_older_record_with_an_engine_key_still_loads(self):
        """Reports written before the second engine was deleted carry an
        ``"engine"`` key; it is ignored, not an error."""
        record = small_report().to_record()
        assert "engine" not in record
        older = dict(record, engine="fast")
        assert CampaignReport.from_record(older).to_record() == record

    def test_wrong_schema_rejected(self):
        record = small_report().to_record()
        record["schema"] = "fem2-bench/1"
        with pytest.raises(CampaignError):
            CampaignReport.from_record(record)

    def test_canonical_bytes_are_json(self):
        blob = small_report().canonical_bytes()
        assert json.loads(blob.decode("utf-8"))["schema"] == CAMPAIGN_SCHEMA

    def test_aggregate_counts(self):
        agg = small_report().aggregate()
        assert agg["points"] == 3
        assert agg["refined_points"] == 1
        assert agg["warm_restarts"] == 0
        assert agg["cycles"]["n"] == 3
        assert agg["cycles"]["max"] == 64000.0

    def test_aggregate_is_order_independent(self):
        report = small_report()
        shuffled = CampaignReport.from_record(report.to_record())
        shuffled.points = list(reversed(shuffled.points))
        assert shuffled.aggregate() == report.aggregate()

    def test_no_volatile_keys_in_record(self):
        text = json.dumps(small_report().to_record())
        assert "host_seconds" not in text
        assert "workers_used" not in text


# ---------------------------------------------------------------------------
# the real point runner (one small machine run)


class TestRunPoint:
    def test_payload_shape(self):
        options = RunOptions()
        payload, blob = run_point({"nx": 2, "workers": 1}, options)
        assert blob is None
        assert payload["point"] == {"nx": 2, "workers": 1}
        m = payload["metrics"]
        assert m["cycles"] > 0 and m["messages"] > 0
        assert m["iterations"] == payload["result"]["iterations"] > 0
        assert payload["bench"]["schema"] == "fem2-bench/1"
        assert payload["spans"]  # tracing on by default
        assert payload["restart"] is None
        # payload must survive the canonical-JSON trip
        assert json.loads(json.dumps(payload)) == payload

    def test_machine_axes_change_the_config(self):
        options = RunOptions(base_config={"n_clusters": 2})
        cfg = build_config({"n_clusters": 4, "hop_latency": 9}, options)
        assert cfg.n_clusters == 4 and cfg.hop_latency == 9
        assert cfg.engine == "default"

    def test_mesh_axes_change_the_model(self):
        options = RunOptions()
        model = build_model({"nx": 6, "ny": 3}, options)
        assert model.mesh.n_elements == 18

    def test_validate_axes_names_the_offender(self):
        with pytest.raises(CampaignError, match="bogus"):
            validate_axes(ParamSpace({"bogus": [1]}))
