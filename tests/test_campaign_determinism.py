"""The campaign determinism contract, enforced.

A campaign result must be byte-identical regardless of host worker
count, wave ordering, or refinement interleaving; a warm-restarted
refined point must match a cold run bit-for-bit via its ``fem2-ckpt/1``
blob.  These tests state both halves over canonical report bytes and
checkpoint fingerprints.
"""

import json

from repro.campaign import Campaign, ParamSpace, RunOptions, run_point
from repro.ckpt import fingerprint

SPACE_AXES = {"nx": [2, 4], "workers": [1, 2]}


def small_campaign(workers, **overrides):
    kwargs = dict(name="det", workers=workers,
                  waves=2, refine_per_wave=1, restart_events=40)
    kwargs.update(overrides)
    return Campaign(ParamSpace(SPACE_AXES), **kwargs)


# ---------------------------------------------------------------------------
# worker-count independence


class TestWorkerCountIndependence:
    def test_serial_vs_pool_byte_identical(self):
        """The headline contract: serial in-process, 1 worker, and 4
        workers produce equal canonical bytes — refinement waves and
        warm restarts included."""
        serial = small_campaign(workers=0).run()
        one = small_campaign(workers=1).run()
        four = small_campaign(workers=4).run()
        assert serial.canonical_bytes() == one.canonical_bytes()
        assert serial.canonical_bytes() == four.canonical_bytes()

    def test_per_point_records_identical(self):
        """Not just the aggregate: every point record equals its serial
        twin (records carry no host-time keys)."""
        serial = small_campaign(workers=0).run()
        pooled = small_campaign(workers=2).run()
        assert len(serial.points) == len(pooled.points)
        for a, b in zip(serial.points, pooled.points):
            assert a == b

    def test_restart_blobs_identical_across_processes(self):
        """The mid-run fem2-ckpt/1 blobs themselves (not just their
        fingerprints) match between the serial path and the pool path —
        in-flight wire state may not depend on host-process history."""
        serial = small_campaign(workers=0)
        pooled = small_campaign(workers=2)
        serial.run()
        pooled.run()
        assert serial.restart_blobs.keys() == pooled.restart_blobs.keys()
        assert len(serial.restart_blobs) > 0
        for key, blob in serial.restart_blobs.items():
            assert pooled.restart_blobs[key] == blob

    def test_report_carries_no_host_state(self):
        report = small_campaign(workers=2).run()
        text = json.dumps(report.to_record())
        for leak in ("host_seconds", "pid", "worker_count"):
            assert leak not in text

    def test_rerun_in_same_process_identical(self):
        """Process history (earlier campaigns) must not leak into a
        later report through module/global counters."""
        first = small_campaign(workers=0).run()
        second = small_campaign(workers=0).run()
        assert first.canonical_bytes() == second.canonical_bytes()


# ---------------------------------------------------------------------------
# warm restart == cold run, bit for bit


class TestWarmRestart:
    POINT = {"nx": 3, "workers": 2}

    def run_pair(self):
        cold = RunOptions(trace=False, journal=True)
        warm = RunOptions(trace=False, restart_events=40)
        cold_payload, cold_blob = run_point(self.POINT, cold)
        warm_payload, warm_blob = run_point(self.POINT, warm)
        return cold_payload, cold_blob, warm_payload, warm_blob

    def test_warm_matches_cold_bit_for_bit(self):
        cold_payload, cold_blob, warm_payload, warm_blob = self.run_pair()
        assert cold_blob is None and warm_blob is not None
        # identical observables...
        assert warm_payload["metrics"] == cold_payload["metrics"]
        assert warm_payload["result"] == cold_payload["result"]
        # ...and identical final machine state: byte-identical blobs
        assert warm_payload["final_ckpt_sha256"] is not None
        assert (warm_payload["final_ckpt_sha256"]
                == cold_payload["final_ckpt_sha256"])
        # the payload advertises the blob it restarted from
        assert warm_payload["restart"] == {
            "events": 40, "blob_sha256": fingerprint(warm_blob)}

    def test_restart_blob_is_reusable(self):
        """Re-resuming the stored blob reproduces the warm run exactly:
        the blob is real restart material, not a fingerprint stub."""
        from repro.appvm import MachineService

        _, _, warm_payload, warm_blob = self.run_pair()
        service = MachineService.resume(warm_blob)
        finished = service.run()
        assert len(finished) == 1
        result = finished[0].result()
        assert int(result.iterations) == warm_payload["result"]["iterations"]
        assert (int(result.elapsed_cycles)
                == warm_payload["result"]["elapsed_cycles"])

    def test_warm_restart_deterministic_across_calls(self):
        """Two warm runs of the same point in one process agree on the
        mid-run blob bytes (guards the msg-id fidelity fix)."""
        options = RunOptions(trace=False, restart_events=40)
        p1, b1 = run_point(self.POINT, options)
        p2, b2 = run_point(self.POINT, options)
        assert b1 == b2
        assert p1 == p2

    def test_campaign_refined_points_record_restarts(self):
        campaign = small_campaign(workers=0)
        report = campaign.run()
        refined = [p for p in report.points if p["wave"] > 0]
        assert refined
        for point in refined:
            assert point["restart"]["events"] == 40
            key = tuple(sorted(point["point"].items()))
            assert (fingerprint(campaign.restart_blobs[key])
                    == point["restart"]["blob_sha256"])
