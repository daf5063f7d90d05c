"""``python -m repro.campaign`` — run a design-space campaign from the
command line.

Examples::

    # 2x3 cartesian sweep, 2 worker processes, refined once
    python -m repro.campaign --axis n_clusters=2,4 --axis nx=2,4,6 \\
        --campaign-workers 2 --waves 2 --refine 4 --out campaign.json

    # explicit points from a JSON file (a list of {axis: value} dicts)
    python -m repro.campaign --points-file points.json --out campaign.json

Axis values are parsed as int, then float, then kept as strings, so
``--axis topology=complete,ring`` sweeps a categorical axis.  The
report written to ``--out`` is the canonical ``fem2-campaign/1`` JSON;
a human summary table prints to stdout.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, List

from ..appvm import render_table
from ..errors import CampaignError, Fem2Error
from .campaign import Campaign
from .report import CampaignReport
from .space import ParamSpace


def parse_value(text: str) -> Any:
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def parse_axis(spec: str):
    if "=" not in spec:
        raise CampaignError(
            f"--axis wants name=v1,v2,..., got {spec!r}")
    name, _, values = spec.partition("=")
    return name.strip(), [parse_value(v) for v in values.split(",") if v]


def summary_table(report: CampaignReport) -> str:
    agg = report.aggregate()
    rows: List[List[Any]] = []
    for key in ("cycles", "messages", "iterations"):
        s = agg[key]
        rows.append([key, s["n"], round(s["min"], 1), round(s["max"], 1),
                     round(s["mean"], 1)])
    lines = [
        f"campaign {report.name!r}: {agg['points']} points over "
        f"{agg['waves']} wave(s), {agg['refined_points']} refined, "
        f"{agg['warm_restarts']} warm-restarted",
        render_table(["metric", "points", "min", "max", "mean"], rows),
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description=__doc__.splitlines()[0])
    ap.add_argument("--axis", action="append", default=[], metavar="NAME=V,V",
                    help="one axis of a cartesian space (repeatable)")
    ap.add_argument("--points-file", type=pathlib.Path,
                    help="JSON file with an explicit point list")
    ap.add_argument("--name", default="campaign")
    ap.add_argument("--campaign-workers", type=int, default=0, metavar="N",
                    help="worker processes (0 = serial in-process)")
    ap.add_argument("--waves", type=int, default=1)
    ap.add_argument("--refine", type=int, default=0, metavar="N",
                    help="points added per refinement wave")
    ap.add_argument("--restart-events", type=int, default=None, metavar="N",
                    help="warm-restart refined points after N engine events")
    ap.add_argument("--out", type=pathlib.Path, default=None,
                    help="write the fem2-campaign/1 report here")
    ap.add_argument("--json", action="store_true",
                    help="dump the report to stdout instead of the summary")
    args = ap.parse_args(argv)

    try:
        if args.points_file is not None:
            if args.axis:
                raise CampaignError(
                    "--points-file and --axis are mutually exclusive")
            try:
                points = json.loads(args.points_file.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise CampaignError(
                    f"cannot read --points-file {args.points_file}: "
                    f"{exc}") from exc
            space = ParamSpace.explicit(points)
        elif args.axis:
            axes = dict(parse_axis(spec) for spec in args.axis)
            space = ParamSpace(axes)
        else:
            ap.error("declare a space with --axis or --points-file")
        campaign = Campaign(
            space,
            name=args.name,
            workers=args.campaign_workers,
            waves=args.waves,
            refine_per_wave=args.refine,
            restart_events=args.restart_events,
        )
        report = campaign.run()
    except Fem2Error as exc:
        print(f"campaign failed: {exc}", file=sys.stderr)
        return 2

    if args.out is not None:
        args.out.write_text(report.to_json() + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.json:
        print(report.to_json())
    else:
        print(summary_table(report))
        print(f"host seconds: {campaign.host_seconds:.2f} "
              f"(volatile; not part of the report)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
