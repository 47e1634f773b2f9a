"""Command-line front end.

Subcommands: ``enumerate`` (find all cyclic configurations of a linkage),
``index`` (Morse data of one configuration), ``verify`` (replay an
enumeration artifact against the numerical oracle), ``deform`` (event log of
a fixed-circle deformation between two cyclic configurations), ``render``
(SVG drawings).  Exit codes: 0 success/agreement, 1 verification failure,
2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, render
from .deform import check_lemmas, deform as make_path, detect_events, vertex_angles
from .errors import LinkmorseError
from .geometry import (
    INPUT_TOL,
    CircleFit,
    Configuration,
    Linkage,
    edge_orientations,
    fit_circle,
    signed_area,
)
from .morse import closed_form


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise LinkmorseError(f"no such file: {path}")
    except json.JSONDecodeError as err:
        raise LinkmorseError(f"invalid JSON in {path}: {err}")


def cmd_enumerate(args) -> int:
    linkage = Linkage.from_json_dict(_read_json(args.input))
    analyses = analysis.analyze_linkage(linkage)
    envelope = analysis.enumeration_dict(linkage, analyses, seed=args.seed)
    text = analysis.dump_json(envelope)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    print(analysis.index_summary(analyses))
    return 0


def cmd_index(args) -> int:
    config = Configuration.from_json_dict(_read_json(args.input))
    fit = fit_circle(config.points, tol=INPUT_TOL)
    if fit is None:
        raise LinkmorseError("configuration is not cyclic at the fit tolerance")
    signs, report, error = closed_form(config, fit)
    if error is not None:
        raise LinkmorseError(error)
    payload = {
        "h_sequence": list(report.h_sequence),
        "index": report.index,
        "sign_report": signs.to_json_dict(),
    }
    text = analysis.dump_json(payload)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    path = Path(args.input)
    if not path.exists():
        raise LinkmorseError(f"no such file: {args.input}")
    linkage, records = analysis.load_enumeration(path.read_text())
    rows, summary, ok = analysis.verify_enumeration(linkage, records)
    for row in rows:
        print(json.dumps(row.to_json_dict(), sort_keys=False))
    print(summary)
    if not ok:
        bad = next(i for i, r in enumerate(rows) if not r.agree)
        print(f"verification failed at record {bad}: {rows[bad].note}", file=sys.stderr)
        return 1
    return 0


def cmd_deform(args) -> int:
    cfg_a = Configuration.from_json_dict(_read_json(args.start))
    cfg_b = Configuration.from_json_dict(_read_json(args.end))
    fit_a = fit_circle(cfg_a.points, tol=INPUT_TOL)
    fit_b = fit_circle(cfg_b.points, tol=INPUT_TOL)
    if fit_a is None or fit_b is None:
        raise LinkmorseError("both endpoint configurations must be cyclic")
    if cfg_a.n != cfg_b.n:
        raise LinkmorseError("endpoint configurations must share the vertex count")
    theta_a = vertex_angles(cfg_a, fit_a)
    theta_b = vertex_angles(cfg_b, fit_b)
    path = make_path(theta_a, theta_b, fit_a.radius, steps=args.frames)
    events = detect_events(path)
    report = check_lemmas(path, events)
    payload = [event.to_json_dict() for event in events]
    text = analysis.dump_json(payload)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    print(f"{len(events)} events, {len(report.violations)} transition violations")
    return 0 if report.ok else 1


def _render_items(data) -> list:
    if isinstance(data, dict) and "configurations" in data:
        source = data["configurations"]
        if not isinstance(source, list):
            raise LinkmorseError("'configurations' must be an array")
    elif isinstance(data, dict) and "points" in data:
        source = [data]
    else:
        raise LinkmorseError("render input must be an enumeration artifact or a configuration")
    items = []
    for rec in source:
        if not isinstance(rec, dict) or "points" not in rec:
            raise LinkmorseError("malformed record: expected an object with 'points'")
        config = Configuration(rec["points"])
        pts = config.points
        try:
            center = radius = None
            if "center" in rec and "r" in rec:
                center, radius = np.asarray(rec["center"], dtype=float).reshape(2), float(rec["r"])
            eps = rec.get("eps")
            if eps is not None:
                eps = [float(v) for v in eps]
            winding = int(rec.get("k", 0))
            area = float(rec["area"]) if "area" in rec else signed_area(pts)
        except (TypeError, ValueError) as err:
            raise LinkmorseError(f"malformed record: {type(err).__name__}: {err}") from err
        if center is None:
            fit = fit_circle(pts, tol=INPUT_TOL)
            if fit is None:
                raise LinkmorseError("configuration is not cyclic; cannot draw its circle")
            center, radius = fit.center, fit.radius
        if eps is None:
            eps = list(edge_orientations(pts, center).eps)
        _, report, _ = closed_form(config, CircleFit(center=center, radius=radius))
        idx = None if report is None else report.index
        label = render.annotation(eps, winding, radius, idx, area)
        items.append(render.RenderItem(points=pts, center=center, radius=radius, label=label))
    return items


def cmd_render(args) -> int:
    data = _read_json(args.input)
    items = _render_items(data)
    out = Path(args.output)
    if out.suffix.lower() == ".svg":
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(render.render_grid_svg(items))
        print(f"wrote {out}")
    else:
        out.mkdir(parents=True, exist_ok=True)
        for i, item in enumerate(items):
            (out / f"config_{i:03d}.svg").write_text(render.render_single_svg(item))
        (out / "grid.svg").write_text(render.render_grid_svg(items))
        print(f"wrote {len(items)} drawings and grid.svg to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkmorse",
        description="Cyclic configurations of planar linkages and signed-area Morse data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="enumerate all cyclic configurations")
    p_enum.add_argument("-i", "--input", required=True, help="linkage JSON file")
    p_enum.add_argument("-o", "--output", help="enumeration JSON output (stdout if omitted)")
    p_enum.add_argument("--seed", type=int, default=None,
                        help="recorded in the artifact for reproducibility")
    p_enum.set_defaults(func=cmd_enumerate)

    p_index = sub.add_parser("index", help="Morse data of one cyclic configuration")
    p_index.add_argument("-i", "--input", required=True, help="configuration JSON file")
    p_index.add_argument("-o", "--output", help="JSON output (stdout if omitted)")
    p_index.set_defaults(func=cmd_index)

    p_verify = sub.add_parser("verify", help="verify an enumeration artifact")
    p_verify.add_argument("-i", "--input", required=True, help="enumeration JSON file")
    p_verify.set_defaults(func=cmd_verify)

    p_deform = sub.add_parser("deform", help="event log of a fixed-circle deformation")
    p_deform.add_argument("-a", "--start", required=True, help="start configuration JSON")
    p_deform.add_argument("-b", "--end", required=True, help="end configuration JSON")
    p_deform.add_argument("-o", "--output", help="event-log JSON output (stdout if omitted)")
    p_deform.add_argument("--frames", type=int, default=2000)
    p_deform.set_defaults(func=cmd_deform)

    p_render = sub.add_parser("render", help="draw configurations as SVG")
    p_render.add_argument("-i", "--input", required=True,
                          help="enumeration artifact or configuration JSON")
    p_render.add_argument("-o", "--output", required=True,
                          help="output .svg file (grid) or directory (one file each)")
    p_render.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LinkmorseError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
