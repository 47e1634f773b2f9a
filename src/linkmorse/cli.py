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
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, render
from .deform import check_lemmas, deform as make_path, detect_events, vertex_angles
from .errors import LinkmorseError
from .geometry import (INPUT_TOL, CircleFit, Configuration, Linkage, _json_numbers, fit_circle,
                       signed_area)
from .morse import closed_form


def _read_json(path: str, parse=json.loads):
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise LinkmorseError(f"no such file: {path}")
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:
        raise LinkmorseError(f"invalid JSON in {path}: {err}")


def cmd_enumerate(args) -> int:
    linkage = Linkage.from_json_dict(_read_json(args.input))
    analyses = analysis.analyze_linkage(linkage)
    if args.output:
        with open(args.output, "w") as out:
            analysis.write_enumeration(out, linkage, analyses, seed=args.seed)
    else:
        analysis.write_enumeration(sys.stdout, linkage, analyses, seed=args.seed)
    print(analysis.index_summary(analyses))
    return 0


def cmd_index(args) -> int:
    config = Configuration.from_json_dict(_read_json(args.input))
    fit = fit_circle(config.points)
    if fit is None:
        raise LinkmorseError("configuration is not cyclic at the fit tolerance")
    form = closed_form(config, fit)
    if form.sign_errors is not None:
        raise LinkmorseError(form.sign_errors)
    payload = {
        "h_sequence": None if form.errors is not None else form.h_sequence.tolist(),
        "index": int(form.index),
        "sign_report": {"delta": float(form.delta), "d": 1 if form.delta > 0.0 else -1,
                        "e": int(form.positives), "h_sign": int(form.h_sign)},
    }
    text = analysis.dump_json(payload)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    linkage, records = _read_json(args.input, analysis.load_enumeration)
    table, summary, ok = analysis.verify_enumeration(linkage, records)
    analysis.write_verification(sys.stdout, table)
    print(summary)
    if not ok:
        bad = int(table.agree.argmin())
        print(f"verification failed at record {bad}: {table.note[bad]}", file=sys.stderr)
        return 1
    return 0


def cmd_deform(args) -> int:
    cfg_a = Configuration.from_json_dict(_read_json(args.start))
    cfg_b = Configuration.from_json_dict(_read_json(args.end))
    fit_a = fit_circle(cfg_a.points)
    fit_b = fit_circle(cfg_b.points)
    if fit_a is None or fit_b is None:
        raise LinkmorseError("both endpoint configurations must be cyclic")
    if cfg_a.n != cfg_b.n:
        raise LinkmorseError("endpoint configurations must share the vertex count")
    if abs(fit_a.radius - fit_b.radius) > INPUT_TOL * max(fit_a.radius, fit_b.radius):
        raise LinkmorseError(f"endpoint configurations lie on circles of radii {fit_a.radius:.6g} "
                             f"and {fit_b.radius:.6g}; a fixed-circle path needs one circle")
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
    for j, rec in enumerate(source):
        if not isinstance(rec, dict) or "points" not in rec:
            raise LinkmorseError("malformed record: expected an object with 'points'")
        config = Configuration.from_json_dict(rec)
        pts = config.points
        try:
            fit = None
            if "center" in rec and "r" in rec:
                center, radius = np.asarray(rec["center"], dtype=float).reshape(2), float(rec["r"])
                _json_numbers(rec["center"], "center")
                _json_numbers([rec["r"]], "r")
                if not (np.isfinite(center).all() and 0.0 < radius < math.inf):
                    raise ValueError("center must be finite and r finite and positive")
                fit = CircleFit(center=center, radius=radius)
            eps = None if rec.get("eps") is None else analysis._json_eps(rec["eps"])
            winding = None if "k" not in rec else analysis._json_winding(rec["k"])
            area = float(rec["area"]) if "area" in rec else signed_area(pts)
            if "area" in rec:
                _json_numbers([rec["area"]], "area")
        except (OverflowError, TypeError, ValueError) as err:
            raise LinkmorseError(f"malformed record: {type(err).__name__}: {err}") from err
        if fit is None:
            fit = fit_circle(pts)
            if fit is None:
                raise LinkmorseError("configuration is not cyclic; cannot draw its circle")
        # the label is the measured string and winding; recorded ones must match
        form = closed_form(config, fit)
        measured, k = tuple(form.eps.tolist()), int(form.k)
        if form.central is not None:
            # an edge through the center leaves no string to measure: only a
            # recorded one can be drawn
            if eps is None:
                raise LinkmorseError(form.sign_errors)
            k = 0 if winding is None else winding
        elif eps not in (None, measured):
            raise LinkmorseError(f"record {j}: recorded orientation string disagrees with the "
                                 "geometry")
        elif winding not in (None, k):
            raise LinkmorseError(f"record {j}: recorded winding {winding} disagrees with the "
                                 f"geometry (winding {k})")
        idx = None if form.sign_errors is not None else int(form.index)
        label = render.annotation(eps or measured, k, fit.radius, idx, area)
        items.append(render.RenderItem(points=pts, center=fit.center, radius=fit.radius,
                                       label=label))
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: each ``parse_args`` returns a fresh
    namespace with its own defaults, so calls of :func:`main` share it."""
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LinkmorseError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
