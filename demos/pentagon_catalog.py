"""Catalog of the equilateral pentagon's cyclic configurations.

The unit-length 5-gon linkage has exactly 14 configurations whose vertices
lie on a circle: the convex pentagon and its mirror, the two pentagrams, and
ten configurations with three consecutive edges folded onto one line.  This
script enumerates them, prints their combinatorial data and Morse indices,
and writes an SVG contact sheet next to this file.

Run:  python demos/pentagon_catalog.py
"""

from pathlib import Path

from linkmorse import Linkage, analyze_linkage, index_summary
from linkmorse.render import RenderItem, annotation, render_grid_svg


def main():
    linkage = Linkage([1, 1, 1, 1, 1])
    analyses = analyze_linkage(linkage)

    print("equilateral pentagon, unit edges")
    print(index_summary(analyses))
    print()
    header = f"{'orientations':>14} {'k':>3} {'radius':>10} {'area':>10} {'index':>5}  source"
    print(header)
    print("-" * len(header))
    for a in analyses:
        eps = "".join("+" if v > 0 else "-" for v in a.descriptor.eps.eps)
        print(f"{eps:>14} {a.descriptor.winding:>3} {a.descriptor.radius:>10.6f} "
              f"{a.area:>10.6f} {a.index:>5}  {a.index_source}")

    print()
    print("The convex pentagon is the global area maximum (index 2 = n-3), its")
    print("mirror the minimum (index 0).  The positively oriented pentagram is a")
    print("local minimum, the negatively oriented one a local maximum.  The ten")
    print("folded configurations all have index 1.  Their nested-subpolygon sign")
    print("sequence degenerates (a closing chord vanishes, or a subpolygon has")
    print("delta = 0), so it is refused; their index still comes from the closed")
    print("form e - 1 - 2k - [delta < 0] of the full polygon, whose checks pass.")

    items = [
        RenderItem(
            points=a.configuration.points,
            center=a.descriptor.center,
            radius=a.descriptor.radius,
            label=annotation(a.descriptor.eps.eps, a.descriptor.winding,
                             a.descriptor.radius, a.index, a.area),
        )
        for a in analyses
    ]
    out = Path(__file__).with_name("pentagon_catalog.svg")
    out.write_text(render_grid_svg(items))
    print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
