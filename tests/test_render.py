import math
import xml.etree.ElementTree as ET

import numpy as np

from elgamalmap.permstat import family_cycle_types
from elgamalmap.render import cycle_diagram_svg

SVG_NS = "{http://www.w3.org/2000/svg}"


def _circles(svg_text):
    root = ET.fromstring(svg_text)
    return root.findall(f"{SVG_NS}circle")


def test_one_circle_per_cycle_small():
    _, length, count = family_cycle_types(3, [2])
    svg = cycle_diagram_svg(np.repeat(length, count).tolist())
    assert len(_circles(svg)) == 1


def test_radius_ratio_matches_cycle_lengths():
    circles = _circles(cycle_diagram_svg((3, 1)))
    radii = sorted(float(c.get("r")) for c in circles)
    assert len(radii) == 2
    assert radii[1] / radii[0] == 3.0  # lengths {3, 1}


def test_circle_count_at_1009():
    _, length, count = family_cycle_types(1009, [11])
    svg = cycle_diagram_svg(np.repeat(length, count).tolist())
    assert len(_circles(svg)) == count.sum()
    assert 'version="1.1"' in svg


def test_circles_do_not_overlap():
    circles = _circles(cycle_diagram_svg((20, 15, 10, 7, 5, 1, 1, 1)))
    geoms = [
        (float(c.get("cx")), float(c.get("cy")), float(c.get("r"))) for c in circles
    ]
    for i in range(len(geoms)):
        for j in range(i + 1, len(geoms)):
            x1, y1, r1 = geoms[i]
            x2, y2, r2 = geoms[j]
            assert math.hypot(x1 - x2, y1 - y2) >= r1 + r2


def test_rendering_is_deterministic():
    assert cycle_diagram_svg((4, 3, 2, 1)) == cycle_diagram_svg((4, 3, 2, 1))


def test_layout_sorts_longest_first():
    assert cycle_diagram_svg([1, 3, 2, 4]) == cycle_diagram_svg((4, 3, 2, 1))


def test_circles_stay_inside_canvas():
    svg = cycle_diagram_svg([30, 25, 20] + [1] * 25)
    root = ET.fromstring(svg)
    width = float(root.get("width"))
    height = float(root.get("height"))
    for c in _circles(svg):
        cx, cy, r = (float(c.get(a)) for a in ("cx", "cy", "r"))
        assert r <= cx <= width - r
        assert r <= cy <= height - r
