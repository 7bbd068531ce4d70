"""SVG line charts: pinned bytes on fixed inputs, and the rejected inputs."""

import hashlib
import math

import pytest

from radpfd.svg import line_chart

# sha256 of line_chart(series, labels, title) for each input
PINNED = {
    "two series crossing zero": (
        [
            [(n, (n - 20) * 0.37 * (-1) ** n) for n in range(1, 41)],
            [(n, 0.25 * n - 4) for n in range(1, 41)],
        ],
        ["exact", "asymptotic"],
        "C(N, 1) and a line",
        "30152b95ac9d734c6e1bfefdef98fdb8fa7a69551dd5e97dd5a2f6b7db88e305",
    ),
    "one series": (
        [[(x, x * x / 7) for x in range(10)]],
        ["y"],
        "squares",
        "a520f0f134e12f167c8ebee2a83bbed50adb705113ec995c8a4f5509a689992c",
    ),
    "non-finite y": (
        [[(1, 1.0), (2, math.nan), (3, math.inf), (4, -2.5), (5, 0.125)], [(1, math.nan)]],
        ["finite", "none"],
        "gaps",
        "34e496eaf5a8106f0b485c4d4b1fd17273c8f8c060805b757e38d90f9afa2cb5",
    ),
    "flat y": (
        [[(x, 3.0) for x in range(80, 151)]],
        ["flat"],
        "flat",
        "3484825c6b8f45e9725cdb1439f909894388de22a988ed81e70fd97381a3bd1b",
    ),
    "one point": (
        [[(5, 0.0)]],
        ["zero"],
        "point",
        "b19639a99ceef278c7d83892fb3d011fc1698ad4e34fa9e961b4e62f36a1564c",
    ),
}


@pytest.mark.parametrize("name", PINNED)
def test_bytes_are_pinned(name):
    series, labels, title, digest = PINNED[name]
    assert hashlib.sha256(line_chart(series, labels, title).encode()).hexdigest() == digest


@pytest.mark.parametrize("series", [[], [[(0, 1.0)]] * 3])
def test_rejects_other_than_one_or_two_series(series):
    with pytest.raises(ValueError, match="expected one or two series"):
        line_chart(series, ["a"] * len(series), "t")


def test_rejects_a_label_count_unlike_the_series_count():
    with pytest.raises(ValueError, match="one label per series"):
        line_chart([[(0, 1.0)]], ["a", "b"], "t")


def test_rejects_series_without_a_finite_point():
    with pytest.raises(ValueError, match="no finite data points"):
        line_chart([[(0, math.nan)], [(1, -math.inf)]], ["a", "b"], "t")
