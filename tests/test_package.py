"""The package namespace: what it re-exports, and the README's import."""

import re
from pathlib import Path

import pytest

import radpfd
from radpfd import contour, exact, report, saddle, specfun

LAYERS = (exact, specfun, saddle, contour, report)


def test_surface_is_the_union_of_the_layer_surfaces():
    union = {"__version__"}.union(*(layer.__all__ for layer in LAYERS))
    assert set(radpfd.__all__) == union
    assert len(radpfd.__all__) == len(union)


@pytest.mark.parametrize(
    "layer, name",
    [(layer, name) for layer in LAYERS for name in layer.__all__],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_name_is_the_layer_object(layer, name):
    assert getattr(radpfd, name) is getattr(layer, name)


def test_readme_import_block_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```python\n(from radpfd import \(.*?\n\))\n", readme, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    names = re.findall(r"^\s+(\w+),", block, re.M)
    assert names and all(namespace[name] is getattr(radpfd, name) for name in names)
