"""The files in fixtures/ are the one definition of the six test inputs.

Two of them are members of parametric families that the tests also take at
other sizes; conftest's builders must reproduce the checked-in members.
"""

import json

import pytest

from conftest import FIXTURE_DIR, cyclic_r3, line_points


@pytest.mark.parametrize("name, arr", [
    ("line-n5.json", line_points(5)),
    ("line-n10.json", line_points(10)),
    ("cyclic-r3-n7.json", cyclic_r3(7)),
], ids=["line-n5", "line-n10", "cyclic-r3-n7"])
def test_family_reproduces_its_fixture(name, arr):
    text = json.dumps(arr.to_json(), indent=2) + "\n"
    assert text == (FIXTURE_DIR / name).read_text()
