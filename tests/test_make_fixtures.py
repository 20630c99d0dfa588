from chamberforms import make_fixtures
from conftest import FIXTURE_DIR


def test_write_fixtures_reproduces_every_fixture(tmp_path):
    written = make_fixtures.write_fixtures(tmp_path)
    expected = sorted(FIXTURE_DIR.glob("*.json"))
    assert sorted(p.name for p in written) == [p.name for p in expected]
    for path in expected:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name
