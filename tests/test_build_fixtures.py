import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures"


def test_build_fixtures_regenerates_the_committed_fixtures_byte_for_byte(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    # A relative --fixtures-dir outside the repository, as a user may pass it.
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "build_fixtures.py"), "--fixtures-dir", "out"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "wrote out/corpus.json" in result.stdout
    assert result.stdout.endswith("fixtures rebuilt\n")
    built = tmp_path / "out"
    names = sorted(p.relative_to(built) for p in built.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(FIXTURES) for p in FIXTURES.rglob("*") if p.is_file())
    for name in names:
        assert (built / name).read_bytes() == (FIXTURES / name).read_bytes(), name
