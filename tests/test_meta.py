"""The version string names the package's own checkout, wherever the
command is started from."""

import shutil
import subprocess
from pathlib import Path

import pytest

import decaycent.meta as meta

PACKAGE_DIR = Path(meta.__file__).resolve().parent


def fresh_version_string():
    return meta.version_string.__wrapped__()


def test_version_string_ignores_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(PACKAGE_DIR)
    expected = fresh_version_string()
    assert expected.startswith(meta.VERSION)

    outside = tmp_path / "outside"
    outside.mkdir()
    monkeypatch.chdir(outside)
    assert fresh_version_string() == expected

    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    other = tmp_path / "other-repo"
    other.mkdir()
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    subprocess.run(git + ["init", "-q"], cwd=other, check=True)
    (other / "f.txt").write_text("x\n")
    subprocess.run(git + ["add", "f.txt"], cwd=other, check=True)
    subprocess.run(git + ["commit", "-q", "-m", "unrelated"], cwd=other, check=True)
    monkeypatch.chdir(other)
    assert fresh_version_string() == expected
