"""``git_sha`` stamps the checkout that holds the program."""

import subprocess
from pathlib import Path

import pytest

from repro.obs import export

ROOT = Path(__file__).resolve().parent.parent.parent


def _head(cwd) -> str:
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True, text=True
    )
    return out.stdout.strip() if out.returncode == 0 else ""


@pytest.fixture
def fresh_cache(monkeypatch):
    monkeypatch.setattr(export, "_git_sha_cache", {})


def test_default_is_the_programs_checkout_not_the_cwd(
    tmp_path, monkeypatch, fresh_cache
):
    head = _head(ROOT)
    if not head:
        pytest.skip("the tests are not running from a git checkout")
    monkeypatch.chdir(tmp_path)
    assert export.git_sha() == head


def test_explicit_cwd_overrides(tmp_path, fresh_cache):
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], cwd=tmp_path, check=True)
    subprocess.run(
        git + ["commit", "-q", "--allow-empty", "-m", "x"], cwd=tmp_path, check=True
    )
    assert export.git_sha(cwd=str(tmp_path)) == _head(tmp_path) != ""
    assert export.git_sha(cwd=str(tmp_path / "missing")) == "unknown"
