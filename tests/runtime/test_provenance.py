"""Provenance stamps: ``git_revision`` names the commit, and marks a
tree with uncommitted changes to tracked files ``-dirty``."""

import subprocess

import pytest

from repro.runtime import provenance


def fake_git(answers):
    """A ``subprocess.run`` stand-in that answers by git subcommand:
    a string is stdout with exit 0, an exception is raised, and a
    missing subcommand fails the way git does outside a checkout."""
    calls = []

    def run(argv, **kwargs):
        calls.append(argv)
        subcommand = next(arg for arg in argv[1:] if not arg.startswith("-"))
        answer = answers.get(subcommand)
        if isinstance(answer, BaseException):
            raise answer
        if answer is None:
            return subprocess.CompletedProcess(argv, 128, "", "fatal: not a git repository")
        return subprocess.CompletedProcess(argv, 0, answer, "")

    return run, calls


@pytest.fixture(autouse=True)
def fresh_revision():
    provenance.git_revision.cache_clear()
    yield
    provenance.git_revision.cache_clear()


class TestGitRevision:
    def test_clean_tree(self, monkeypatch):
        run, calls = fake_git({"rev-parse": "abc1234\n", "status": ""})
        monkeypatch.setattr(provenance.subprocess, "run", run)
        assert provenance.git_revision() == "abc1234"
        # asking for the status must not take git's optional index lock
        assert calls[1] == [
            "git", "--no-optional-locks", "status", "--porcelain", "--untracked-files=no",
        ]

    def test_dirty_tree(self, monkeypatch):
        run, calls = fake_git(
            {"rev-parse": "abc1234\n", "status": " M src/repro/cli.py\n"}
        )
        monkeypatch.setattr(provenance.subprocess, "run", run)
        assert provenance.git_revision() == "abc1234-dirty"
        assert provenance.git_revision() == "abc1234-dirty"
        assert len(calls) == 2  # once per process, not once per artifact

    @pytest.mark.parametrize(
        "answers",
        [{}, {"rev-parse": FileNotFoundError("git")}],
        ids=["not-a-checkout", "no-git-binary"],
    )
    def test_outside_git(self, monkeypatch, answers):
        run, calls = fake_git(dict(answers, status=" M x.py\n"))
        monkeypatch.setattr(provenance.subprocess, "run", run)
        assert provenance.git_revision() is None
        assert len(calls) == 1  # no status without a revision
