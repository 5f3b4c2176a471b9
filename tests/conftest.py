import os
import pathlib
import subprocess
import sys

import pytest

try:
    from hypothesis import settings
except ImportError:  # only the property tests need it; they fail to collect
    pass
else:
    # HYPOTHESIS_PROFILE=thorough runs each property test on 2,000
    # examples; unset, hypothesis keeps its default profile
    settings.register_profile("thorough", max_examples=2000, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
GOLDEN = CORPUS / "golden"

CORPUS_NAMES = [
    "excluded_middle",
    "client_server_request",
    "client_server_dialogue",
    "cyclic",
    "channel_transmission",
]


@pytest.fixture(scope="session")
def corpus_dir() -> pathlib.Path:
    return CORPUS


@pytest.fixture(scope="session")
def golden_dir() -> pathlib.Path:
    return GOLDEN


def corpus_text(name: str) -> str:
    return (CORPUS / f"{name}.lamp").read_text(encoding="utf-8")


def run_python(*args, env_extra=None, timeout=None):
    """Run `python ARGS` from the checkout root.

    The child inherits the caller's environment with `LAMP_COLOR=0` and this
    checkout's `src` first on `PYTHONPATH`, so the tests exercise this tree's
    `lamp` whether or not a package is installed.  A child still running
    after `timeout` seconds is killed and the test errors.
    """
    env = dict(os.environ)
    env["LAMP_COLOR"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=timeout)


def run_cli(*args, env_extra=None, timeout=None):
    """Run `python -m lamp.cli ARGS` as run_python does."""
    return run_python("-m", "lamp.cli", *args, env_extra=env_extra, timeout=timeout)
