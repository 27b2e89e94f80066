"""Shared by the test modules: the environment of a child interpreter."""

import os
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env():
    """os.environ with src/ first on PYTHONPATH, so a child `python`
    imports the package from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env
