import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import telempose

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(PYPROJECT, "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_every_module_imports_without_scipy():
    # a fresh interpreter, so modules imported by other tests do not count
    src = str(Path(telempose.__file__).resolve().parents[1])
    code = (
        "import importlib, pkgutil, sys, telempose\n"
        "for m in pkgutil.iter_modules(telempose.__path__):\n"
        "    importlib.import_module('telempose.' + m.name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
