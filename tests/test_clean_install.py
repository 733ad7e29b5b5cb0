"""``repro`` must work with only its declared dependencies installed.

A subprocess blocks every installed third-party module that
``pyproject.toml`` does not declare (``sys.modules[name] = None`` makes
its import raise ``ImportError``), then imports every ``repro`` module
and runs ``python -m repro.service --help``.
"""

from __future__ import annotations

import importlib.metadata
import os
import pkgutil
import re
import site
import subprocess
import sys
import sysconfig
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def declared_modules() -> set:
    """Import names of the project and its declared dependencies."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S).group(1)
    names = re.findall(r"[\"']([A-Za-z0-9_.-]+)", block)
    return {"repro"} | {name.lower().replace("-", "_") for name in names}


def undeclared_third_party_modules() -> list:
    """Top-level modules installed outside the standard library and not declared."""
    site_dirs = set(site.getsitepackages()) | {site.getusersitepackages()}
    site_dirs |= {sysconfig.get_paths()[key] for key in ("purelib", "platlib")}
    names = {module.name for module in pkgutil.iter_modules(sorted(site_dirs))}
    for dist in importlib.metadata.distributions():
        names.update((dist.read_text("top_level.txt") or "").split())
    declared = declared_modules()
    return sorted(
        name for name in names
        if name not in declared and not name.startswith("__editable__")
    )


CHECK = """
import pkgutil, runpy, sys
for name in {blocked!r}:
    sys.modules[name] = None
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not module.name.endswith(".__main__"):
        __import__(module.name)
sys.argv = ["repro.service", "--help"]
runpy.run_module("repro.service", run_name="__main__", alter_sys=True)
"""


def test_imports_and_service_cli_without_undeclared_modules():
    blocked = undeclared_third_party_modules()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", CHECK.format(blocked=blocked)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "usage: python -m repro.service" in result.stdout


def test_block_list_covers_test_only_modules():
    blocked = undeclared_third_party_modules()
    assert "pytest" in blocked
    assert "numpy" not in blocked
