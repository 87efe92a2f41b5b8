import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_showcase_prints_both_tables():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "showcase.py"), "--depth", "6"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "=== x^3 + x^2 - 2x - 1 (root 3), discriminant 49 ===" in out
    assert "=== x^3 - 2 (root 1), discriminant -108 ===" in out
    assert out.count("q^2|s1-s2|") == 2  # one table header per headline cubic
    assert out.count("limit target:") == 2
