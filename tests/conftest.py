import os
import subprocess
import sys

import pytest

# make the oracles module importable regardless of invocation directory
sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def fresh_python():
    """Run a script in a fresh interpreter that imports privconn from src/."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(script):
        return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)

    return run
