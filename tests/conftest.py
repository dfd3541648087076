import json
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


@pytest.fixture
def cli_modules(fresh_python):
    """Run CLI argv lists in order in one fresh interpreter, each required to
    exit 0, and return the sorted names of the modules loaded afterwards."""

    def run(argvs):
        script = (
            "import json, sys, privconn.cli\n"
            f"for argv in {argvs!r}:\n"
            "    code = privconn.cli.main(argv)\n"
            "    assert code == 0, (argv, code)\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        proc = fresh_python(script)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    return run
