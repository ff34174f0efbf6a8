"""The benchmark's span recorder (bench/tracing.py) rebinds library
functions by name.  A traced CLI child imports only ``formalconn.cli``
before it installs the recorder, so every target must be reachable from
that import alone; a renamed or deleted target makes the traced child
exit 1 before it runs a command."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

CHILD = """
import sys
import formalconn.cli
sys.path.insert(0, {bench!r})
from tracing import Recorder
rec = Recorder()
rec.install()
rec.uninstall()
"""


def test_recorder_installs_after_cli_import_alone():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    script = CHILD.format(bench=os.path.join(ROOT, "bench"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
