"""The HTTP client speaks through ``repro.server.protocol``, not the stdlib's.

``http.client`` pulls in the ``email`` package's header parser, which costs
more per response than a partition scan; neither the client, the
coordinator's shard transport nor ``python -m repro.obs.top`` (which polls
through the client) may bring it back.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_client_and_shard_transport_import_no_http_client():
    script = ("import sys, repro.workloads, repro.coordinator.transport, repro.obs.top; "
              "print(sorted(name for name in ('http.client', 'email') "
              "if name in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.strip() == "[]"
