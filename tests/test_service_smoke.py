"""End-to-end service smoke: serve, checkpoint over the wire, SIGKILL
the server, resume the checkpoint in a fresh process, and verify the
resumed run's report is bit-identical to an uninterrupted run.

This is the CI "service smoke" job's test: everything goes through the
CLI (`repro serve` / `repro checkpoint` / `repro resume`) in separate
processes, so it also proves checkpoints survive process death — the
whole point of having them.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.service import ServiceClient, read_checkpoint_header

pytestmark = pytest.mark.service

SHELL = "K1"
CITIES = 10
HORIZON_S = 8.0
SERVE_ARGS = ["--cities", str(CITIES), "--horizon", str(HORIZON_S)]


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _repro(*args: str) -> subprocess.CompletedProcess:
    result = subprocess.run([sys.executable, "-m", "repro", *args],
                            env=_env(), capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, \
        f"repro {' '.join(args)} failed:\n{result.stderr}"
    return result


def _deterministic(report_path) -> str:
    """A report JSON file, canonicalized for cross-process comparison."""
    with open(report_path, "r", encoding="utf-8") as stream:
        payload = json.load(stream)
    payload.pop("phases", None)
    return json.dumps(payload, sort_keys=True)


def test_checkpoint_survives_sigkill(tmp_path):
    workload = tmp_path / "workload.json"
    _repro("traffic", "-o", str(workload), "--cities", str(CITIES),
           "--duration", str(HORIZON_S), "--total-mbps", "20",
           "--seed", "3")

    # Uninterrupted baseline: a t=0 checkpoint resumed to the horizon.
    base_ckpt = tmp_path / "base.ckpt"
    base_report = tmp_path / "base.json"
    _repro("checkpoint", SHELL, "--workload", str(workload), *SERVE_ARGS,
           "-o", str(base_ckpt))
    _repro("resume", str(base_ckpt), "-o", str(base_report))

    # Live server: advance mid-run, checkpoint over the wire, SIGKILL.
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", SHELL,
         "--workload", str(workload), *SERVE_ARGS, "--port", "0"],
        env=_env(), stdout=subprocess.PIPE, text=True)
    live_ckpt = tmp_path / "live.ckpt"
    try:
        port = None
        deadline = time.monotonic() + 120.0
        assert server.stdout is not None
        while time.monotonic() < deadline:
            line = server.stdout.readline()
            if not line:
                break
            match = re.search(r"on 127\.0\.0\.1:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        assert port is not None, "server never reported its port"
        with ServiceClient("127.0.0.1", port, timeout_s=120.0) as client:
            client.advance(4)
            header = client.checkpoint(str(live_ckpt))
        assert header["time_s"] == 4.0
    finally:
        server.kill()  # SIGKILL: no cleanup, no atexit, no flushing
        server.wait(timeout=30)
    assert server.returncode == -signal.SIGKILL

    # The checkpoint outlives the dead server and resumes elsewhere.
    header = read_checkpoint_header(str(live_ckpt))
    assert header["engine"] == "packet"
    assert header["time_s"] == 4.0
    resumed_report = tmp_path / "resumed.json"
    _repro("resume", str(live_ckpt), "-o", str(resumed_report))

    assert _deterministic(resumed_report) == _deterministic(base_report)
