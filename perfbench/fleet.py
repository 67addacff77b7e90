"""Program processes and the closed-loop wire client.

:class:`Program` starts one ``kanon serve`` / ``kanon route`` process
the way ``make serve`` / ``make route`` do (``python -m repro.cli``
with default options and ``--port 0``), learns its port from the
startup line on stderr, and reads its CPU time and peak RSS from
``/proc``.  With a trace file it starts the process through
``bootstrap.py`` instead, which wraps the program's layers in timers.

:class:`Client` is the load: one blocking socket speaking JSON lines,
one request in flight at a time.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

_LISTENING = re.compile(rb"listening on ([0-9.]+):(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: variables that would change the program's defaults
_SCRUBBED = ("REPRO_BACKEND", "REPRO_TRACE", "REPRO_SERVICE_FAULTS",
             "PYTHONHASHSEED", "PYTHONPATH")


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong output)."""


def program_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED}
    env["PYTHONPATH"] = str(root / "src")
    return env


class Program:
    """One running program process."""

    def __init__(self, root: Path, args: list[str], log: Path,
                 trace_file: Path | None = None):
        self.log = log
        self.trace_file = trace_file
        if trace_file is None:
            argv = [sys.executable, "-m", "repro.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "bootstrap.py"),
                    str(trace_file), *args]
        with open(log, "wb") as handle:
            self.proc = subprocess.Popen(
                argv, cwd=root, env=program_env(root),
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=handle,
            )
        self.address: tuple[str, int] | None = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_listening(self, timeout: float = 60.0) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.log.read_bytes())
            if match:
                self.address = (match.group(1).decode(), int(match.group(2)))
                return self.address
            if self.proc.poll() is not None:
                raise BenchError(
                    f"program exited with {self.proc.returncode} before "
                    f"listening: {self.log.read_text()[-2000:]}")
            time.sleep(0.001)
        raise BenchError(f"program did not listen within {timeout}s")

    def cpu_seconds(self) -> float:
        """User + system CPU of the process, all threads."""
        text = Path(f"/proc/{self.pid}/stat").read_text()
        fields = text[text.rindex(")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def mark(self, timeout: float = 10.0) -> Path:
        """Make a traced process write its counters so far; their path.

        The bootstrap answers SIGUSR1 by writing ``<trace file>.mark``;
        the timed loop's counters are the final ones minus these.
        """
        path = Path(f"{self.trace_file}.mark")
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while not path.exists():
            if time.monotonic() > deadline:
                raise BenchError("traced process did not write its mark")
            time.sleep(0.002)
        return path

    def stop(self, timeout: float = 15.0) -> None:
        """Wait for a requested shutdown; kill the process if it hangs."""
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            try:
                self.proc.wait(5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Client:
    """A closed-loop JSON-lines client on one connection."""

    def __init__(self, address: tuple[str, int], timeout: float = 120.0):
        self.sock = socket.create_connection(address, timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.next_id = 0

    def encode(self, request: dict) -> tuple[int, bytes]:
        """A request line with a fresh id (encode before timing)."""
        self.next_id += 1
        body = dict(request, id=self.next_id)
        return self.next_id, json.dumps(body).encode("utf-8") + b"\n"

    def exchange(self, line: bytes) -> bytes:
        """Send one request line and read one response line."""
        self.sock.sendall(line)
        raw = self.reader.readline()
        if not raw:
            raise ConnectionError("server closed the connection")
        return raw

    def call(self, request: dict) -> dict:
        ident, line = self.encode(request)
        response = json.loads(self.exchange(line))
        if response.get("id") != ident:
            raise BenchError(f"response id {response.get('id')!r} != {ident}")
        return response

    def close(self) -> None:
        self.reader.close()
        self.sock.close()
