"""Closed-loop load generator for psd_serve, and the daemon's process
control.

One process, one thread: every connection has exactly one request
outstanding, and its next request leaves only when the answer is in, so a
slower daemon receives less load. Request lines are encoded before the
clock starts and the garbage collector is off while it runs, so the
generator's own cost stays small and flat; it reports its CPU share so a
run where it, not the daemon, is the bottleneck shows.
"""
import gc
import json
import os
import resource
import select
import socket
import subprocess
import time
from array import array

CONNECT_TIMEOUT_S = 30.0
IO_TIMEOUT_S = 60.0


def cpu_seconds_self():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def proc_cpu_seconds(pid):
    """User+sys CPU of a live process, all its threads, from /proc."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def pin_threads(pid, cpus):
    """Sets the CPU affinity of every thread of process `pid`; threads it
    starts later inherit it from their creator."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        os.sched_setaffinity(int(tid), cpus)


def proc_peak_rss_mib(pid):
    with open(f"/proc/{pid}/status") as f:
        for ln in f:
            if ln.startswith("VmHWM:"):
                return int(ln.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


class Daemon:
    """A psd_serve process on a Unix socket in `rundir`."""

    def __init__(self, binary, rundir, log_path):
        self.rundir = rundir
        self.sock_path = os.path.join(rundir, "psd.sock")
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        self.log = open(log_path, "ab")
        self.launched = time.perf_counter()
        # A relative socket path keeps it under the 108-byte sun_path limit
        # however deep the checkout is.
        self.proc = subprocess.Popen(
            [os.path.abspath(binary), "--socket", "psd.sock"], cwd=rundir,
            stdin=subprocess.DEVNULL, stdout=self.log, stderr=self.log)

    @property
    def pid(self):
        return self.proc.pid

    def connect(self, n):
        """Opens `n` connections once the daemon listens."""
        path = os.path.relpath(self.sock_path)
        deadline = time.perf_counter() + CONNECT_TIMEOUT_S
        conns = []
        while len(conns) < n:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            s.settimeout(IO_TIMEOUT_S)
            try:
                s.connect(path)
            except OSError:
                s.close()
                if self.proc.poll() is not None:
                    raise RuntimeError(f"psd_serve exited with {self.proc.returncode}")
                if time.perf_counter() > deadline:
                    raise TimeoutError("psd_serve did not start listening")
                time.sleep(0.002)
                continue
            conns.append(s)
        return conns

    def stop(self, conns=()):
        """Asks for a clean shutdown, then makes sure the process is gone."""
        try:
            if conns:
                conns[0].sendall(b'{"op":"shutdown","id":"bye"}\n')
                self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        for c in conns:
            c.close()
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def request(conn, obj):
    """One request/answer exchange on an idle connection."""
    conn.sendall((json.dumps(obj, separators=(",", ":")) + "\n").encode())
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = conn.recv(65536)
        if not chunk:
            raise ConnectionError("psd_serve closed the connection")
        buf += chunk
    return json.loads(buf)


def stats(conn):
    resp = request(conn, {"op": "stats", "id": "stats"})
    if resp.get("code") != "OK":
        raise RuntimeError(f"stats failed: {resp}")
    return resp["stats"]


class LoopResult:
    def __init__(self):
        self.latency_ns = array("q")   # send -> answer line received
        self.done_ns = array("q")      # when each answer was received
        self.marks = []                # (time ns, daemon CPU s) at window edges
        self.plan_ms = array("d")      # the answer's plan_latency_ms (nan: failed)
        self.sent = 0
        self.failed = 0
        self.failures = []             # first few failing lines
        self.wall_s = 0.0
        self.client_cpu_s = 0.0


def closed_loop(conns, lines, seconds, check, cycle=False, windows=1, cpu=None,
                on_window=None):
    """Drives `conns` in a closed loop over `lines` (encoded protocol lines,
    taken in order; wrapped around when `cycle`) for `seconds`, then waits
    for the outstanding answers. `check(index, line)` gets each answer line
    without its newline and returns the answer's plan_latency_ms, or None
    when the answer fails its check. The phase is cut into `windows` equal
    windows; at each edge (the first answer past it) `cpu()` is sampled
    into `marks`, so statistics can be taken per window, and then
    `on_window(k)` is called with the number k of the window starting."""
    res = LoopResult()
    n = len(lines)
    poller = select.poll()
    state = {}
    nxt = 0
    gc.collect()
    gc.disable()
    try:
        cpu0 = cpu_seconds_self()
        start = time.perf_counter_ns()
        end = start + int(seconds * 1e9)
        step = int(seconds * 1e9 / windows)
        edge = start + step
        res.marks.append((start, cpu() if cpu else 0.0))
        for c in conns:
            if nxt >= n and not cycle:
                break
            i = nxt % n
            nxt += 1
            st = [c, b"", i, time.perf_counter_ns()]
            state[c.fileno()] = st
            poller.register(c.fileno(), select.POLLIN)
            c.sendall(lines[i])
        active = len(state)
        lat, plan_ms, done = res.latency_ns, res.plan_ms, res.done_ns
        while active:
            events = poller.poll(IO_TIMEOUT_S * 1000)
            if not events:
                raise TimeoutError("no answer from psd_serve")
            for fd, _ in events:
                st = state[fd]
                chunk = st[0].recv(65536)
                t = time.perf_counter_ns()
                if not chunk:
                    raise ConnectionError("psd_serve closed the connection")
                buf = st[1] + chunk if st[1] else chunk
                nl = buf.find(b"\n")
                if nl < 0:
                    st[1] = buf
                    continue
                # One request outstanding: at most one line per connection.
                line, st[1] = buf[:nl], buf[nl + 1:]
                lat.append(t - st[3])
                done.append(t)
                if t >= edge and edge <= end:
                    res.marks.append((t, cpu() if cpu else 0.0))
                    edge += step
                    if on_window:
                        on_window(len(res.marks) - 1)
                pm = check(st[2], line)
                if pm is None:
                    res.failed += 1
                    if len(res.failures) < 5:
                        res.failures.append(line[:300].decode(errors="replace"))
                    pm = float("nan")
                plan_ms.append(pm)
                if t < end and (cycle or nxt < n):
                    i = nxt % n
                    nxt += 1
                    st[2] = i
                    st[3] = time.perf_counter_ns()
                    st[0].sendall(lines[i])
                else:
                    poller.unregister(fd)
                    active -= 1
        res.wall_s = (time.perf_counter_ns() - start) / 1e9
        res.client_cpu_s = cpu_seconds_self() - cpu0
    finally:
        gc.enable()
    res.sent = nxt
    return res
