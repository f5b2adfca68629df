"""Pure helpers of the end-to-end benchmark: inputs made from the seed, the
percentile rule, and the per-answer checks. Nothing here starts a process
or touches a socket, so test_harness.py exercises all of it directly.
"""
import math
import random

# ---------------------------------------------------------------------------
# Inputs

# Request classes of both serve workloads: (topology, nodes, collective).
# Each class costs a fixed set of cold θ solves at warm-up, which every run
# pays three times. Alltoall on bidir-ring 64, and any auto collective on
# the 64-node torus or hypercube, costs 1.4-14 s of cold θ (Release build,
# 4 vCPUs), so those classes are left out and the warm-up stays near 1 s.
# The order is the warm-up order: the dearest θ first, so the two warm-up
# connections finish together.
SERVE_CLASSES = (
    ("bidir-ring", 32, "alltoall:auto"),
    ("bidir-ring", 64, "allreduce:auto"),
    ("hypercube", 32, "allreduce:auto"),
    ("torus", 32, "allreduce:auto"),
    ("torus", 48, "allreduce:auto"),
    ("bidir-ring", 32, "allreduce:auto"),
    ("ring", 64, "allreduce:auto"),
    ("ring", 64, "alltoall:auto"),
    ("ring", 32, "allreduce:auto"),
    ("ring", 32, "alltoall:auto"),
)

# serve-hit: keys per class. 10 x 24 = 240 keys, well under the daemon's
# 1024-entry plan memo, so every measured request is a memo read.
HIT_SIZES_PER_CLASS = 24
# serve-hit cycles through this many seed-shuffled passes over the keys.
HIT_PASSES = 16

# Sizes are drawn log-uniformly above the 4 KiB threshold below which
# algo=auto takes its zero-solve fallback (every request must run the
# candidate sweep).
MIN_SIZE = 8 * 1024
MAX_SIZE = 256 * 1024 * 1024

# sweep-cold: GK fabrics only (a directed ring's θ is closed-form).
SWEEP_TOPOLOGIES = ("torus", "hypercube", "bidir-ring")
SWEEP_COLLECTIVES = ("allreduce:auto", "alltoall:auto", "allgather")


def _rng(workload, seed):
    # A str seed goes through SHA-512, so the stream is the same in every
    # Python process (unlike hash()-based seeding).
    return random.Random(f"perfbench/{workload}/{seed}")


def _log_uniform(rng, lo, hi):
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def plan_line(rid, topology, nodes, collective, size):
    """One protocol line. Everything after the id is the daemon's memo key
    (the trace driver relies on this layout to find it)."""
    return (f'{{"op":"plan","id":"{rid}","topology":"{topology}",'
            f'"nodes":{nodes},"collective":"{collective}",'
            f'"message_bytes":{size}}}\n').encode()


def serve_hit_inputs(seed):
    """Returns (warm, lines, key_of): the warm-up lines answering each key
    once (one per class first, so the θ warm-up is ordered), the measured
    lines (passes over the keys, each in a seed-shuffled order), and for
    each measured line the index of its warm-up line."""
    rng = _rng("serve-hit", seed)
    keys = []
    for topology, nodes, coll in SERVE_CLASSES:
        sizes = set()
        while len(sizes) < HIT_SIZES_PER_CLASS:
            sizes.add(_log_uniform(rng, MIN_SIZE, MAX_SIZE))
        keys.append([(topology, nodes, coll, s) for s in sorted(sizes)])
    # Warm-up: first key of every class (θ), then the rest (memo).
    ordered = [k[0] for k in keys] + [x for k in keys for x in k[1:]]
    warm = [plan_line(f"w{i}", *k) for i, k in enumerate(ordered)]
    lines, key_of = [], []
    for _ in range(HIT_PASSES):
        perm = list(range(len(ordered)))
        rng.shuffle(perm)
        for k in perm:
            lines.append(plan_line(len(lines), *ordered[k]))
            key_of.append(k)
    return warm, lines, key_of


def serve_plan_inputs(seed, count):
    """Returns (warm, lines): one warm-up line per class (fills the θ cache
    for every fabric and collective), then `count` measured lines, each a
    never-seen solve key — passes over the classes in seed-shuffled order,
    each with a fresh size."""
    rng = _rng("serve-plan", seed)
    used = {c: set() for c in SERVE_CLASSES}

    def fresh(c):
        while True:
            s = _log_uniform(rng, MIN_SIZE, MAX_SIZE)
            if s not in used[c]:
                used[c].add(s)
                return s

    warm = [plan_line(f"w{i}", *c, fresh(c)) for i, c in enumerate(SERVE_CLASSES)]
    lines = []
    while len(lines) < count:
        perm = list(SERVE_CLASSES)
        rng.shuffle(perm)
        for c in perm:
            if len(lines) < count:
                lines.append(plan_line(len(lines), *c, fresh(c)))
    return warm, lines


def sweep_specs(seed):
    """The two psd_sweep grid specs of one sweep-cold request: n = 16 with
    a churn axis (drops = 0, 1, the fault stream seeded by `seed`) and n = 32
    without churn (faults at n = 32 would bury everything else in replans).
    One size and one α_r are drawn from each of two fixed strata, so every
    seed has the same classes."""
    rng = _rng("sweep-cold", seed)
    small = _log_uniform(rng, 256 * 1024, 4 * 1024 * 1024)
    large = _log_uniform(rng, 16 * 1024 * 1024, 256 * 1024 * 1024)
    fast = _log_uniform(rng, 500, 5000)
    slow = _log_uniform(rng, 10000, 50000)
    common = [
        f"topology = {', '.join(SWEEP_TOPOLOGIES)}",
        f"collective = {', '.join(SWEEP_COLLECTIVES)}",
        f"size = {small}, {large}",
        f"alpha_r_ns = {fast}, {slow}",
    ]
    n16 = ["nodes = 16"] + common + ["drops = 0, 1", f"seed = {seed}"]
    n32 = ["nodes = 32"] + common
    return {"n16": "\n".join(n16) + "\n", "n32": "\n".join(n32) + "\n"}


# ---------------------------------------------------------------------------
# Percentiles

PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def _rank(p, n):
    # The epsilon keeps float error from pushing an exact rank up one
    # (99.9 / 100 * 10000 is 9990.000000000002).
    return min(max(math.ceil(p / 100.0 * n - 1e-9), 1), n)


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list: the value at rank
    ceil(p/100 * n). Returns (value, samples strictly beyond that rank)."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    rank = _rank(p, n)
    return sorted_values[rank - 1], n - rank


def highest_supported_percentile(n, ladder=PERCENTILE_LADDER, min_beyond=MIN_BEYOND):
    """The highest ladder percentile with at least `min_beyond` of `n`
    samples beyond it, or None when even the median lacks them."""
    best = None
    for p in ladder:
        if n and n - _rank(p, n) >= min_beyond:
            best = p
    return best


def window_stats(marks, done_ns, latency_ns):
    """Splits a closed-loop phase at its window marks ((time ns, CPU s)
    pairs) into windows (t0, t1]. Each window: answers received in it, its
    wall and CPU seconds, and its latencies in ms, ascending."""
    out, j, n = [], 0, len(done_ns)
    for (t0, c0), (t1, c1) in zip(marks, marks[1:]):
        lat = []
        while j < n and done_ns[j] <= t1:
            if done_ns[j] > t0:
                lat.append(latency_ns[j] / 1e6)
            j += 1
        lat.sort()
        out.append({"answers": len(lat), "wall_s": (t1 - t0) / 1e9,
                    "cpu_s": c1 - c0, "lat_ms": lat})
    return out


# ---------------------------------------------------------------------------
# Answer checks

REL_TOL = 1e-9


def check_fresh(resp, rid):
    """Checks a serve-plan answer (a parsed response object): OK, solved
    now rather than read from the memo or another request's solve, and the
    plan's invariants — the Eq. 7 optimum no slower than any baseline, its
    pipelined price no slower than the optimum. Returns None or an error."""
    if resp.get("id") != rid:
        return f"id {resp.get('id')!r} != {rid!r}"
    if resp.get("code") != "OK":
        return f"code {resp.get('code')}: {resp.get('error', '')}"
    for k in ("cached", "coalesced", "degraded"):
        if resp.get(k) is not False:
            return f"{k} is {resp.get(k)!r} on a fresh solve"
    if not (isinstance(resp.get("steps"), int) and resp["steps"] > 0):
        return f"steps {resp.get('steps')!r}"
    opt = resp.get("optimal_ns")
    if not (isinstance(opt, (int, float)) and opt > 0):
        return f"optimal_ns {opt!r}"
    for k in ("static_ns", "naive_bvn_ns", "greedy_ns"):
        if resp.get(k, -1) < opt * (1 - REL_TOL):
            return f"{k}={resp.get(k)} < optimal_ns={opt}"
    if not 0 < resp.get("pipelined_ns", -1) <= opt * (1 + REL_TOL):
        return f"pipelined_ns={resp.get('pipelined_ns')} not in (0, {opt}]"
    if not resp.get("chosen_algo"):
        return "auto request without chosen_algo"
    return None


def hit_body(warm_response):
    """What every memo hit of a key must carry, byte for byte: the warm-up
    answer's fields from "code" up to the timing, with cached now true."""
    body = _body(warm_response)
    if body is None or b'"code":"OK"' not in body:
        raise ValueError(f"warm-up answer is not OK: {warm_response[:200]!r}")
    return body.replace(b'"cached":false', b'"cached":true', 1)


def _body(line):
    i = line.find(b'"code"')
    j = line.rfind(b',"plan_latency_ms":')
    return line[i:j] if 0 <= i < j else None


def check_hit_line(line, rid, expected_body):
    """Checks one serve-hit response line against its key's warm-up answer.
    Returns the answer's plan_latency_ms, or None when the line is not that
    exact memo hit (wrong id, non-OK code, or any number differing)."""
    if not line.startswith(b'{"id":"%d",' % rid):
        return None
    j = line.rfind(b',"plan_latency_ms":')
    if j < 0 or line[line.find(b'"code"'):j] != expected_body:
        return None
    return float(line[j + 19:-1])
