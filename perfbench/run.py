#!/usr/bin/env python3
"""End-to-end benchmark of default-options run_job (see README.md).

  python3 perfbench/run.py --workload adders|mcnc|service --seed N \\
      --seconds S --trace 0|1
  python3 perfbench/run.py --regenerate

Builds the kms libraries, kmsd, kmsproof and the in-process driver from
the sources beside this directory (into $CARGO_TARGET_DIR, default
.bench_build), runs one workload for about S seconds in whole rounds,
checks every result with check.py and prints one JSON line last:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
--regenerate rewrites perfbench/inputs/ from src/gen instead.
"""

import argparse
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
import check  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
INPUTS = os.path.join(HERE, "inputs")
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
KMSBENCH = os.path.join(BUILD, "kmsbench")
KMSD = os.path.join(BUILD, "tools", "kmsd")
KMSPROOF = os.path.join(BUILD, "tools", "kmsproof")

WORKLOADS = {
    "adders": ["csa_2_2", "csa_4_4", "csa_8_2", "csa_8_4", "csa_16_4",
               "csa_8_2_x2"],
    "mcnc": ["s5xp1", "sclip", "sduke2", "sf51m", "smisex1", "smisex2",
             "srd73", "ssao2", "sz4ml"],
    "service": ["csa_8_4", "csa_8_2", "sclip", "sf51m", "srd73"],
}
# Circuit on which a traced in-process workload also measures the
# service layers (proof capture/verify, durable writes, one-shot jobs,
# daemon overhead and cache).
PROBE = {"adders": "csa_8_2", "mcnc": "sclip"}
# setup_s is the fastest of many cold set-ups, half taken before the
# timed stream and half after it: a few milliseconds that other work on
# a shared host easily stretches. wall_s and cpu_s are means per round,
# which average the host's speed over the whole run.
SETUP_REPS = 50  # cold set-ups before and again after the timed stream
TIMEOUT = 170            # hard cap on any one child process, seconds


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("kms sources not found at %s" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "ab") as out:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD], stdout=out,
                           stderr=out, check=True)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                        "kmsbench", "kmsd", "kmsproof"], stdout=out,
                       stderr=out, check=True)


def driver(*args, timeout=TIMEOUT):
    """Run kmsbench and return its last stdout line as JSON."""
    proc = subprocess.run([KMSBENCH] + [str(a) for a in args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=timeout, text=True)
    if proc.returncode != 0:
        raise BenchError("kmsbench %s failed: %s" % (args[0],
                                                     proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def blif_path(name):
    return os.path.join(INPUTS, name + ".blif")


def read_input(name):
    with open(blif_path(name)) as f:
        return f.read()


def median(values):
    return statistics.median(values)


# ------------------------------------------------------------ checking

def check_results(results, seed, audit=None):
    """results: (name, input text, report dict). Returns error strings.
    `audit(names_and_blifs)` runs audit jobs on results whose faults the
    checker's vectors missed and returns their reports by name; without
    it the caller audits every result itself."""
    errors, needs_audit = [], []
    for name, text, rep in results:
        if rep["exit_code"] != 0:
            continue  # counted in `failed`, not a wrong answer
        errs, missed = check.check_result(text, rep["output_blif"], rep,
                                          seed, name.startswith("csa"))
        errors += ["%s: %s" % (name, e) for e in errs]
        if missed:
            needs_audit.append((name, rep["output_blif"]))
    if needs_audit and audit:
        for name, rep in audit(needs_audit).items():
            if rep["exit_code"] != 0 or rep["redundant"] != 0 or \
                    rep["unknown"] != 0:
                errors.append("%s: audit of the result found %s redundant, "
                              "%s unknown" % (name, rep["redundant"],
                                              rep["unknown"]))
    return errors


def driver_audit(outdir):
    def audit(items):
        paths = []
        for name, blif in items:
            path = os.path.join(outdir, name + ".audit.blif")
            with open(path, "w") as f:
                f.write(blif)
            paths.append(path)
        return {r["name"][:-len(".audit")]: r for r in driver("audit", *paths)}
    return audit


def load_reports(outdir, names):
    out = []
    for n in names:
        with open(os.path.join(outdir, n + ".report.json")) as f:
            out.append((n, read_input(n), json.loads(f.read())))
    return out


# ------------------------------------------------------------ kmsd client

class Daemon:
    """A freshly started kmsd with one worker and one client connection."""

    def __init__(self, workdir):
        self.sock_path = os.path.relpath(os.path.join(workdir, "kmsd.sock"))
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        self.proc = subprocess.Popen(
            [KMSD, "--socket", self.sock_path, "--workers", "1"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        line = self.proc.stderr.readline()
        if not line.startswith("ready:"):
            self.proc.kill()
            self.proc.wait()
            raise BenchError("kmsd did not start: %r" % line)
        self.conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.conn.settimeout(TIMEOUT)
        self.conn.connect(self.sock_path)
        self.reader = self.conn.makefile("r", encoding="utf-8")

    def submit(self, spec):
        """Send one job and wait for its terminal event (closed loop).
        Returns (client latency seconds, report dict, cache hit)."""
        t0 = time.perf_counter()
        self.conn.sendall((json.dumps(spec, separators=(",", ":")) +
                           "\n").encode())
        hit = False
        while True:
            line = self.reader.readline()
            if not line:
                raise BenchError("kmsd closed the connection")
            ev = json.loads(line)
            if ev.get("event") == "cache-hit":
                hit = True
            elif ev.get("event") == "done":
                return time.perf_counter() - t0, ev["report"], hit
            elif ev.get("event") == "rejected":
                raise BenchError("kmsd rejected a job: %s" % ev.get("reason"))

    def stop(self):
        """Drain, wait and return (cpu seconds, peak RSS MB) of kmsd."""
        self.reader.close()
        self.conn.close()
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.time() + TIMEOUT
        while True:
            pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.time() > deadline:
                self.proc.kill()
                os.wait4(self.proc.pid, 0)
                raise BenchError("kmsd did not drain")
            time.sleep(0.002)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stderr.close()
        if self.proc.returncode != 0:
            raise BenchError("kmsd exited with %d" % self.proc.returncode)
        return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def spec(kind, blif):
    return {"schema": "kms-job-v1", "kind": kind, "client": "perfbench",
            "blif": blif}


def service_round(names, workdir, artifact_dir=None):
    """One round of the service stream on a fresh kmsd; with an
    `artifact_dir` each certify job writes its proof artifacts there.
    Returns a dict with set-up, wall, cpu, rss and the per-job records."""
    t0 = time.perf_counter()
    lines = {n: read_input(n) for n in names}
    daemon = Daemon(workdir)
    setup = time.perf_counter() - t0
    jobs = []
    try:
        w0 = time.perf_counter()
        certify = {}
        for n in names:
            certify[n] = spec("certify", lines[n])
            if artifact_dir:
                certify[n]["emit_proof"] = os.path.abspath(
                    os.path.join(artifact_dir, n))
            lat, rep, hit = daemon.submit(certify[n])
            jobs.append((n, "certify", lat, rep, hit))
            for kind, payload in (("audit", rep["output_blif"]),
                                  ("delay", lines[n]), ("analyze", lines[n]),
                                  ("lint", lines[n])):
                lat, r, hit = daemon.submit(spec(kind, payload))
                jobs.append((n, kind, lat, r, hit))
        for n in names:  # resubmission of each irr-family spec
            lat, rep, hit = daemon.submit(certify[n])
            jobs.append((n, "resubmit", lat, rep, hit))
        wall = time.perf_counter() - w0
        cpu, rss = daemon.stop()
    finally:
        daemon.kill()
    return {"setup": setup, "wall": wall, "cpu": cpu, "rss": rss,
            "jobs": jobs}


def check_service_round(rnd, texts, seed, first):
    """Independent checks of one service round; `first` holds the first
    round's certify reports (None while checking the first round)."""
    errors, certs = [], {}
    for n, kind, lat, rep, hit in rnd["jobs"]:
        if rep["exit_code"] != 0:
            continue
        if kind == "certify":
            certs[n] = rep
            if hit or not rep["certified"]:
                errors.append("%s: certify was not run and certified" % n)
        elif kind == "resubmit":
            a = dict(certs.get(n, {}), wall_seconds=0, cache_hit=False)
            b = dict(rep, wall_seconds=0, cache_hit=False)
            if not hit or a != b:
                errors.append("%s: resubmission is not an equal cache hit" % n)
        elif kind == "audit":
            if rep["audit_redundant"] != 0 or rep["audit_unknown"] != 0:
                errors.append("%s: audit of the certify result found "
                              "redundancy" % n)
    if first is None:
        # The stream's own audit jobs cover faults the vectors miss.
        errors += check_results(
            [(n, texts[n], r) for n, r in certs.items()], seed)
    else:
        for n, r in certs.items():
            if r["output_digest"] != first[n]["output_digest"]:
                errors.append("%s: result differs between rounds" % n)
    return errors, certs


def kmsproof_errors(dirs):
    """Every certify artifact directory must pass the independent
    auditor; the directories are removed once checked."""
    errors = []
    for d in dirs:
        proc = subprocess.run([KMSPROOF, d], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=TIMEOUT,
                              text=True)
        if proc.returncode != 0:
            errors.append("kmsproof rejected %s: %s" %
                          (d, proc.stderr.strip()[-200:]))
        shutil.rmtree(d, ignore_errors=True)
    return errors


# ------------------------------------------------------------ workloads

def result(correct, attempted, failed, metrics, units):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
             "peak_rss_mb": "MB", "final_gates": "count",
             "final_delay": "gate_delays"}


def run_inprocess(workload, names, seed, seconds, outdir):
    files = [blif_path(n) for n in names]
    def setups():  # each in a fresh process, so each is cold
        return [driver("setup", *files)["setup"] for _ in range(SETUP_REPS)]
    before = setups()
    out = driver("run", outdir, seconds, *files, timeout=seconds + TIMEOUT)
    after = setups()
    reports = load_reports(outdir, names)
    errors = check_results(reports, seed, driver_audit(outdir))
    if not out["repeat_ok"]:
        errors.append("a report changed between rounds")
    ok = [r for _, _, r in reports if r["exit_code"] == 0]
    metrics = {
        "setup_s": min(before + after),
        "wall_s": statistics.fmean(out["wall"]),
        "cpu_s": statistics.fmean(out["cpu"]),
        "peak_rss_mb": out["peak_rss_mb"],
        "final_gates": sum(r["final_gates"] for r in ok),
        "final_delay": sum(r["final_computed_delay"] for r in ok),
    }
    log("%s: %d rounds, wall %s" % (workload, len(out["wall"]),
                                    [round(w, 3) for w in out["wall"]]))
    return errors, out["attempted"], out["failed"], metrics


def run_service(names, seed, seconds, workdir):
    texts = {n: read_input(n) for n in names}
    setups, rounds, errors = [], [], []

    def time_setups():  # set-up alone: read the inputs, start kmsd
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            for n in names:
                read_input(n)
            d = Daemon(workdir)
            setups.append(time.perf_counter() - t0)
            try:
                d.stop()
            finally:
                d.kill()
    time_setups()
    first = None
    start = time.perf_counter()
    while True:
        rnd = service_round(names, workdir)
        rounds.append(rnd)
        setups.append(rnd["setup"])
        errs, certs = check_service_round(rnd, texts, seed, first)
        errors += errs
        if first is None:
            first = certs
        elapsed = time.perf_counter() - start
        if elapsed + median([r["wall"] for r in rounds]) > seconds:
            break
    time_setups()
    attempted = sum(len(r["jobs"]) for r in rounds)
    failed = sum(1 for r in rounds for j in r["jobs"]
                 if j[3]["exit_code"] != 0)
    metrics = {
        "setup_s": min(setups),
        "wall_s": statistics.fmean(r["wall"] for r in rounds),
        "cpu_s": statistics.fmean(r["cpu"] for r in rounds),
        "peak_rss_mb": median([r["rss"] for r in rounds]),
        "final_gates": sum(r["final_gates"] for r in first.values()),
        "final_delay": sum(r["final_computed_delay"] for r in first.values()),
    }
    log("service: %d rounds, wall %s" %
        (len(rounds), [round(r["wall"], 3) for r in rounds]))
    return errors, attempted, failed, metrics


# ------------------------------------------------------------ traced run

LAYER_UNITS = {
    "netlist.parse_s": "s", "netlist.decompose_s": "s",
    "netlist.write_s": "s", "core.loop_s": "s", "core.iterations": "count",
    "core.sensitization_queries": "count",
    "timing.sta_gates_repaired": "count", "atpg.removal_s": "s",
    "atpg.sim_s": "s", "atpg.sat_s": "s", "atpg.other_s": "s",
    "atpg.passes": "count", "atpg.removed": "count",
    "atpg.sat_queries": "count", "atpg.sim_dropped": "count",
    "atpg.witness_dropped": "count", "atpg.cache_hits": "count",
    "atpg.cache_invalidated": "count",
    "analysis.static_discharged": "count", "sat.conflicts": "count",
    "atpg.queries_per_removal": "ratio", "timing.delay_s": "s",
    "proof.capture_s": "s", "proof.verify_s": "s",
    "proof.certificates_checked": "count", "proof.steps_checked": "count",
    "recover.durable_s": "s", "recover.bytes_written": "bytes",
    "atpg.audit_s": "s", "timing.delay_job_s": "s",
    "analysis.analyze_s": "s", "check.lint_s": "s",
    "serve.overhead_s": "s", "serve.cache_hits": "count",
    "serve.cache_hit_s": "s", "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}
PROOF_KEYS = ("proof.capture_s", "proof.verify_s",
              "proof.certificates_checked", "proof.steps_checked")


def serve_layers(rnd):
    uncached = [(lat, rep) for _, _, lat, rep, hit in rnd["jobs"] if not hit]
    hits = [lat for _, _, lat, _, hit in rnd["jobs"] if hit]
    return {"serve.overhead_s": sum(lat - rep["wall_seconds"]
                                    for lat, rep in uncached),
            "serve.cache_hits": len(hits),
            "serve.cache_hit_s": sum(hits)}


def run_traced(workload, names, seed, outdir):
    errors = []
    certify = workload == "service"
    files = [blif_path(n) for n in names]
    tr = driver("trace", outdir, 1 if certify else 0, *files,
                timeout=2 * TIMEOUT)
    if not tr["digests_equal"]:
        errors.append("traced digest or final delay differs from run_job:" +
                      tr["mismatches"])
    probe = names if certify else [PROBE[workload]]
    if certify:
        proof = tr
    else:
        proof = driver("trace", outdir, 1, blif_path(probe[0]))
        if not proof["digests_equal"]:
            errors.append("traced certify digest differs from run_job")
    svc = driver("probe", outdir, *[blif_path(n) for n in probe])
    if not svc["probe_ok"]:
        errors.append("service probe:" + svc["problems"])
    texts = {n: read_input(n) for n in probe}
    rnd = service_round(probe, outdir, os.path.join(outdir, "trace"))
    errs, _ = check_service_round(rnd, texts, seed, None)
    errors += errs
    errors += kmsproof_errors(
        [os.path.join(outdir, "trace", n) for n in probe] +
        [os.path.join(outdir, "probe_" + n) for n in probe])
    if not certify:  # the irr results of the traced pass, checked too
        errors += check_results(load_reports(outdir, names), seed,
                                driver_audit(outdir))
    layers = {k: tr[k] for k in LAYER_UNITS if k in tr}
    layers.update({k: proof[k] for k in PROOF_KEYS})
    layers.update({k: svc[k] for k in LAYER_UNITS if k in svc})
    layers.update(serve_layers(rnd))
    layers["trace.overhead_s"] = tr["trace.traced_s"] - tr["trace.untraced_s"]
    log("%s traced: unattributed %.4f s of %.3f s traced" %
        (workload, tr["trace.unattributed_s"], tr["trace.traced_s"]))
    missing = set(LAYER_UNITS) - set(layers)
    if missing:
        raise BenchError("per-layer metrics missing: %s" % sorted(missing))
    attempted = tr["jobs"] + len(rnd["jobs"])
    failed = sum(1 for j in rnd["jobs"] if j[3]["exit_code"] != 0)
    return errors, attempted, failed, layers


# ------------------------------------------------------------ main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regenerate", action="store_true",
                    help="rewrite perfbench/inputs/ from src/gen and exit")
    args = ap.parse_args()
    if not args.regenerate and args.workload is None:
        ap.error("--workload is required")
    try:
        build()
        if args.regenerate:
            subprocess.run([KMSBENCH, "gen", INPUTS], check=True, timeout=600)
            log("inputs written to %s" % INPUTS)
            return 0
        names = list(WORKLOADS[args.workload])
        random.Random(args.seed).shuffle(names)
        outdir = os.path.join(BUILD, "runs", args.workload)
        shutil.rmtree(outdir, ignore_errors=True)
        os.makedirs(outdir)
        if args.trace:
            errors, attempted, failed, metrics = run_traced(
                args.workload, names, args.seed, outdir)
            units = LAYER_UNITS
        else:
            if args.workload == "service":
                errors, attempted, failed, metrics = run_service(
                    names, args.seed, args.seconds, outdir)
            else:
                errors, attempted, failed, metrics = run_inprocess(
                    args.workload, names, args.seed, args.seconds, outdir)
            units = E2E_UNITS
        shutil.rmtree(outdir, ignore_errors=True)
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        log("perfbench: %s" % e)
        return 1
    for e in errors:
        log("perfbench: CHECK FAILED: %s" % e)
    print(json.dumps(result(not errors, attempted, failed, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
