"""cli_bundled: fresh `python -m reconfig_sim.cli` processes, one per command.

    python3 perfbench/cli_worker.py INPUT_DIR SECONDS TRACE RESULT_JSON

Runs in its own small process, so that the commands it starts measure
their own peak memory: on Linux a child's ru_maxrss also counts the memory
of the process that spawned it.  The first input is the seeded scenario
of the second optimize command.  With TRACE 1 half of SECONDS runs the
commands under tracer.py and the span dumps are listed in the result.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
from run import CHILD_TIMEOUT_S, HERE, child_env, run_child


class CliWorkload:
    """Fresh CLI processes cycling through the commands below.

    The second optimize runs a seeded scenario so that the planner's total,
    and with it sim_total_ms, depends on the seed; the rest use bundled
    scenarios and are compared byte for byte with recorded digests.  The
    reference for wall_ref_p50 is a bare interpreter start, timed between
    commands: process start-up follows the host's speed the way a command
    does, which the pure-Python unit of reference.py does not.
    """

    COMMANDS = (
        ("optimize", ["optimize", "seq2", "--out", "outcome_seq2.json"]),
        ("optimize", ["optimize", "seeded.json", "--out", "outcome_seeded.json"]),
        ("simulate", ["simulate", "corpus/q13", "--trace", "trace_q13.json"]),
        ("sweep", ["sweep", "seq2", "--axis", "scale_factor", "--values", "0.25,0.5,1,2",
                   "--out", "sweep.csv"]),
        ("verify", ["corpus", "verify"]),
    )
    OUTPUTS = ("outcome_seq2.json", "outcome_seeded.json", "trace_q13.json", "sweep.csv")

    def __init__(self, work: Path, doc: dict):
        self.work = work
        self.doc = doc
        (work / "seeded.json").write_text(json.dumps(doc), encoding="utf-8")
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.seeded_digest: str | None = None
        self.sim_total_ms = 0.0
        self.device: dict[str, float] = {}
        self.peak_rss_kib = 0
        self.relative: list[float] = []
        self.last_bare = self._bare()

    def _bare(self) -> float:
        start = time.perf_counter()
        run_child([sys.executable, "-c", "pass"], cwd=self.work)
        return time.perf_counter() - start

    def _read(self, name: str) -> str:
        return (self.work / name).read_text(encoding="utf-8")

    def _spawn(self, prefix: list[str], args: list[str]) -> tuple[int, str, float]:
        for name in self.OUTPUTS:
            (self.work / name).unlink(missing_ok=True)
        with open(self.work / "stdout.txt", "w+b") as out, \
                open(self.work / "stderr.txt", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(prefix + args, cwd=self.work, env=child_env(),
                                    stdout=out, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
            out.seek(0)
            return proc.returncode, out.read().decode("utf-8"), elapsed

    def _check(self, index: int, rc: int, stdout: str, errors: list[str], first: bool):
        if rc != 0:
            errors.append(f"exit code {rc}: {self._read('stderr.txt')[-500:]}")
            return
        if index == 0:
            checks.expect_digest("cli_optimize_seq2_stdout", stdout, errors)
            outcome = self._read("outcome_seq2.json")
            checks.expect_digest("outcome_seq2", checks.outcome_today(outcome), errors)
            if first:
                self.sim_total_ms += json.loads(outcome)["total_ms"]
        elif index == 1:
            outcome = self._read("outcome_seeded.json")
            digest = checks.sha256(stdout + outcome)
            if first:
                doc = json.loads(outcome)
                orders, prefetches = checks.schedule_from_outcome(doc)
                checks.check_schedule(self.doc, orders, prefetches, doc["total_ms"],
                                      "seeded optimize", errors)
                if f"strategy={doc['strategy']}" not in stdout.splitlines():
                    errors.append("stdout and outcome document name different strategies")
                self.sim_total_ms += doc["total_ms"]
                self.seeded_digest = digest
            elif digest != self.seeded_digest:
                errors.append("seeded optimize output changed between runs")
        elif index == 2:
            checks.expect_digest("cli_simulate_q13_stdout", stdout, errors)
            trace = self._read("trace_q13.json")
            checks.expect_digest("trace_q13", trace, errors)
            if first:
                self.device = checks.device_stats(
                    (r["lane"], r["start_ms"], r["end_ms"], r["query"]) for r in json.loads(trace))
        elif index == 3:
            checks.expect_digest("sweep_seq2", self._read("sweep.csv"), errors)
        else:
            checks.expect_digest("cli_verify_stdout", stdout, errors)

    def cycle(self, prefix_for, samples: dict[str, list[float]] | None, first: bool = False):
        """Run every command once; prefix_for() gives the interpreter command line."""
        for index, (name, args) in enumerate(self.COMMANDS):
            self.attempted += 1
            errors: list[str] = []
            before = self.last_bare
            try:
                rc, stdout, elapsed = self._spawn(prefix_for(), args)
                self.last_bare = after = self._bare()
                self._check(index, rc, stdout, errors, first)
            except (OSError, ValueError, KeyError) as exc:
                errors.append(f"{type(exc).__name__}: {exc}")
            if errors:
                self.failed += 1
                self.errors.append(f"{name} {' '.join(args[:2])}: {'; '.join(errors)}")
            elif samples is not None:
                samples.setdefault(name, []).append(elapsed * 1e3)
                self.relative.append(elapsed * 2 / (before + after))

    def loop(self, seconds: float, prefix_for) -> dict[str, list[float]]:
        samples: dict[str, list[float]] = {}
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.cycle(prefix_for, samples)
        return samples


def main(argv: list[str]) -> int:
    input_dir, seconds, trace, result_path = argv
    seconds, trace = float(seconds), trace == "1"
    doc = json.loads(next(iter(sorted(Path(input_dir).glob("*.json")))).read_text(encoding="utf-8"))
    work = Path(result_path).parent / "cli"
    work.mkdir()
    plain = [sys.executable, "-m", "reconfig_sim.cli"]
    cli = CliWorkload(work, doc)
    cli.cycle(lambda: plain, None, first=True)
    samples = cli.loop(seconds / 2 if trace else seconds, lambda: plain)
    result = {"samples_ms": [v for values in samples.values() for v in values],
              "relative": cli.relative, "sim_total_ms": cli.sim_total_ms, "device": cli.device,
              "peak_rss_mb": cli.peak_rss_kib / 1024}
    if trace:
        traced = CliWorkload(work, doc)
        dumps: list[Path] = []

        def traced_prefix():
            dumps.append(work / f"spans-{len(dumps):05d}.json")
            return [sys.executable, str(HERE / "tracer.py"), str(dumps[-1]), "--"]

        traced.cycle(traced_prefix, None, first=True)
        dumps.clear()  # the checked cycle is not part of the per-operation figures
        traced.loop(seconds / 2, traced_prefix)
        cli.attempted += traced.attempted
        cli.failed += traced.failed
        cli.errors += traced.errors
        if (traced.sim_total_ms, traced.device) != (cli.sim_total_ms, cli.device):
            cli.failed += 1
            cli.errors.append("sim_total_ms or device.* changed under tracing")
        result["spans_paths"] = [str(p) for p in dumps if p.exists()]
        result["overhead"] = statistics.median(traced.relative) / statistics.median(cli.relative)
        result["command_ms"] = {f"cli.command_ms.{name}": statistics.median(values)
                                for name, values in samples.items()}
    result.update(attempted=cli.attempted, failed=cli.failed, errors=cli.errors[:20])
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
