"""Time the import of reconfig_sim plus a workload's one-time package work.

    python3 perfbench/setup_probe.py WORKLOAD INPUT_DIR

Prints seconds.  Run in a fresh interpreter: this file imports nothing but
what the interpreter has already loaded, so the import is timed from the
state a user's process starts in.  The library workloads take their
set-up state from package_setup too, so the probe times exactly their
set-up.
"""
import os
import sys
import time


def package_setup(rs, workload: str, texts: list[str]):
    """The package work a workload does once, before its first timed operation."""
    if workload == "sweep_mid":
        return rs.load_scenario(texts[0])
    if workload == "oracle_small":
        return [rs.load_scenario(text) for text in texts]
    return None


def main(argv: list[str]) -> int:
    workload, input_dir = argv
    texts = []
    for name in sorted(os.listdir(input_dir)):
        with open(os.path.join(input_dir, name), encoding="utf-8") as f:
            texts.append(f.read())
    start = time.perf_counter()
    if workload == "cli_bundled":
        import reconfig_sim.cli  # noqa: F401
    else:
        import reconfig_sim
        package_setup(reconfig_sim, workload, texts)
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
