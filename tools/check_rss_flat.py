#!/usr/bin/env python3
"""Fail if s4dsim's peak memory grows with the number of passes.

Runs one random-write config (32 ranks, 256 MiB file, 64 MiB cache,
16 KiB requests) at repeat = 1 and at repeat = 10 and compares the two
runs' peak resident set size. Nothing s4dsim keeps should scale with the
number of requests it has issued, so ten passes must peak within
--max-growth-mib of one pass.

  check_rss_flat.py path/to/s4dsim [--max-growth-mib 4]
"""
import argparse
import os
import subprocess
import sys
import tempfile

CONFIG = """[cluster]
dservers = 8
cservers = 4
stripe = 64k

[middleware]
type = s4d
cache_capacity = 64m

[workload]
type = ior
ranks = 32
file_size = 256m
request_size = 16k
random = true
kind = write
repeat = {repeat}
"""


def peak_rss_mib(s4dsim, config_path):
    """Runs s4dsim on the config; returns the child's peak RSS in MiB."""
    child = subprocess.Popen([s4dsim, config_path], stdout=subprocess.DEVNULL)
    # wait4 returns this child's own rusage (ru_maxrss in KiB on Linux).
    _, status, usage = os.wait4(child.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.exit(f"s4dsim {config_path} exited {code}")
    return usage.ru_maxrss / 1024.0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("s4dsim")
    parser.add_argument("--max-growth-mib", type=float, default=4.0)
    args = parser.parse_args()

    peaks = {}
    with tempfile.TemporaryDirectory() as tmp:
        for repeat in (1, 10):
            path = os.path.join(tmp, f"repeat{repeat}.ini")
            with open(path, "w") as f:
                f.write(CONFIG.format(repeat=repeat))
            peaks[repeat] = peak_rss_mib(args.s4dsim, path)
            print(f"repeat = {repeat}: peak RSS {peaks[repeat]:.1f} MiB")
    growth = peaks[10] - peaks[1]
    if growth >= args.max_growth_mib:
        print(f"FAIL: peak RSS grew {growth:.1f} MiB from 1 to 10 passes "
              f"(limit {args.max_growth_mib:g} MiB)")
        return 1
    print(f"ok: growth {growth:.1f} MiB < {args.max_growth_mib:g} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
