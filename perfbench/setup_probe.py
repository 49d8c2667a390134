"""Time one fresh set-up: import wkbmc, load the config, build it for T1.

Usage: python3 setup_probe.py SRC_DIR CONFIG_PATH T1

Prints the elapsed seconds.  Run it in a new interpreter each time, so
the import is a fresh one.
"""
import sys
import time


def main(argv):
    src, config_path, t1 = argv[1], argv[2], float(argv[3])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from wkbmc import harness, lmm

    harness.build_config(lmm.load_config(config_path), t1)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv)
