"""Set-up time of one fresh process: import resolvedk, parse every input.

    python3 perfbench/setup_probe.py SRC_DIR DESCRIPTOR_FILE...

Prints the seconds from just before ``import resolvedk.cli`` until the last
descriptor has gone through ``parse_descriptor``.
"""

import sys
import time


def main(argv):
    src, *files = argv
    sys.path.insert(0, src)
    start = time.perf_counter()
    import resolvedk.cli  # noqa: F401  (the import users pay on every command)
    from resolvedk.descriptor import parse_descriptor

    for path in files:
        with open(path, "r", encoding="utf-8") as fh:
            parse_descriptor(fh.read())
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
