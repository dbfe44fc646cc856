"""Set-up probe: one fresh process that imports qproc.cli and runs cut commands.

Usage: python3 probe.py SRC_DIR ARGV_LIST_JSON

Times `import qproc.cli` plus every argv in the list (each a `qproc.cli.main`
argument list), which is what a CLI user pays on every invocation before the
real work starts. Prints one JSON line: {"seconds": ..., "rcs": [...]}.
"""
import json
import sys
import time


def main() -> int:
    src, argv_file = sys.argv[1], sys.argv[2]
    with open(argv_file) as fh:
        argvs = json.load(fh)
    sys.path.insert(0, src)
    real_stdout = sys.stdout
    start = time.perf_counter()
    import qproc.cli

    rcs = []
    with open(argv_file + ".log", "w") as log:
        sys.stdout = log
        try:
            for argv in argvs:
                rcs.append(qproc.cli.main(argv))
        finally:
            sys.stdout = real_stdout
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds, "rcs": rcs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
