"""Run one rctrs CLI request with the span recorder installed.

Usage: python3 perfbench/cli_child.py SPANS_OUT REQUEST_ID -- CLI_ARGS...

The traced cold_cli run starts this script in place of
`python -m rctrs.cli`; stdout and the exit code are the CLI's own, and the
recorded spans and counters are written to SPANS_OUT as JSON.
"""

import json
import sys

import spans


def main() -> int:
    out_path, rid, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py SPANS_OUT REQUEST_ID -- CLI_ARGS...")
    import rctrs.cli

    rec = spans.Recorder(rctrs)
    rec.rid = int(rid)
    rec.install()
    try:
        code = rctrs.cli.main(argv)
    finally:
        rec.uninstall()
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(rec.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
