"""Record reference.json: input and output digests for every (class, variant).

Run from the root of a checkout, only when the library's reports are
meant to change:

    python3 perfbench/record_reference.py

Each digest pair is sha256 of the generated input and of the rendered
report (library workloads) or the CLI's stdout (cold_cli).  The benchmark
compares every output of every run against these digests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "rctrs" / "__init__.py").is_file():
        print(f"error: no rctrs package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(src)]
    import workloads

    os.environ.pop("RCTRS_DISTANCE_BUDGET", None)
    rctrs = workloads.import_rctrs()
    workdir = root / ".perfbench_work" / "reference"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = {}
    for workload in workloads.WORKLOADS:
        table = {}
        for item in workloads.all_variants(rctrs, workload, workdir):
            if workload == "cold_cli":
                proc = subprocess.run([sys.executable, "-m", "rctrs.cli", *item.argv],
                                      cwd=root, env=env, capture_output=True, text=True, timeout=300)
                if proc.returncode != 0:
                    raise SystemExit(f"{item.label}: exit {proc.returncode}: {proc.stderr}")
                output = proc.stdout
            else:
                report = rctrs.report.analyze(item.source)
                output = report.render()
            table[item.label] = [workloads.sha(item.command + "\n" + item.spec_text),
                                 workloads.sha(output)]
            if workload != "cold_cli":
                problems = workloads.check_report(item, report, {item.label: table[item.label]})
                if problems:
                    raise SystemExit(f"{item.label}: {problems}")
            print(f"{workload} {item.label}", flush=True)
        out[workload] = table
    (HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
